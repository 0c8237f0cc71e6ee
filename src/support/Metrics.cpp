//===- support/Metrics.cpp ------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/JsonWriter.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace cogent;
using namespace cogent::support;

//===----------------------------------------------------------------------===//
// MetricKind name table
//===----------------------------------------------------------------------===//

static const char *const MetricKindNames[NumMetricKinds] = {
    "counter",
    "gauge",
    "histogram",
};

const char *support::metricKindName(MetricKind Kind) {
  unsigned I = static_cast<unsigned>(Kind);
  return I < NumMetricKinds ? MetricKindNames[I] : "?";
}

std::optional<MetricKind> support::metricKindFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumMetricKinds; ++I)
    if (Name == MetricKindNames[I])
      return static_cast<MetricKind>(I);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

double LatencyHistogram::maxTrackableMs() {
  return MinTrackableMs * std::exp2(static_cast<double>(Octaves));
}

double LatencyHistogram::quantileErrorBound() {
  return std::exp2(1.0 / (2.0 * SubBucketsPerOctave)) - 1.0;
}

double LatencyHistogram::bucketLowerMs(unsigned I) {
  if (I == 0)
    return 0.0;
  return MinTrackableMs *
         std::exp2(static_cast<double>(I - 1) / SubBucketsPerOctave);
}

double LatencyHistogram::bucketUpperMs(unsigned I) {
  if (I >= NumBuckets - 1)
    return std::numeric_limits<double>::infinity();
  return MinTrackableMs *
         std::exp2(static_cast<double>(I) / SubBucketsPerOctave);
}

unsigned LatencyHistogram::bucketIndex(double Ms) {
  if (!(Ms >= MinTrackableMs)) // NaN and negatives underflow too
    return 0;
  double Raw = std::log2(Ms / MinTrackableMs) * SubBucketsPerOctave;
  Raw = std::clamp(Raw, 0.0, static_cast<double>(NumBuckets));
  unsigned I = 1 + static_cast<unsigned>(Raw);
  if (I >= NumBuckets)
    I = NumBuckets - 1;
  // log2 rounding can land a boundary value one bucket off either way;
  // nudge until the bucket's half-open range [lower, upper) contains Ms,
  // which makes boundary placement exact and deterministic.
  while (I > 1 && Ms < bucketLowerMs(I))
    --I;
  while (I < NumBuckets - 1 && Ms >= bucketUpperMs(I))
    ++I;
  return I;
}

void LatencyHistogram::record(double Ms) {
  if (std::isnan(Ms))
    Ms = 0.0;
  ++Counts_[bucketIndex(Ms)];
  if (Count_ == 0) {
    MinMs_ = MaxMs_ = Ms;
  } else {
    MinMs_ = std::min(MinMs_, Ms);
    MaxMs_ = std::max(MaxMs_, Ms);
  }
  ++Count_;
  SumMs_ += Ms;
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  if (Other.Count_ == 0)
    return;
  for (unsigned I = 0; I < NumBuckets; ++I)
    Counts_[I] += Other.Counts_[I];
  if (Count_ == 0) {
    MinMs_ = Other.MinMs_;
    MaxMs_ = Other.MaxMs_;
  } else {
    MinMs_ = std::min(MinMs_, Other.MinMs_);
    MaxMs_ = std::max(MaxMs_, Other.MaxMs_);
  }
  Count_ += Other.Count_;
  SumMs_ += Other.SumMs_;
}

double LatencyHistogram::quantileMs(double P) const {
  if (Count_ == 0)
    return 0.0;
  P = std::clamp(P, 0.0, 100.0);
  // The order statistic at rank ceil(P/100 * N), rank 1 = min.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil((P / 100.0) * static_cast<double>(Count_)));
  Rank = std::clamp<uint64_t>(Rank, 1, Count_);
  uint64_t Cum = 0;
  unsigned Bucket = NumBuckets - 1;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Cum += Counts_[I];
    if (Cum >= Rank) {
      Bucket = I;
      break;
    }
  }
  double Estimate;
  if (Bucket == 0)
    Estimate = MinMs_; // underflow: exact min is the best statement
  else if (Bucket == NumBuckets - 1)
    Estimate = MaxMs_; // overflow: exact max
  else
    Estimate = std::sqrt(bucketLowerMs(Bucket) * bucketUpperMs(Bucket));
  // Clamping into the observed range never hurts the bound and makes
  // single-sample and uniform distributions exact.
  return std::clamp(Estimate, MinMs_, MaxMs_);
}

void LatencyHistogram::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.member("count", Count_);
  W.member("sum_ms", SumMs_);
  W.member("min_ms", minMs());
  W.member("max_ms", maxMs());
  W.member("mean_ms", meanMs());
  W.member("p50_ms", quantileMs(50.0));
  W.member("p90_ms", quantileMs(90.0));
  W.member("p99_ms", quantileMs(99.0));
  W.member("p999_ms", quantileMs(99.9));
  W.endObject();
}

//===----------------------------------------------------------------------===//
// ConcurrentHistogram
//===----------------------------------------------------------------------===//

ConcurrentHistogram::ConcurrentHistogram(size_t NumShards) {
  if (NumShards == 0)
    NumShards = 1;
  Shards.reserve(NumShards);
  for (size_t I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

void ConcurrentHistogram::record(double Ms) {
  Shard &S = *Shards[traceThreadId() % Shards.size()];
  std::lock_guard<std::mutex> Guard(S.Lock);
  S.Hist.record(Ms);
}

LatencyHistogram ConcurrentHistogram::merged() const {
  LatencyHistogram Out;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Guard(S->Lock);
    Out.merge(S->Hist);
  }
  return Out;
}

LatencyHistogram ConcurrentHistogram::shardSnapshot(size_t I) const {
  assert(I < Shards.size() && "shard index out of range");
  std::lock_guard<std::mutex> Guard(Shards[I]->Lock);
  return Shards[I]->Hist;
}

//===----------------------------------------------------------------------===//
// MetricRegistry
//===----------------------------------------------------------------------===//

MetricRegistry::Entry &MetricRegistry::add(const std::string &Name,
                                           MetricKind Kind,
                                           const std::string &Help) {
  auto [It, Inserted] = Entries.try_emplace(Name);
  assert(Inserted && "metric registered twice");
  (void)Inserted;
  It->second.Kind = Kind;
  It->second.Help = Help;
  return It->second;
}

void MetricRegistry::counter(const std::string &Name, const std::string &Help,
                             CounterReader Read) {
  std::lock_guard<std::mutex> Guard(Lock);
  add(Name, MetricKind::Counter, Help).Count = std::move(Read);
}

void MetricRegistry::gauge(const std::string &Name, const std::string &Help,
                           GaugeReader Read) {
  std::lock_guard<std::mutex> Guard(Lock);
  add(Name, MetricKind::Gauge, Help).Level = std::move(Read);
}

ConcurrentHistogram &MetricRegistry::histogram(const std::string &Name,
                                               const std::string &Help,
                                               size_t NumShards) {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Entries.find(Name);
  if (It != Entries.end()) {
    assert(It->second.Kind == MetricKind::Histogram &&
           "metric re-registered with a different kind");
    return *It->second.Histogram;
  }
  Entry &E = add(Name, MetricKind::Histogram, Help);
  E.Histogram = std::make_unique<ConcurrentHistogram>(NumShards);
  return *E.Histogram;
}

std::optional<MetricKind> MetricRegistry::kindOf(const std::string &Name) const {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Entries.find(Name);
  if (It == Entries.end())
    return std::nullopt;
  return It->second.Kind;
}

void MetricRegistry::writeJson(JsonWriter &W) const {
  std::lock_guard<std::mutex> Guard(Lock);
  W.beginObject();
  W.key("counters");
  W.beginObject();
  for (const auto &[Name, E] : Entries)
    if (E.Kind == MetricKind::Counter)
      W.member(Name, E.Count());
  W.endObject();
  W.key("gauges");
  W.beginObject();
  for (const auto &[Name, E] : Entries)
    if (E.Kind == MetricKind::Gauge)
      W.member(Name, E.Level());
  W.endObject();
  W.key("histograms");
  W.beginObject();
  for (const auto &[Name, E] : Entries)
    if (E.Kind == MetricKind::Histogram) {
      W.key(Name);
      E.Histogram->merged().writeJson(W);
    }
  W.endObject();
  W.endObject();
}

std::string MetricRegistry::renderJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

std::string support::prometheusName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size() + 1);
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  if (!Out.empty() && Out[0] >= '0' && Out[0] <= '9')
    Out.insert(Out.begin(), '_');
  return Out;
}

/// %.17g, matching JsonWriter's double formatting so the two exporters
/// render identical registry state identically.
static std::string formatDouble(double D) {
  char Tmp[32];
  std::snprintf(Tmp, sizeof(Tmp), "%.17g", D);
  return Tmp;
}

std::string
MetricRegistry::renderPrometheus(const std::string &Namespace) const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::string Out;
  auto header = [&](const std::string &FullName, const std::string &Help,
                    const char *Type) {
    if (!Help.empty())
      Out += "# HELP " + FullName + " " + Help + "\n";
    Out += "# TYPE " + FullName + " " + Type + "\n";
  };
  for (const auto &[Name, E] : Entries) {
    std::string Full = prometheusName(Namespace + "_" + Name);
    switch (E.Kind) {
    case MetricKind::Counter:
      header(Full + "_total", E.Help, "counter");
      Out += Full + "_total " + std::to_string(E.Count()) + "\n";
      break;
    case MetricKind::Gauge:
      header(Full, E.Help, "gauge");
      Out += Full + " " + formatDouble(E.Level()) + "\n";
      break;
    case MetricKind::Histogram: {
      LatencyHistogram H = E.Histogram->merged();
      header(Full, E.Help, "summary");
      static constexpr struct {
        const char *Label;
        double P;
      } Quantiles[] = {{"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0},
                       {"0.999", 99.9}};
      for (const auto &Q : Quantiles)
        Out += Full + "{quantile=\"" + Q.Label + "\"} " +
               formatDouble(H.quantileMs(Q.P)) + "\n";
      Out += Full + "_sum " + formatDouble(H.sumMs()) + "\n";
      Out += Full + "_count " + std::to_string(H.count()) + "\n";
      break;
    }
    }
  }
  return Out;
}
