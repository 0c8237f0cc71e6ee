//===- perfbench/src/Stats.cpp - Percentiles and summaries -----------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include <sys/resource.h>

using namespace perfbench;

namespace {

/// 1-based nearest rank of the P-th percentile among N samples. P * N is
/// formed before dividing so that e.g. P = 99, N = 1000 gives exactly 990.
size_t nearestRank(double P, size_t N) {
  double Rank = std::ceil(P * static_cast<double>(N) / 100.0);
  return std::clamp<size_t>(static_cast<size_t>(Rank), 1, N);
}

} // namespace

Percentile perfbench::percentile(std::vector<double> Samples, double P) {
  assert(P > 0.0 && P <= 100.0 && "percentile out of range");
  Percentile Out;
  Out.Samples = Samples.size();
  if (Samples.empty())
    return Out;
  size_t Rank = nearestRank(P, Samples.size());
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  Out.Value = Samples[Rank - 1];
  Out.Beyond = Samples.size() - Rank;
  return Out;
}

size_t perfbench::samplesNeededFor(double P) {
  size_t N = 1;
  while (N - nearestRank(P, N) < MinSamplesBeyond)
    ++N;
  return N;
}

void WindowedLatency::add(double AtS, double LatMs) {
  if (AtS < 0.0)
    return;
  size_t W = static_cast<size_t>(AtS / WindowS);
  if (W >= Windows.size())
    Windows.resize(W + 1);
  Windows[W].push_back(static_cast<float>(LatMs));
}

void WindowedLatency::merge(const WindowedLatency &Other) {
  assert(Other.WindowS == WindowS && "merging different window lengths");
  if (Other.Windows.size() > Windows.size())
    Windows.resize(Other.Windows.size());
  for (size_t W = 0; W < Other.Windows.size(); ++W)
    Windows[W].insert(Windows[W].end(), Other.Windows[W].begin(),
                      Other.Windows[W].end());
}

WindowedLatency::Summary
WindowedLatency::summarize(double PhaseS, const std::vector<bool> &Skip) const {
  Summary Out;
  size_t Full = std::min(Windows.size(),
                         static_cast<size_t>(PhaseS / WindowS + 1e-9));
  Out.Enough = Full > 0;
  std::vector<double> UsedOps, UsedP50, UsedP99;
  for (size_t W = 0; W < Full; ++W) {
    std::vector<double> Lat(Windows[W].begin(), Windows[W].end());
    Percentile P99 = percentile(Lat, 99.0);
    Out.Enough &= P99.Beyond >= MinSamplesBeyond;
    Out.WindowOps.push_back(static_cast<double>(Lat.size()) / WindowS);
    Out.WindowP50.push_back(percentile(std::move(Lat), 50.0).Value);
    Out.WindowP99.push_back(P99.Value);
    Out.Samples += Windows[W].size();
    if (W < Skip.size() && Skip[W])
      continue;
    UsedOps.push_back(Out.WindowOps.back());
    UsedP50.push_back(Out.WindowP50.back());
    UsedP99.push_back(Out.WindowP99.back());
  }
  Out.Windows = Full;
  Out.Used = UsedOps.size();
  if (Out.Used == 0)
    return Out;
  Out.FastOpsPerS = percentile(UsedOps, 75.0).Value;
  Out.FastP50 = percentile(UsedP50, 25.0).Value;
  Out.FastP99 = percentile(UsedP99, 25.0).Value;
  return Out;
}

std::vector<double> WindowedLatency::windowPercentiles(double PhaseS,
                                                       double P) const {
  size_t Full = std::min(Windows.size(),
                         static_cast<size_t>(PhaseS / WindowS + 1e-9));
  std::vector<double> Out;
  for (size_t W = 0; W < Full; ++W)
    Out.push_back(
        percentile(std::vector<double>(Windows[W].begin(), Windows[W].end()),
                   P)
            .Value);
  return Out;
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Mid = Samples.size() / 2;
  return Samples.size() % 2 ? Samples[Mid]
                            : 0.5 * (Samples[Mid - 1] + Samples[Mid]);
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

FloorSummary
perfbench::summarizeFloors(const std::vector<std::vector<double>> &LatByPass) {
  FloorSummary Out;
  if (LatByPass.empty())
    return Out;
  Out.Floors = LatByPass.front();
  for (const std::vector<double> &Pass : LatByPass) {
    assert(Pass.size() == Out.Floors.size() && "passes over different inputs");
    for (size_t I = 0; I < Pass.size(); ++I)
      Out.Floors[I] = std::min(Out.Floors[I], Pass[I]);
  }
  double Sum = 0.0;
  std::vector<double> Scored;
  Scored.reserve(LatByPass.size() * Out.Floors.size());
  for (size_t P = 0; P < LatByPass.size(); ++P)
    for (double F : Out.Floors) {
      Scored.push_back(F);
      Sum += P == 0 ? F : 0.0;
    }
  if (Sum > 0.0)
    Out.OpsPerS = static_cast<double>(Out.Floors.size()) * 1000.0 / Sum;
  Out.P50 = percentile(Scored, 50.0);
  Out.P99 = percentile(std::move(Scored), 99.0);
  return Out;
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}
