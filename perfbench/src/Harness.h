//===- perfbench/src/Harness.h - End-to-end benchmark harness ---*- C++ -*-===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: seeded inputs and the
/// open-loop arrival schedule, the percentile rule, the in-memory span log
/// with its self-time arithmetic, the simulator-vs-reference output check,
/// and the per-run record every workload fills in. The library is driven
/// in-process through its public headers only.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/Cogent.h"
#include "ir/Contraction.h"
#include "support/Trace.h"
#include "tensor/Tensor.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace cogent {
namespace service {
class GenerationService;
} // namespace service
} // namespace cogent

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Extents = std::vector<std::pair<char, int64_t>>;

inline double msSince(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

//===-- Seeded inputs -----------------------------------------------------===//

/// splitmix64: a tiny, fully specified generator, so a seed means the same
/// inputs with every standard library.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Fisher-Yates shuffle driven by \p Rng.
template <typename T> void shuffle(std::vector<T> &V, SplitMix &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

/// One contraction the benchmark asks the library for.
struct Request {
  std::string Spec;
  Extents Dims;
};

/// The 48 TCCG suite specs with every extent capped at \p Cap.
std::vector<Request> cappedSuite(int64_t Cap);

/// Arrival kinds of the open-loop mix.
enum class ArrivalKind { Hit, Miss, Duplicate };

struct Arrival {
  double DueMs = 0.0;
  ArrivalKind Kind = ArrivalKind::Hit;
  /// Index into OpenLoopSchedule::Inputs.
  size_t Input = 0;
};

struct OpenLoopMix {
  double RatePerS = 0.0;
  double Seconds = 0.0;
  /// Arrivals come in blocks of BlockSize; MissesPerBlock of them, at
  /// seeded even offsets, are first-time signatures. Stratifying the misses
  /// keeps how much cold work lands in any stretch of the run the same for
  /// every seed.
  size_t BlockSize = 25;
  size_t MissesPerBlock = 2;
  /// Every DuplicateEvery-th miss is followed, one slot later, by a
  /// duplicate of the same signature while it is still in flight (0 =
  /// never).
  size_t DuplicateEvery = 4;
  /// Misses cycle through seeded permutations of the warm specs, with
  /// fresh extents drawn uniformly from [MinExtent, MaxExtent].
  int64_t MinExtent = 0, MaxExtent = 0;
};

/// A fixed-rate arrival schedule and the distinct inputs it refers to:
/// Inputs[0, Warm.size()) are the pre-warmed set, the rest are the
/// first-time signatures, each used by exactly one Miss (plus its
/// Duplicates). Everything is a function of (Warm, Mix, Seed).
struct OpenLoopSchedule {
  std::vector<Request> Inputs;
  std::vector<Arrival> Arrivals;
};

OpenLoopSchedule buildOpenLoopSchedule(const std::vector<Request> &Warm,
                                       const OpenLoopMix &Mix, uint64_t Seed);

//===-- Percentiles -------------------------------------------------------===//

/// A nearest-rank percentile with the number of samples ranked above it.
struct Percentile {
  double Value = 0.0;
  size_t Samples = 0;
  size_t Beyond = 0;
};

/// Samples a percentile needs beyond it to be reported.
inline constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank \p P-th percentile (0 < P <= 100) of \p Samples. The result
/// counts as measured only when Beyond >= MinSamplesBeyond.
Percentile percentile(std::vector<double> Samples, double P);

/// Samples needed for the \p P-th percentile to have MinSamplesBeyond.
size_t samplesNeededFor(double P);

/// Latency samples of one phase bucketed into fixed-length windows by the
/// time their operation started. Other load on a shared host slows it for
/// seconds at a time, so every timing is taken from the least disturbed
/// quarter of the windows: the upper quartile of window throughputs and
/// the lower quartiles of window medians and p99s. (The single best window
/// is itself an outlier.) A tail that shows in three windows of four
/// belongs to the program.
class WindowedLatency {
public:
  explicit WindowedLatency(double WindowS) : WindowS(WindowS) {}
  void add(double AtS, double LatMs);
  /// Appends \p Other's samples (same window length).
  void merge(const WindowedLatency &Other);

  struct Summary {
    double FastOpsPerS = 0.0, FastP50 = 0.0, FastP99 = 0.0;
    /// Samples in the full windows, how many windows there were, and how
    /// many of them the quartiles were taken over.
    size_t Samples = 0, Windows = 0, Used = 0;
    /// Every window had MinSamplesBeyond samples beyond its p99.
    bool Enough = false;
    /// Per-window values, for the run record.
    std::vector<double> WindowOps, WindowP50, WindowP99;
  };
  /// Summarizes the full windows of a phase that lasted \p PhaseS. The
  /// quartiles leave out every window W with \p Skip[W] set.
  Summary summarize(double PhaseS, const std::vector<bool> &Skip = {}) const;
  /// The \p P-th percentile of each full window of a phase that lasted
  /// \p PhaseS.
  std::vector<double> windowPercentiles(double PhaseS, double P) const;

private:
  double WindowS;
  std::vector<std::vector<float>> Windows;
};

double median(std::vector<double> Samples);
double geomean(const std::vector<double> &Values);

/// Latency of a cold sweep, which times the same inputs in every pass.
/// Other load on a shared host slows single cores for seconds or minutes
/// at a time, and it only ever adds time. So each generation is scored at
/// its input's floor, the lowest latency that input showed in the run, and
/// the summary is over these scores.
struct FloorSummary {
  /// Inputs per second at the floors: inputs * 1000 / sum of floors.
  double OpsPerS = 0.0;
  /// Nearest-rank percentiles of the scored generations. With every input
  /// in equal shares, P99 is the floor of the costliest inputs.
  Percentile P50, P99;
  std::vector<double> Floors;
};

/// Summarizes \p LatByPass (one vector per pass, latency of input I at
/// [I], every pass over the same inputs).
FloorSummary summarizeFloors(const std::vector<std::vector<double>> &LatByPass);

/// Pins the calling thread to the CPUs it may run on, one at a time in
/// turn, so that a single-threaded run visits every core rather than
/// staying on one whose sibling is busy. Restores the thread's original CPU
/// set when destroyed. A no-op where affinity cannot be set.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  /// Moves the thread to the next CPU.
  void next();
  size_t cpus() const { return Cpus.size(); }

private:
  std::vector<int> Cpus;
  size_t Turn = 0;
};

/// Pins the calling thread to the first \p N CPUs it may run on; threads it
/// starts afterwards inherit the set. Restores the thread's original CPU set
/// when destroyed. Changes nothing where affinity cannot be set or where
/// the thread may use no more than \p N CPUs.
class CpuPin {
public:
  explicit CpuPin(size_t N);
  ~CpuPin();
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;
  /// CPUs the thread now runs on.
  size_t cpus() const { return Count; }

private:
  std::vector<int> Original;
  size_t Count = Original.size();
};

//===-- Spans -------------------------------------------------------------===//

inline constexpr int64_t NoParent = -1;

struct Span {
  std::string Name;
  double StartUs = 0.0;
  double EndUs = 0.0;
  /// Index of the enclosing span in the same log, or NoParent.
  int64_t Parent = NoParent;
  /// The benchmark operation (generation or request) the span belongs to;
  /// 0 when it could not be attributed to one.
  uint64_t OpId = 0;
  uint32_t Thread = 0;
  double durationUs() const { return EndUs - StartUs; }
};

/// Spans kept in memory and written once at the end of a traced run.
class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}
  double nowUs() const { return usAt(Clock::now()); }
  double usAt(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - Epoch).count();
  }
  size_t add(Span S) {
    Spans.push_back(std::move(S));
    return Spans.size() - 1;
  }
  /// Appends spans recorded into a thread-local vector, rebasing their
  /// parent indices.
  void append(std::vector<Span> Local) {
    int64_t Base = static_cast<int64_t>(Spans.size());
    for (Span &S : Local) {
      if (S.Parent != NoParent)
        S.Parent += Base;
      Spans.push_back(std::move(S));
    }
  }
  std::vector<Span> &spans() { return Spans; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// A library TraceSession opened now, whose events are folded into a
/// SpanLog on the log's clock.
struct TracedWindow {
  cogent::support::TraceSession Session;
  double OffsetUs = 0.0;
  explicit TracedWindow(const SpanLog &Log)
      : OffsetUs(Log.nowUs() - Session.nowUs()) {}
  /// Adds the session's complete ("X") events as spans without parents;
  /// linkByContainment attaches them.
  void addSpansTo(SpanLog &Log) const;
};

/// Gives every span without a parent the tightest span on the same thread
/// that encloses it, and inherits that span's OpId when it has none.
void linkByContainment(std::vector<Span> &Spans);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the span).
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

/// Total self time per span name.
std::map<std::string, double> selfTimeByName(const std::vector<Span> &Spans);

/// Chrome-trace JSON ("X" events, args carrying id/parent/op).
std::string renderChromeTrace(const std::vector<Span> &Spans);

//===-- Output check ------------------------------------------------------===//

/// Computes C = contraction(A, B) independently of the generator.
using ReferenceFn = std::function<void(
    const cogent::ir::Contraction &, cogent::tensor::Tensor<double> &,
    const cogent::tensor::Tensor<double> &,
    const cogent::tensor::Tensor<double> &)>;

/// tensor::contractReference<double>.
ReferenceFn defaultReference();

struct OutputVerdict {
  bool Ok = false;
  double MaxAbsError = 0.0;
  double Allowed = 0.0;
  std::string Note;
};

/// Re-plans \p Config for \p TC at extents clamped to 6, runs it through
/// gpu::simulateKernel on operands drawn from \p Seed and compares the
/// result with \p Reference. Passes when
/// max |sim - ref| <= 1e-12 + 1e-10 * max |ref|.
OutputVerdict checkKernelOutput(const cogent::ir::Contraction &TC,
                                const cogent::core::KernelConfig &Config,
                                uint64_t Seed,
                                const ReferenceFn &Reference =
                                    defaultReference());

//===-- Runs --------------------------------------------------------------===//

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Latency limit of slo_met_frac, and mixed_open's arrival rate and
  /// generator-lateness bound (all taken from BENCHMARK.json by run.py).
  double SloMs = 0.0;
  double RatePerS = 0.0;
  double LateBoundMs = 0.0;
  /// Where a traced run writes its Chrome trace; empty = nowhere.
  std::string TracePath;
  /// When main() started; the run record's setup_first_s runs from here
  /// to the first timed operation.
  Clock::time_point MainStart = Clock::now();
};

/// One metric as printed: value plus unit, with the sample count for
/// percentiles (0 otherwise).
struct Metric {
  double Value = 0.0;
  std::string Unit;
  size_t Samples = 0;
};

/// What a workload run produced.
struct RunResult {
  bool Correct = true;
  /// A run whose load generator could not keep its schedule measures
  /// nothing: it is reported as invalid, not as slow.
  bool Invalid = false;
  std::string InvalidReason;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Extra facts for the run record (client/worker counts, ...).
  std::map<std::string, std::string> Record;
  std::vector<std::string> Errors;

  void set(const std::string &Name, double Value, const std::string &Unit,
           size_t Samples = 0) {
    Metrics[Name] = Metric{Value, Unit, Samples};
  }
  void fail(const std::string &Why) {
    Correct = false;
    if (Errors.size() < 16)
      Errors.push_back(Why);
  }
};

/// Work shared by every workload's per-layer run: the workload's distinct
/// inputs, with the device and TopK each is generated for.
struct DistinctInput {
  cogent::ir::Contraction TC;
  cogent::gpu::DeviceSpec Device;
  size_t TopK = 1;
};

RunResult runColdWorkload(const RunArgs &Args, size_t TopK);
RunResult runWarmHits(const RunArgs &Args);
RunResult runMixedOpen(const RunArgs &Args);

/// Calls every layer's public functions on each distinct input and adds the
/// per-call costs and counts to \p Out (the per-layer metrics that do not
/// come from the workload's own spans).
void probeLayers(const std::vector<DistinctInput> &Inputs, RunResult &Out);

/// Runs the inputs through a GenerationService, closed loop, once cold and
/// then as hits, and fills the service.* / core.repo_* metrics; for
/// workloads that do not drive the service themselves.
void probeService(const std::vector<DistinctInput> &Inputs, size_t TopK,
                  RunResult &Out);

/// Fills the service.* and core.repo_* per-layer metrics from the requests
/// of \p Services (queue wait and execution time per completed request)
/// and the sum of their own tallies.
void addServiceMetrics(
    const std::vector<const cogent::service::GenerationService *> &Services,
    const std::vector<double> &QueueMs, const std::vector<double> &ExecMs,
    uint64_t Coalesced, RunResult &Out);

/// Peak resident set of the process, MiB.
double peakRssMb();

/// Fills the per-layer metrics derived from a traced phase's spans:
/// generation-phase self times per operation.
void addSpanMetrics(const SpanLog &Log, uint64_t Ops, RunResult &Out);

/// Writes \p Log as Chrome-trace JSON to \p Path (when non-empty) and
/// checks it is well-formed.
bool writeTrace(const SpanLog &Log, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
