//===- perfbench/src/ServiceWorkloads.cpp - warm_hits / mixed_open ---------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads behind service::GenerationService (V100, default
/// generation options). Both pre-warm the plan cache with the 48 TCCG specs
/// at capped extents during set-up.
///
///  - warm_hits: closed-loop clients draw seeded requests from the warm set,
///    so every request is a cache hit.
///  - mixed_open: one generator thread submits on a fixed-rate schedule
///    computed from the seed: mostly hits, a minority of first-time
///    signatures (cold misses that insert into the cache) and a few
///    duplicates of an in-flight miss (singleflight coalescing). Latency is
///    timed from each request's due time.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "gpu/DeviceSpec.h"
#include "service/GenerationService.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace perfbench;
using namespace cogent;

namespace {

/// Extent cap of the pre-warmed signatures.
constexpr int64_t WarmCap = 24;
constexpr size_t SetupRepetitions = 5;

/// Length of the latency windows (see WindowedLatency). Each must hold
/// enough requests for a p99 with ten samples beyond it: the open loop's
/// rate must be at least 1000 req/s.
constexpr double WindowS = 1.0;

/// Service workers, and warm_hits' closed-loop clients: with the open
/// loop's generator and collector threads, within nproc = 4.
constexpr unsigned Workers = 2;
constexpr unsigned WarmClients = 2;
/// CPUs warm_hits runs on (see runWarmHits).
constexpr size_t WarmCpus = 2;

/// The open-loop mix besides its rate (which BENCHMARK.json records): 3 in
/// 100 arrivals are first-time signatures, every 4th of them duplicated.
/// The misses make nearly all of the workers' load. At 3 in 50 the workers
/// were 0.36-0.59 busy, and a slow stretch of host (CPU time per generation
/// up to 1.6x) pushed them into saturation, where the queue, and with it
/// every latency, grows without bound.
constexpr size_t BlockSize = 100, MissesPerBlock = 3, DuplicateEvery = 4;
constexpr int64_t MissMinExtent = 16, MissMaxExtent = 32;

/// How long before a due time the open-loop generator stops sleeping and
/// spins. Short, so that its CPU is mostly idle: a generator that spun for
/// 2 ms, and so all the time at 1000 req/s, competed with the workers and
/// fell behind more often on a loaded host.
constexpr std::chrono::microseconds SpinWindow(100);

/// Longest a traced phase runs, and how many requests of each client get
/// spans (all kept in memory until the trace is written).
constexpr double MaxTracedSeconds = 3.0;
constexpr size_t MaxTracedRequestsPerThread = 20000;

service::ServiceRequest toServiceRequest(const Request &R) {
  service::ServiceRequest Out;
  Out.Spec = R.Spec;
  Out.Extents = R.Dims;
  return Out;
}

struct ServiceSetup {
  std::unique_ptr<service::GenerationService> Service;
  std::vector<Request> Warm;
  /// What each distinct input was first served with (warm ones during
  /// set-up); every later answer for it must be identical.
  std::vector<std::optional<service::ServiceResult>> Expected;
};

std::unique_ptr<service::GenerationService> makeService() {
  service::ServiceOptions Options;
  Options.NumWorkers = Workers;
  Options.QueueCapacity = 1 << 16;
  Options.MaxOutstanding = 1 << 16;
  return std::make_unique<service::GenerationService>(gpu::makeV100(),
                                                      Options);
}

/// Builds the service and fills its cache with the warm set; repeated and
/// timed by the caller.
void prewarm(ServiceSetup &S, size_t NumInputs, RunResult &Out) {
  S.Service.reset(); // join the previous repetition's workers first
  S.Service = makeService();
  S.Warm = cappedSuite(WarmCap);
  S.Expected.assign(NumInputs, std::nullopt);
  std::vector<service::ServiceRequest> Batch;
  for (const Request &R : S.Warm)
    Batch.push_back(toServiceRequest(R));
  std::vector<ErrorOr<service::ServiceResult>> Results =
      S.Service->processBatch(Batch);
  for (size_t I = 0; I < Results.size(); ++I) {
    if (!Results[I]) {
      Out.fail("pre-warming failed: " + Results[I].error().render());
      continue;
    }
    S.Expected[I] = std::move(*Results[I]);
  }
}

/// Compares a served answer with the first answer for the same input.
bool sameAnswer(const service::ServiceResult &X,
                const service::ServiceResult &Y) {
  return X.Fallback == Y.Fallback &&
         X.Kernel.Config.toString() == Y.Kernel.Config.toString() &&
         X.Kernel.Source.KernelSource == Y.Kernel.Source.KernelSource;
}

/// The end of a run shared by both workloads: output check of every
/// distinct served kernel, and the model-side geomean over the warm set
/// (the part of the inputs that does not depend on the seed).
void checkServedKernels(const ServiceSetup &S,
                        const std::vector<Request> &Inputs, uint64_t Seed,
                        uint64_t OpsPerInput, RunResult &Out) {
  std::vector<double> Gflops;
  uint64_t Checked = 0, Unchecked = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const std::optional<service::ServiceResult> &R = S.Expected[I];
    if (!R)
      continue;
    if (I < S.Warm.size())
      Gflops.push_back(R->Kernel.Predicted.Gflops);
    if (R->Fallback == core::FallbackLevel::TtgtBaseline) {
      // The kernel targets the matricized GEMM, which the service does
      // not return; nothing to compare it against.
      ++Unchecked;
      continue;
    }
    ErrorOr<ir::Contraction> TC =
        ir::Contraction::parse(Inputs[I].Spec, Inputs[I].Dims);
    if (!TC) {
      Out.fail("served input does not parse: " + TC.error().render());
      continue;
    }
    OutputVerdict V = checkKernelOutput(*TC, R->Kernel.Config, Seed + I);
    ++Checked;
    if (!V.Ok) {
      Out.fail(V.Note);
      Out.Failed += OpsPerInput;
    }
  }
  Out.Record["kernels_checked"] = std::to_string(Checked);
  Out.Record["kernels_unchecked_ttgt"] = std::to_string(Unchecked);
  Out.set("gflops_geomean", geomean(Gflops), "GFLOP/s");
}

/// What the load generator saw in one phase.
struct PhaseStats {
  PhaseStats() : Lat(WindowS), LateByWindow(WindowS) {}
  /// Latency by the time each request started (closed loop) or was due
  /// (open loop).
  WindowedLatency Lat;
  uint64_t Attempted = 0, Completed = 0, SloMet = 0;
  /// First start to last completion, seconds.
  double WallS = 0.0;
  /// Open loop: how late each submission was. Closed loop (traced phases
  /// only): the client's own time between a reply and its next request.
  std::vector<double> LateMs;
  /// Open loop: the same lateness, by due time.
  WindowedLatency LateByWindow;
  /// Traced phases only: the service's queue wait and execution time per
  /// completed request.
  std::vector<double> QueueMs, ExecMs;
  uint64_t Coalesced = 0;
  /// Worker time spent executing, ms, and the requests it was spent on
  /// (coalesced followers excluded).
  double BusyMs = 0.0;
  uint64_t Executed = 0;

  void merge(const PhaseStats &O) {
    Lat.merge(O.Lat);
    Attempted += O.Attempted;
    Completed += O.Completed;
    SloMet += O.SloMet;
    WallS = std::max(WallS, O.WallS);
    LateMs.insert(LateMs.end(), O.LateMs.begin(), O.LateMs.end());
    LateByWindow.merge(O.LateByWindow);
    QueueMs.insert(QueueMs.end(), O.QueueMs.begin(), O.QueueMs.end());
    ExecMs.insert(ExecMs.end(), O.ExecMs.begin(), O.ExecMs.end());
    Coalesced += O.Coalesced;
    BusyMs += O.BusyMs;
    Executed += O.Executed;
  }

  /// Accounts one completed request.
  void complete(double AtS, double LatMs, bool Ok, double SloMs,
                const service::ServiceResult &R, bool Traced) {
    ++Completed;
    Lat.add(AtS, LatMs);
    SloMet += Ok && LatMs <= SloMs;
    if (!R.Coalesced) {
      BusyMs += R.TotalMs - R.QueueMs;
      ++Executed;
    }
    if (!Traced)
      return;
    QueueMs.push_back(R.QueueMs);
    ExecMs.push_back(R.TotalMs - R.QueueMs);
    Coalesced += R.Coalesced;
  }
};

/// The end-to-end timings of a phase (see WindowedLatency), leaving out the
/// windows flagged in \p Skip; in the open loop, where the schedule fixes
/// the rate, ops_per_s is completed requests over the phase.
void addEndToEnd(const PhaseStats &P, double PhaseS, bool OpenLoop,
                 double SetupS, RunResult &Out,
                 const std::vector<bool> &Skip = {}) {
  WindowedLatency::Summary S = P.Lat.summarize(PhaseS, Skip);
  if (!S.Enough)
    Out.fail("too few samples per window for a p99 with " +
             std::to_string(MinSamplesBeyond) + " beyond");
  Out.set("setup_s", SetupS, "s");
  Out.set("ops_per_s",
          OpenLoop ? static_cast<double>(P.Completed) / P.WallS
                   : S.FastOpsPerS,
          "1/s");
  Out.set("lat_ms_p50", S.FastP50, "ms", S.Samples);
  Out.set("lat_ms_p99", S.FastP99, "ms", S.Samples);
  Out.set("slo_met_frac",
          static_cast<double>(P.SloMet) /
              static_cast<double>(std::max<uint64_t>(P.Attempted, 1)),
          "fraction");
  Out.Record["latency_windows"] = std::to_string(S.Windows);
  Out.Record["latency_windows_used"] = std::to_string(S.Used);
  std::string W;
  for (size_t I = 0; I < S.Windows; ++I)
    W += (I ? " " : "") + std::to_string(S.WindowOps[I]) + "/" +
         std::to_string(S.WindowP50[I]) + "/" + std::to_string(S.WindowP99[I]);
  Out.Record["windows_ops_p50_p99"] = W;
}

/// Request spans from the client's side, with the service's queue wait and
/// execution as children.
void addRequestSpans(std::vector<Span> &Spans, double SubmitUs,
                     const service::ServiceResult &R, uint32_t Thread) {
  int64_t Parent = static_cast<int64_t>(Spans.size());
  double End = SubmitUs + R.TotalMs * 1000.0;
  double Dequeued = SubmitUs + R.QueueMs * 1000.0;
  Spans.push_back(Span{"op.request", SubmitUs, End, NoParent, R.RequestId,
                       Thread});
  Spans.push_back(Span{"service.queue", SubmitUs, Dequeued, Parent,
                       R.RequestId, Thread});
  Spans.push_back(Span{"service.exec", Dequeued, End, Parent, R.RequestId,
                       Thread});
}

//===-- warm_hits ---------------------------------------------------------===//

PhaseStats runClosedLoop(ServiceSetup &S, uint64_t Seed, double Seconds,
                         double SloMs, RunResult &Out, SpanLog *Log) {
  std::atomic<bool> Stop{false};
  std::vector<PhaseStats> PerClient(WarmClients);
  std::vector<std::vector<Span>> ClientSpans(WarmClients);
  std::mutex ErrLock;
  Clock::time_point Start = Clock::now();
  auto client = [&](unsigned C) {
    PhaseStats &P = PerClient[C];
    SplitMix Rng(Seed * 0x100 + C + 1);
    uint32_t Thread = support::traceThreadId();
    std::optional<Clock::time_point> Prev;
    while (!Stop.load(std::memory_order_relaxed)) {
      size_t I = Rng.below(S.Warm.size());
      service::ServiceRequest Req = toServiceRequest(S.Warm[I]);
      Clock::time_point T0 = Clock::now();
      ErrorOr<service::ServiceResult> R = S.Service->process(std::move(Req));
      Clock::time_point T1 = Clock::now();
      ++P.Attempted;
      if (Log && Prev)
        P.LateMs.push_back(msSince(*Prev, T0));
      Prev = T1;
      P.WallS = msSince(Start, T1) / 1000.0;
      bool Ok = R && R->CacheHit && S.Expected[I] &&
                sameAnswer(*R, *S.Expected[I]);
      if (R) {
        P.complete(msSince(Start, T0) / 1000.0, msSince(T0, T1), Ok, SloMs,
                   *R, Log != nullptr);
        if (Log && ClientSpans[C].size() < 3 * MaxTracedRequestsPerThread)
          addRequestSpans(ClientSpans[C], Log->usAt(T0), *R, Thread);
      }
      if (!Ok) {
        std::lock_guard<std::mutex> Guard(ErrLock);
        ++Out.Failed;
        Out.fail(R ? "warm request was not served the cached kernel"
                   : "warm request failed: " + R.error().render());
      }
    }
  };
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < WarmClients; ++C)
    Clients.emplace_back(client, C);
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
  Stop.store(true);
  for (std::thread &T : Clients)
    T.join();

  PhaseStats P;
  for (unsigned C = 0; C < WarmClients; ++C) {
    P.merge(PerClient[C]);
    if (Log)
      Log->append(std::move(ClientSpans[C]));
  }
  Out.Attempted += P.Attempted;
  return P;
}

//===-- mixed_open --------------------------------------------------------===//

struct Submitted {
  std::shared_ptr<service::PendingRequest> Handle;
  size_t Arrival = 0;
  double LateMs = 0.0;
  double SubmitUs = 0.0;
};

PhaseStats runOpenLoop(ServiceSetup &S, const OpenLoopSchedule &Schedule,
                       const std::vector<service::ServiceRequest> &Requests,
                       double SloMs, RunResult &Out, SpanLog *Log) {
  PhaseStats P;
  std::mutex Lock;
  std::condition_variable Cv;
  std::deque<Submitted> Pending;
  bool Finished = false;
  std::vector<Span> Spans;
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(2);

  // The collector waits for each request in submission order; latency
  // comes from the service's own submit-to-completion time, so a slow
  // request never delays how the ones behind it are timed.
  std::thread Collector([&] {
    uint32_t Thread = support::traceThreadId();
    while (true) {
      Submitted Next;
      {
        std::unique_lock<std::mutex> Guard(Lock);
        Cv.wait(Guard, [&] { return Finished || !Pending.empty(); });
        if (Pending.empty())
          return;
        Next = std::move(Pending.front());
        Pending.pop_front();
      }
      ErrorOr<service::ServiceResult> R = S.Service->wait(Next.Handle);
      const Arrival &A = Schedule.Arrivals[Next.Arrival];
      std::lock_guard<std::mutex> Guard(Lock);
      bool Ok = false;
      if (R) {
        std::optional<service::ServiceResult> &Want = S.Expected[A.Input];
        if (!Want && A.Kind != ArrivalKind::Hit)
          Want = *R;
        Ok = Want && sameAnswer(*R, *Want);
        double LatMs = Next.LateMs + R->TotalMs;
        P.complete(A.DueMs / 1000.0, LatMs, Ok, SloMs, *R, Log != nullptr);
        P.WallS = std::max(P.WallS, (A.DueMs + LatMs) / 1000.0);
        if (Log && Spans.size() < 3 * MaxTracedRequestsPerThread)
          addRequestSpans(Spans, Next.SubmitUs, *R, Thread);
      }
      if (!Ok) {
        ++Out.Failed;
        Out.fail(R ? "request was served a kernel different from the first "
                     "answer for its signature"
                   : "request failed: " + R.error().render());
      }
    }
  });

  for (size_t I = 0; I < Schedule.Arrivals.size(); ++I) {
    const Arrival &A = Schedule.Arrivals[I];
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(A.DueMs));
    // Sleep until shortly before the due time, then spin: a timer wake-up
    // can be late by tens of microseconds.
    if (Due - Clock::now() > SpinWindow)
      std::this_thread::sleep_until(Due - SpinWindow);
    Clock::time_point Now = Clock::now();
    while (Now < Due)
      Now = Clock::now();
    double LateMs = msSince(Due, Now);
    ErrorOr<std::shared_ptr<service::PendingRequest>> Handle =
        S.Service->submit(Requests[I]);
    std::lock_guard<std::mutex> Guard(Lock);
    P.LateMs.push_back(LateMs);
    P.LateByWindow.add(A.DueMs / 1000.0, LateMs);
    ++P.Attempted;
    if (!Handle) {
      ++Out.Failed;
      Out.fail("request shed: " + Handle.error().render());
      continue;
    }
    Pending.push_back(Submitted{std::move(*Handle), I, LateMs,
                                Log ? Log->usAt(Now) : 0.0});
    Cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> Guard(Lock);
    Finished = true;
  }
  Cv.notify_one();
  Collector.join();
  Out.Attempted += P.Attempted;
  if (Log)
    Log->append(std::move(Spans));
  return P;
}

void addLayerMetrics(const ServiceSetup &S, const PhaseStats &Traced,
                     double TraceOverheadFrac, RunResult &Out) {
  addServiceMetrics({S.Service.get()}, Traced.QueueMs, Traced.ExecMs,
                    Traced.Coalesced, Out);
  Out.set("support.trace_overhead_frac", TraceOverheadFrac, "fraction");
  Out.set("loadgen.late_ms_p99", percentile(Traced.LateMs, 99.0).Value, "ms",
          Traced.LateMs.size());
}

std::vector<DistinctInput> distinctInputs(const std::vector<Request> &In) {
  std::vector<DistinctInput> Out;
  gpu::DeviceSpec V100 = gpu::makeV100();
  for (const Request &R : In) {
    ErrorOr<ir::Contraction> TC = ir::Contraction::parse(R.Spec, R.Dims);
    if (TC)
      Out.push_back(DistinctInput{*TC, V100, 1});
  }
  return Out;
}

} // namespace

RunResult perfbench::runWarmHits(const RunArgs &Args) {
  RunResult Out;
  // The clients and the workers (started below, so they inherit the set)
  // share WarmCpus CPUs. Each of the four threads mostly waits for another,
  // so the CPUs stay busy and a wake-up does not wait for the host to
  // resume an idle virtual CPU: unpinned, that wait cut throughput up to 3x
  // for minutes at a time on a loaded host.
  CpuPin Pin(WarmCpus);
  ServiceSetup S;
  std::vector<double> SetupS;
  for (size_t Rep = 0; Rep < SetupRepetitions; ++Rep) {
    Clock::time_point T0 = Clock::now();
    prewarm(S, cappedSuite(WarmCap).size(), Out);
    SetupS.push_back(msSince(T0, Clock::now()) / 1000.0);
  }
  Out.Record["setup_first_s"] =
      std::to_string(msSince(Args.MainStart, Clock::now()) / 1000.0);
  Out.Record["clients"] = std::to_string(WarmClients);
  Out.Record["cpus"] = std::to_string(Pin.cpus());
  Out.Record["workers"] = std::to_string(Workers);
  Out.Record["distinct_inputs"] = std::to_string(S.Warm.size());

  PhaseStats Main =
      runClosedLoop(S, Args.Seed, Args.Seconds, Args.SloMs, Out, nullptr);
  checkServedKernels(S, S.Warm, Args.Seed, Main.Completed / S.Warm.size() + 1,
                     Out);
  addEndToEnd(Main, Args.Seconds, /*OpenLoop=*/false, median(SetupS), Out);
  Out.set("peak_rss_mb", peakRssMb(), "MiB");
  if (!Args.Trace)
    return Out;

  double OpsPerS = Out.Metrics["ops_per_s"].Value;
  SpanLog Log;
  PhaseStats Traced;
  {
    TracedWindow Window(Log);
    support::ScopedTraceActivation Active(&Window.Session);
    Traced = runClosedLoop(S, Args.Seed + 1,
                           std::min(Args.Seconds, MaxTracedSeconds), Args.SloMs,
                           Out, &Log);
    Window.addSpansTo(Log);
  }
  linkByContainment(Log.spans());
  addSpanMetrics(Log, Traced.Completed, Out);
  double TracedS = std::min(Args.Seconds, MaxTracedSeconds);
  addLayerMetrics(
      S, Traced, 1.0 - Traced.Lat.summarize(TracedS).FastOpsPerS / OpsPerS,
      Out);
  probeLayers(distinctInputs(S.Warm), Out);
  if (!writeTrace(Log, Args.TracePath))
    Out.fail("could not write a well-formed Chrome trace");
  return Out;
}

RunResult perfbench::runMixedOpen(const RunArgs &Args) {
  RunResult Out;
  if (Args.RatePerS <= 0.0 || Args.LateBoundMs <= 0.0) {
    Out.fail("mixed_open needs a positive --rate and --late-bound-ms");
    return Out;
  }
  OpenLoopMix Mix;
  Mix.RatePerS = Args.RatePerS;
  Mix.Seconds = Args.Seconds;
  Mix.BlockSize = BlockSize;
  Mix.MissesPerBlock = MissesPerBlock;
  Mix.DuplicateEvery = DuplicateEvery;
  Mix.MinExtent = MissMinExtent;
  Mix.MaxExtent = MissMaxExtent;

  ServiceSetup S;
  OpenLoopSchedule Schedule;
  std::vector<service::ServiceRequest> Requests;
  std::vector<double> SetupS;
  for (size_t Rep = 0; Rep < SetupRepetitions; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Schedule = buildOpenLoopSchedule(cappedSuite(WarmCap), Mix, Args.Seed);
    Requests.clear();
    for (const Arrival &A : Schedule.Arrivals)
      Requests.push_back(toServiceRequest(Schedule.Inputs[A.Input]));
    prewarm(S, Schedule.Inputs.size(), Out);
    SetupS.push_back(msSince(T0, Clock::now()) / 1000.0);
  }
  size_t Misses = 0, Duplicates = 0;
  for (const Arrival &A : Schedule.Arrivals) {
    Misses += A.Kind == ArrivalKind::Miss;
    Duplicates += A.Kind == ArrivalKind::Duplicate;
  }
  Out.Record["setup_first_s"] =
      std::to_string(msSince(Args.MainStart, Clock::now()) / 1000.0);
  Out.Record["generator_threads"] = "1";
  Out.Record["workers"] = std::to_string(Workers);
  Out.Record["rate_per_s"] = std::to_string(Args.RatePerS);
  Out.Record["arrivals"] = std::to_string(Schedule.Arrivals.size());
  Out.Record["misses"] = std::to_string(Misses);
  Out.Record["duplicates"] = std::to_string(Duplicates);

  // A window in which the generator fell behind its schedule measured the
  // host, not the service, and is left out of the timings. A phase in which
  // that holds for more than half of the windows is discarded and run again
  // on a freshly warmed service (so that its misses are misses again); the
  // run is invalid only when every attempt is.
  constexpr size_t MaxAttempts = 3;
  PhaseStats Main;
  std::vector<bool> LateWindows;
  size_t NumLate = 0;
  for (size_t Attempt = 1;; ++Attempt) {
    Main = runOpenLoop(S, Schedule, Requests, Args.SloMs, Out, nullptr);
    LateWindows.clear();
    for (double L : Main.LateByWindow.windowPercentiles(Args.Seconds, 99.0))
      LateWindows.push_back(L > Args.LateBoundMs);
    NumLate = static_cast<size_t>(
        std::count(LateWindows.begin(), LateWindows.end(), true));
    Out.Record["phases_discarded"] = std::to_string(Attempt - 1);
    if (2 * NumLate <= LateWindows.size() || Attempt == MaxAttempts)
      break;
    prewarm(S, Schedule.Inputs.size(), Out);
  }
  Out.Record["loadgen_late_ms_p50"] =
      std::to_string(percentile(Main.LateMs, 50.0).Value);
  Out.Record["loadgen_late_ms_p99"] =
      std::to_string(percentile(Main.LateMs, 99.0).Value);
  Out.Record["late_windows"] = std::to_string(NumLate);
  if (2 * NumLate > LateWindows.size()) {
    Out.Invalid = true;
    Out.InvalidReason = "generator lateness p99 exceeded the bound " +
                        std::to_string(Args.LateBoundMs) + " ms in " +
                        std::to_string(NumLate) + " of " +
                        std::to_string(LateWindows.size()) + " windows";
  }
  Out.Record["worker_busy_frac"] =
      std::to_string(Main.BusyMs / (1000.0 * Main.WallS * Workers));
  checkServedKernels(S, Schedule.Inputs, Args.Seed,
                     Main.Completed / Schedule.Inputs.size() + 1, Out);
  addEndToEnd(Main, Args.Seconds, /*OpenLoop=*/true, median(SetupS), Out,
              LateWindows);
  Out.set("peak_rss_mb", peakRssMb(), "MiB");
  if (!Args.Trace)
    return Out;

  // Traced phase: a fresh schedule (next seed) over the same warm cache.
  // The schedule fixes the request rate, so the tracing overhead is the
  // growth of worker time per executed request.
  auto busyPerRequest = [](const PhaseStats &P) {
    return P.BusyMs / static_cast<double>(std::max<uint64_t>(P.Executed, 1));
  };
  Mix.Seconds = std::min(Args.Seconds, MaxTracedSeconds);
  OpenLoopSchedule TracedSchedule =
      buildOpenLoopSchedule(cappedSuite(WarmCap), Mix, Args.Seed + 1);
  std::vector<service::ServiceRequest> TracedRequests;
  for (const Arrival &A : TracedSchedule.Arrivals)
    TracedRequests.push_back(toServiceRequest(TracedSchedule.Inputs[A.Input]));
  S.Expected.resize(std::max(S.Expected.size(), TracedSchedule.Inputs.size()));
  for (size_t I = S.Warm.size(); I < S.Expected.size(); ++I)
    S.Expected[I].reset();
  SpanLog Log;
  PhaseStats Traced;
  {
    TracedWindow Window(Log);
    support::ScopedTraceActivation Active(&Window.Session);
    Traced = runOpenLoop(S, TracedSchedule, TracedRequests, Args.SloMs, Out,
                         &Log);
    Window.addSpansTo(Log);
  }
  linkByContainment(Log.spans());
  addSpanMetrics(Log, Traced.Completed, Out);
  addLayerMetrics(S, Traced, 1.0 - busyPerRequest(Main) / busyPerRequest(Traced),
                  Out);
  probeLayers(distinctInputs(Schedule.Inputs), Out);
  if (!writeTrace(Log, Args.TracePath))
    Out.fail("could not write a well-formed Chrome trace");
  return Out;
}
