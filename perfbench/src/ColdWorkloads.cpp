//===- perfbench/src/ColdWorkloads.cpp - cold_top1 / cold_top8 -------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One thread, closed loop: Cogent::generate() with default options (strict
/// lint) and the workload's TopK on all 48 TCCG entries at suite extents on
/// P100 and V100, in a seeded shuffled order, repeated in whole passes
/// until the run has both lasted --seconds and made 16 passes. Each pass
/// runs on the next CPU in turn, and the timings are scored at each
/// input's floor (see summarizeFloors).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "suite/TccgSuite.h"
#include "support/Trace.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace perfbench;
using namespace cogent;

namespace {

struct ColdInput {
  ir::Contraction TC;
  size_t Device = 0;
};

struct ColdSetup {
  std::vector<gpu::DeviceSpec> Devices;
  std::vector<core::Cogent> Generators;
  std::vector<ColdInput> Inputs;
};

/// Set-ups per run, each on the next CPU in turn; setup_s is their median.
constexpr size_t SetupRepetitions = 16;
/// Fewest timed passes: each input's floor is its lowest latency over
/// them, four per CPU on a 4-CPU host. 16 passes of the 96 inputs also
/// leave more than ten generations beyond the p99.
constexpr size_t MinPasses = 16;

ColdSetup makeSetup(uint64_t Seed) {
  ColdSetup S;
  S.Devices = {gpu::makeP100(), gpu::makeV100()};
  for (const gpu::DeviceSpec &D : S.Devices)
    S.Generators.emplace_back(D);
  for (size_t D = 0; D < S.Devices.size(); ++D)
    for (const suite::SuiteEntry &Entry : suite::tccgSuite())
      S.Inputs.push_back(ColdInput{Entry.contraction(), D});
  SplitMix Rng(Seed);
  shuffle(S.Inputs, Rng);
  return S;
}

/// What one input selected the first time it was generated; every later
/// generation of it must select the same kernels.
struct Selection {
  std::vector<core::GeneratedKernel> Kernels;
  const ir::Contraction *Target = nullptr;
  std::optional<ir::Contraction> Fallback;
};

bool sameKernels(const std::vector<core::GeneratedKernel> &X,
                 const std::vector<core::GeneratedKernel> &Y) {
  if (X.size() != Y.size())
    return false;
  for (size_t I = 0; I < X.size(); ++I)
    if (X[I].Config.toString() != Y[I].Config.toString() ||
        X[I].Source.KernelSource != Y[I].Source.KernelSource ||
        X[I].Predicted.Gflops != Y[I].Predicted.Gflops)
      return false;
  return true;
}

struct LoopStats {
  /// Latency of input I in pass P at [P][I].
  std::vector<std::vector<double>> LatByPass;
  /// Generations per second of each whole pass.
  std::vector<double> PassOpsPerS;
  /// Benchmark bookkeeping between one generation's end and the next's
  /// start: the closed loop's own lateness.
  std::vector<double> GapMs;
  double WallS = 0.0;
  uint64_t Ops = 0;
};

struct Loop {
  ColdSetup &S;
  core::CogentOptions Options;
  std::vector<Selection> Selected;
  RunResult &Out;

  /// Runs whole passes until at least \p MinSeconds and \p Passes passes,
  /// each on the next CPU of \p Rotation when one is given.
  LoopStats run(double MinSeconds, size_t Passes, CpuRotation *Rotation,
                SpanLog *Log, support::TraceSession *Session) {
    LoopStats L;
    core::CogentOptions Opts = Options;
    Opts.Trace = Session;
    Clock::time_point Start = Clock::now(), LastEnd = Start;
    while (true) {
      if (Rotation)
        Rotation->next();
      Clock::time_point PassStart = Clock::now();
      std::vector<double> &Lat = L.LatByPass.emplace_back();
      for (size_t I = 0; I < S.Inputs.size(); ++I) {
        const ColdInput &In = S.Inputs[I];
        Clock::time_point T0 = Clock::now();
        ErrorOr<core::GenerationResult> R =
            S.Generators[In.Device].generate(In.TC, Opts);
        Clock::time_point T1 = Clock::now();
        if (L.Ops > 0)
          L.GapMs.push_back(msSince(LastEnd, T0));
        LastEnd = T1;
        ++L.Ops;
        Lat.push_back(msSince(T0, T1));
        if (Log)
          Log->add(Span{"op.generate", Log->usAt(T0), Log->usAt(T1),
                        NoParent, L.Ops, support::traceThreadId()});
        record(I, R);
      }
      L.PassOpsPerS.push_back(static_cast<double>(S.Inputs.size()) * 1000.0 /
                              msSince(PassStart, Clock::now()));
      double Elapsed = msSince(Start, Clock::now()) / 1000.0;
      if (Elapsed >= MinSeconds && L.LatByPass.size() >= Passes) {
        L.WallS = Elapsed;
        return L;
      }
    }
  }

  void record(size_t I, ErrorOr<core::GenerationResult> &R) {
    ++Out.Attempted;
    if (!R) {
      ++Out.Failed;
      Out.fail("generate failed: " + R.error().render());
      return;
    }
    Selection &Sel = Selected[I];
    if (Sel.Kernels.empty()) {
      Sel.Kernels = std::move(R->Kernels);
      Sel.Fallback = std::move(R->FallbackContraction);
      Sel.Target = Sel.Fallback ? &*Sel.Fallback : &S.Inputs[I].TC;
      return;
    }
    if (!sameKernels(Sel.Kernels, R->Kernels)) {
      ++Out.Failed;
      Out.fail("generation of " + S.Inputs[I].TC.toStringWithExtents() +
               " selected different kernels on a repeat");
    }
  }
};

} // namespace

RunResult perfbench::runColdWorkload(const RunArgs &Args, size_t TopK) {
  RunResult Out;
  core::CogentOptions Options;
  Options.TopK = TopK;

  std::vector<double> SetupS;
  std::unique_ptr<ColdSetup> Setup;
  std::optional<Loop> L;
  LoopStats Main;
  SpanLog Log;
  double UntracedS = 0.0, TracedS = 0.0;
  uint64_t TracedOps = 0;
  {
    CpuRotation Rotation;
    for (size_t Rep = 0; Rep < SetupRepetitions; ++Rep) {
      Rotation.next();
      Clock::time_point T0 = Clock::now();
      Setup = std::make_unique<ColdSetup>(makeSetup(Args.Seed));
      SetupS.push_back(msSince(T0, Clock::now()) / 1000.0);
    }
    Out.Record["setup_first_s"] =
        std::to_string(msSince(Args.MainStart, Clock::now()) / 1000.0);
    L.emplace(Loop{*Setup, Options, std::vector<Selection>(Setup->Inputs.size()),
                   Out});
    Main = L->run(Args.Seconds, MinPasses, &Rotation, nullptr, nullptr);

    if (Args.Trace) {
      // Traced run: two more pairs of passes, an untraced one next to a
      // traced one on the same CPU, so that the overhead compares like
      // with like. The library's phase spans are recorded under the
      // benchmark's own per-generation spans.
      TracedWindow Window(Log);
      for (int Round = 0; Round < 2; ++Round) {
        Rotation.next();
        UntracedS += L->run(0.0, 1, nullptr, nullptr, nullptr).WallS;
        LoopStats Traced = L->run(0.0, 1, nullptr, &Log, &Window.Session);
        TracedS += Traced.WallS;
        TracedOps += Traced.Ops;
      }
      Window.addSpansTo(Log);
    }
  }
  Out.Record["threads"] = "1";
  Out.Record["cpus_rotated"] = std::to_string(CpuRotation().cpus());
  Out.Record["topk"] = std::to_string(TopK);
  Out.Record["distinct_inputs"] = std::to_string(Setup->Inputs.size());

  // Output check: every distinct selected kernel, simulated at clamped
  // extents against the independent reference.
  std::vector<double> TopGflops;
  uint64_t Checked = 0;
  for (size_t I = 0; I < L->Selected.size(); ++I) {
    const Selection &Sel = L->Selected[I];
    if (Sel.Kernels.empty())
      continue;
    TopGflops.push_back(Sel.Kernels.front().Predicted.Gflops);
    bool InputOk = true;
    for (size_t K = 0; K < Sel.Kernels.size(); ++K) {
      OutputVerdict V = checkKernelOutput(*Sel.Target, Sel.Kernels[K].Config,
                                          Args.Seed + 1000 * I + K);
      ++Checked;
      if (!V.Ok) {
        Out.fail(V.Note);
        InputOk = false;
      }
    }
    // Every timed generation of this input returned the bad kernels.
    if (!InputOk)
      Out.Failed += Main.LatByPass.size();
  }
  Out.Record["kernels_checked"] = std::to_string(Checked);
  std::string Passes;
  for (size_t P = 0; P < Main.PassOpsPerS.size(); ++P)
    Passes += (P ? " " : "") + std::to_string(Main.PassOpsPerS[P]);
  Out.Record["passes_ops_per_s"] = Passes;

  double SloMet = 0;
  for (const std::vector<double> &Pass : Main.LatByPass)
    for (double Ms : Pass)
      SloMet += Ms <= Args.SloMs;
  FloorSummary F = summarizeFloors(Main.LatByPass);
  if (F.P99.Beyond < MinSamplesBeyond)
    Out.fail("too few samples for p99");

  Out.set("setup_s", median(SetupS), "s");
  Out.set("ops_per_s", F.OpsPerS, "1/s");
  Out.set("lat_ms_p50", F.P50.Value, "ms", F.P50.Samples);
  Out.set("lat_ms_p99", F.P99.Value, "ms", F.P99.Samples);
  Out.set("slo_met_frac",
          std::max(0.0, SloMet - static_cast<double>(Out.Failed)) /
              static_cast<double>(Main.Ops),
          "fraction");
  Out.set("gflops_geomean", geomean(TopGflops), "GFLOP/s");
  Out.set("peak_rss_mb", peakRssMb(), "MiB");
  if (!Args.Trace)
    return Out;

  linkByContainment(Log.spans());
  addSpanMetrics(Log, TracedOps, Out);
  Out.set("support.trace_overhead_frac", 1.0 - UntracedS / TracedS,
          "fraction");
  Out.set("loadgen.late_ms_p99", percentile(Main.GapMs, 99.0).Value, "ms",
          Main.GapMs.size());

  // The probes start service workers, which must not inherit a pinned CPU:
  // Rotation has restored the thread's CPU set by now.
  std::vector<DistinctInput> Distinct;
  for (const ColdInput &In : Setup->Inputs)
    Distinct.push_back(DistinctInput{In.TC, Setup->Devices[In.Device], TopK});
  probeLayers(Distinct, Out);
  probeService(Distinct, TopK, Out);
  if (!writeTrace(Log, Args.TracePath))
    Out.fail("could not write a well-formed Chrome trace");
  return Out;
}
