//===- perfbench/src/LayerProbe.cpp - Per-call costs of each layer ---------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers that are measured from outside: the
/// benchmark calls each layer's public functions itself, on every distinct
/// input of the workload, and reports the cost per call together with the
/// counts the calls return.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/KernelDataflow.h"
#include "analysis/KernelLint.h"
#include "analysis/KernelModel.h"
#include "analysis/KernelRaceProver.h"
#include "core/KernelRepository.h"
#include "service/GenerationService.h"
#include "verify/PlanVerifier.h"

#include <algorithm>
#include <memory>

using namespace perfbench;
using namespace cogent;

namespace {

constexpr unsigned ElementSize = 8;

/// Accumulated time and calls of one function.
struct CallCost {
  double Us = 0.0;
  double Calls = 0.0;
  void add(Clock::time_point T0, Clock::time_point T1, double N = 1.0) {
    Us += msSince(T0, T1) * 1000.0;
    Calls += N;
  }
  double perCallUs() const { return Calls > 0 ? Us / Calls : 0.0; }
};

/// Times \p Fn over \p Reps back-to-back calls (for calls too short to time
/// one at a time).
template <typename F> void timeReps(CallCost &Cost, unsigned Reps, F &&Fn) {
  Clock::time_point T0 = Clock::now();
  for (unsigned I = 0; I < Reps; ++I)
    Fn();
  Cost.add(T0, Clock::now(), Reps);
}

Extents extentsOf(const ir::Contraction &TC) {
  Extents Out;
  for (char Name : TC.allIndices())
    Out.emplace_back(Name, TC.extent(Name));
  return Out;
}

service::ServiceRequest requestFor(const ir::Contraction &TC) {
  service::ServiceRequest R;
  R.Spec = TC.toString();
  R.Extents = extentsOf(TC);
  return R;
}

} // namespace

void perfbench::probeLayers(const std::vector<DistinctInput> &Inputs,
                            RunResult &Out) {
  CallCost Parse, Enumerate, Plan, VerifyPlan, Cost, VerifyCost, Occupancy,
      Emit, VerifySource, ModelParse, Dataflow, Race, Lint, Perf, RepoHit;
  double Raw = 0, Survivors = 0, EmitBytes = 0, RacePairs = 0;
  double Gens = 0, Ranked = 0, Emitted = 0, VerifierRejections = 0,
         LintRejections = 0, Linted = 0;

  for (const DistinctInput &In : Inputs) {
    const ir::Contraction &TC = In.TC;
    const gpu::DeviceSpec &Device = In.Device;
    std::string Spec = TC.toString();
    Extents Dims = extentsOf(TC);
    timeReps(Parse, 50, [&] { (void)ir::Contraction::parse(Spec, Dims); });

    core::EnumerationOptions EnumOpts;
    EnumOpts.ElementSize = ElementSize;
    core::Enumerator Enum(TC, Device, EnumOpts);
    core::EnumerationStats Stats;
    Clock::time_point T0 = Clock::now();
    std::vector<core::KernelConfig> Configs = Enum.enumerate(&Stats);
    Enumerate.add(T0, Clock::now());
    Raw += static_cast<double>(Stats.RawConfigs);
    Survivors += static_cast<double>(Stats.Survivors);

    // Per-candidate work of the rank phase, one loop per function.
    std::vector<core::KernelPlan> Plans;
    Plans.reserve(Configs.size());
    T0 = Clock::now();
    for (const core::KernelConfig &C : Configs)
      Plans.emplace_back(TC, C);
    Plan.add(T0, Clock::now(), static_cast<double>(Plans.size()));
    verify::PlanVerifier Verifier(Device, ElementSize);
    T0 = Clock::now();
    for (const core::KernelPlan &P : Plans)
      (void)Verifier.verifyPlan(P);
    VerifyPlan.add(T0, Clock::now(), static_cast<double>(Plans.size()));
    std::vector<core::TransactionCost> Costs;
    Costs.reserve(Plans.size());
    T0 = Clock::now();
    for (const core::KernelPlan &P : Plans)
      Costs.push_back(core::estimateTransactions(P, ElementSize,
                                                 Device.TransactionBytes));
    Cost.add(T0, Clock::now(), static_cast<double>(Plans.size()));
    T0 = Clock::now();
    for (size_t I = 0; I < Plans.size(); ++I)
      (void)Verifier.verifyCost(Plans[I], Costs[I]);
    VerifyCost.add(T0, Clock::now(), static_cast<double>(Plans.size()));
    T0 = Clock::now();
    for (const core::KernelPlan &P : Plans)
      (void)core::planOccupancy(P, Device, ElementSize);
    Occupancy.add(T0, Clock::now(), static_cast<double>(Plans.size()));
    Plans.clear();

    // One generation with the workload's options: the kernels it selects
    // feed the emit/analysis probes, its counts the per-generation ratios.
    core::Cogent Generator(Device);
    core::CogentOptions Options;
    Options.TopK = In.TopK;
    ErrorOr<core::GenerationResult> R = Generator.generate(TC, Options);
    if (!R) {
      Out.fail("probe generation failed: " + R.error().render());
      continue;
    }
    Gens += 1;
    Emitted += static_cast<double>(R->Kernels.size());
    VerifierRejections += static_cast<double>(R->VerifierRejections);
    LintRejections += static_cast<double>(R->LintRejections);
    for (const support::CounterValue &C : R->Counters) {
      std::string Name = C.Name;
      if (Name == "cogent.kernels-ranked")
        Ranked += static_cast<double>(C.Value);
      else if (Name == "lint.kernels-linted")
        Linted += static_cast<double>(C.Value);
    }

    const ir::Contraction &Target =
        R->FallbackContraction ? *R->FallbackContraction : TC;
    analysis::LintOptions LintOpts;
    LintOpts.ElementSize = ElementSize;
    LintOpts.TransactionBytes = Device.TransactionBytes;
    LintOpts.RegisterBudget = Device.MaxRegistersPerThread;
    gpu::Calibration Calib = gpu::makeCalibration(Device);
    for (const core::GeneratedKernel &K : R->Kernels) {
      core::KernelPlan P(Target, K.Config);
      core::CodeGenOptions CG;
      T0 = Clock::now();
      core::GeneratedSource Source = core::emitCuda(P, CG);
      Emit.add(T0, Clock::now());
      EmitBytes += static_cast<double>(Source.KernelSource.size() +
                                       Source.DriverSource.size());
      T0 = Clock::now();
      (void)Verifier.verifySource(Source);
      VerifySource.add(T0, Clock::now());
      T0 = Clock::now();
      ErrorOr<analysis::KernelModel> Model =
          analysis::parseKernelSource(Source.KernelSource);
      ModelParse.add(T0, Clock::now());
      if (!Model) {
        Out.fail("emitted kernel does not parse: " + Model.error().render());
        continue;
      }
      T0 = Clock::now();
      ErrorOr<analysis::DataflowInfo> Flow = analysis::buildDataflow(*Model);
      Dataflow.add(T0, Clock::now());
      if (!Flow) {
        Out.fail("dataflow failed: " + Flow.error().render());
        continue;
      }
      T0 = Clock::now();
      analysis::RaceReport Races = analysis::proveRaces(P, *Model, *Flow);
      Race.add(T0, Clock::now());
      RacePairs += Races.PairsChecked;
      T0 = Clock::now();
      (void)analysis::lintKernel(P, Source.KernelSource, LintOpts);
      Lint.add(T0, Clock::now());
      gpu::KernelProfile Profile = core::makeKernelProfile(P, Device,
                                                           ElementSize);
      timeReps(Perf, 200, [&] {
        (void)gpu::estimateKernelTime(Device, Calib, Profile);
      });
    }
  }

  // lookupOrGenerate on a hit: fill one repository per device, then look
  // every input up again.
  std::vector<std::unique_ptr<core::Cogent>> Generators;
  std::vector<std::unique_ptr<core::ShardedKernelRepository>> Repos;
  std::vector<std::string> DeviceNames;
  auto repoFor = [&](const gpu::DeviceSpec &D) -> core::ShardedKernelRepository & {
    for (size_t I = 0; I < DeviceNames.size(); ++I)
      if (DeviceNames[I] == D.Name)
        return *Repos[I];
    DeviceNames.push_back(D.Name);
    Generators.push_back(std::make_unique<core::Cogent>(D));
    Repos.push_back(
        std::make_unique<core::ShardedKernelRepository>(*Generators.back()));
    return *Repos.back();
  };
  std::vector<Extents> AllDims;
  for (const DistinctInput &In : Inputs) {
    AllDims.push_back(extentsOf(In.TC));
    (void)repoFor(In.Device).lookupOrGenerate(In.TC.toString(),
                                              AllDims.back());
  }
  for (size_t I = 0; I < Inputs.size(); ++I) {
    core::ShardedKernelRepository &Repo = repoFor(Inputs[I].Device);
    std::string Spec = Inputs[I].TC.toString();
    timeReps(RepoHit, 20, [&] {
      ErrorOr<core::ShardedKernelRepository::Lookup> L =
          Repo.lookupOrGenerate(Spec, AllDims[I]);
      if (!L || !L->CacheHit)
        Out.fail("repository lookup of a cached signature missed");
    });
  }

  Out.set("ir.parse_us", Parse.perCallUs(), "us");
  Out.set("core.enumerate_ms", Enumerate.perCallUs() / 1000.0, "ms");
  Out.set("core.enumerate_raw", Raw / Enumerate.Calls, "per_call");
  Out.set("core.enumerate_survivors", Survivors / Enumerate.Calls,
          "per_call");
  Out.set("core.enumerate_keep_ratio", Raw > 0 ? Survivors / Raw : 0.0,
          "fraction");
  Out.set("core.plan_us", Plan.perCallUs(), "us");
  Out.set("verify.plan_us", VerifyPlan.perCallUs(), "us");
  Out.set("verify.cost_us", VerifyCost.perCallUs(), "us");
  Out.set("verify.source_us", VerifySource.perCallUs(), "us");
  Out.set("core.cost_ns", Cost.perCallUs() * 1000.0, "ns");
  Out.set("core.occupancy_ns", Occupancy.perCallUs() * 1000.0, "ns");
  Out.set("core.emit_us", Emit.perCallUs(), "us");
  Out.set("core.emit_bytes", Emit.Calls > 0 ? EmitBytes / Emit.Calls : 0.0,
          "bytes");
  Out.set("analysis.kmodel_parse_us", ModelParse.perCallUs(), "us");
  Out.set("analysis.dataflow_us", Dataflow.perCallUs(), "us");
  Out.set("analysis.race_us", Race.perCallUs(), "us");
  Out.set("analysis.race_pairs", Race.Calls > 0 ? RacePairs / Race.Calls : 0.0,
          "per_call");
  Out.set("analysis.lint_ms", Lint.perCallUs() / 1000.0, "ms");
  Out.set("gpu.perf_us", Perf.perCallUs(), "us");
  Out.set("core.repo_hit_us", RepoHit.perCallUs(), "us");
  if (Gens > 0) {
    Out.set("core.plans_per_gen", (Ranked + Emitted) / Gens, "per_gen");
    Out.set("core.rank_useful_ratio", Ranked > 0 ? Emitted / Ranked : 0.0,
            "fraction");
    Out.set("verify.rejections", VerifierRejections / Gens, "per_gen");
    Out.set("analysis.lint_kernels_per_gen", Linted / Gens, "per_gen");
    Out.set("analysis.lint_rejections", LintRejections / Gens, "per_gen");
  }
}

void perfbench::addServiceMetrics(
    const std::vector<const service::GenerationService *> &Services,
    const std::vector<double> &QueueMs, const std::vector<double> &ExecMs,
    uint64_t Coalesced, RunResult &Out) {
  Percentile Q50 = percentile(QueueMs, 50.0);
  Percentile Q99 = percentile(QueueMs, 99.0);
  Percentile E50 = percentile(ExecMs, 50.0);
  Out.set("service.queue_ms_p50", Q50.Value, "ms", Q50.Samples);
  Out.set("service.queue_ms_p99", Q99.Value, "ms", Q99.Samples);
  Out.set("service.exec_ms_p50", E50.Value, "ms", E50.Samples);
  Out.set("service.coalesced_frac",
          QueueMs.empty() ? 0.0
                          : static_cast<double>(Coalesced) /
                                static_cast<double>(QueueMs.size()),
          "fraction");
  double Shed = 0.0, Retries = 0.0, Hits = 0.0, Misses = 0.0;
  CallCost Snapshot;
  for (const service::GenerationService *Service : Services) {
    service::ServiceStats Stats = Service->stats();
    Shed += static_cast<double>(Stats.ShedQueueFull + Stats.ShedOverloaded +
                                Stats.ShedExpired);
    Retries += static_cast<double>(Stats.Retries);
    Hits += static_cast<double>(Service->repository().hits());
    Misses += static_cast<double>(Service->repository().misses());
    timeReps(Snapshot, 20, [&] { (void)Service->telemetrySnapshot(); });
  }
  Out.set("service.shed", Shed, "count");
  Out.set("service.retries", Retries, "count");
  Out.set("service.snapshot_ms", Snapshot.perCallUs() / 1000.0, "ms");
  Out.set("core.repo_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses)
                                                   : 0.0,
          "fraction");
  Out.set("core.repo_misses", Misses, "count");
}

void perfbench::probeService(const std::vector<DistinctInput> &Inputs,
                             size_t TopK, RunResult &Out) {
  // One closed-loop round of misses, then enough rounds of hits for a
  // queue-wait p99 with ten samples beyond it; one service per device,
  // served in turn.
  const size_t HitRounds =
      (samplesNeededFor(99.0) + Inputs.size() - 1) / Inputs.size();
  std::vector<double> QueueMs, ExecMs;
  uint64_t Coalesced = 0;
  std::vector<std::string> Done;
  std::vector<std::unique_ptr<service::GenerationService>> Services;
  for (const DistinctInput &First : Inputs) {
    if (std::find(Done.begin(), Done.end(), First.Device.Name) != Done.end())
      continue;
    Done.push_back(First.Device.Name);
    service::ServiceOptions Options;
    Options.NumWorkers = 2;
    Options.QueueCapacity = 1 << 14;
    Options.MaxOutstanding = 1 << 14;
    Options.Generation.TopK = TopK;
    auto Service =
        std::make_unique<service::GenerationService>(First.Device, Options);
    std::vector<service::ServiceRequest> Batch;
    for (const DistinctInput &In : Inputs)
      if (In.Device.Name == First.Device.Name)
        Batch.push_back(requestFor(In.TC));
    for (size_t Round = 0; Round <= HitRounds; ++Round)
      for (const service::ServiceRequest &Req : Batch) {
        ErrorOr<service::ServiceResult> R = Service->process(Req);
        if (!R) {
          Out.fail("probe service request failed: " + R.error().render());
          continue;
        }
        QueueMs.push_back(R->QueueMs);
        ExecMs.push_back(R->TotalMs - R->QueueMs);
        Coalesced += R->Coalesced;
      }
    Services.push_back(std::move(Service));
  }
  std::vector<const service::GenerationService *> All;
  for (const auto &Service : Services)
    All.push_back(Service.get());
  addServiceMetrics(All, QueueMs, ExecMs, Coalesced, Out);
}
