//===- tests/test_enumerator_equivalence.cpp - Factored pruning vs oracle --===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumerator::enumerate prunes the X x Y x TBk product on per-partial
/// summaries and materializes a KernelConfig only for survivors. This test
/// keeps the per-triple formulation as an oracle: every raw configuration
/// built, validated and pruned through KernelConfig's own queries, with
/// performance-pruned configurations kept for relaxation. enumerate() must
/// return the same configurations in the same order, fill the same
/// EnumerationStats and move the enumerator.* counters by the same deltas.
///
//===----------------------------------------------------------------------===//

#include "core/Enumerator.h"
#include "gpu/Occupancy.h"
#include "suite/TccgSuite.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

using namespace cogent;
using core::EnumerationOptions;
using core::EnumerationStats;
using core::Enumerator;
using core::IndexTile;
using core::KernelConfig;
using core::SearchStatus;
using ir::Contraction;
using ir::Operand;

namespace {

//===----------------------------------------------------------------------===//
// The oracle: partial generation and the per-triple prune loop.
//===----------------------------------------------------------------------===//

struct PartialConfig {
  std::vector<IndexTile> TB;
  std::vector<IndexTile> Reg;
};

std::string keyOf(const std::vector<IndexTile> &List) {
  std::string Key;
  std::vector<std::string> Tail;
  for (size_t I = 0; I < List.size(); ++I) {
    std::string Entry = std::string(1, List[I].Name) + ':' +
                        std::to_string(List[I].Tile);
    if (I == 0)
      Key += Entry;
    else
      Tail.push_back(Entry);
  }
  std::sort(Tail.begin(), Tail.end());
  for (const std::string &Entry : Tail)
    Key += "," + Entry;
  return Key;
}

std::vector<IndexTile> fillToward(const Contraction &TC,
                                  const std::vector<char> &Pool,
                                  size_t StartIdx, int64_t Target,
                                  std::vector<IndexTile> Seed,
                                  int64_t Product) {
  for (size_t Step = 0; Step < Pool.size() && Product < Target; ++Step) {
    char Name = Pool[(StartIdx + Step) % Pool.size()];
    int64_t Remaining = Target / Product;
    if (Remaining <= 1)
      break;
    int64_t Tile = std::max<int64_t>(
        1, std::min<int64_t>(TC.extent(Name), Remaining));
    Seed.push_back({Name, Tile});
    Product *= Tile;
  }
  return Seed;
}

std::vector<PartialConfig> enumerateSide(const Contraction &TC, char Forced,
                                         const std::vector<char> &Pool,
                                         const EnumerationOptions &Options) {
  std::vector<PartialConfig> Result;
  std::set<std::string> Seen;
  auto emit = [&](PartialConfig Partial) {
    if (Seen.insert(keyOf(Partial.TB) + "|" + keyOf(Partial.Reg)).second)
      Result.push_back(std::move(Partial));
  };

  std::vector<std::vector<IndexTile>> TBCandidates;
  std::set<std::string> SeenTB;
  auto emitTB = [&](std::vector<IndexTile> TB) {
    if (SeenTB.insert(keyOf(TB)).second)
      TBCandidates.push_back(std::move(TB));
  };
  for (int64_t TBSize : Options.TBSizes) {
    std::vector<IndexTile> Seed;
    int64_t Product = 1;
    if (Forced != 0) {
      int64_t Tile = std::min<int64_t>(TC.extent(Forced), TBSize);
      Seed.push_back({Forced, Tile});
      Product = Tile;
    }
    if (Pool.empty()) {
      emitTB(Seed);
      continue;
    }
    for (size_t StartIdx = 0; StartIdx < Pool.size(); ++StartIdx)
      emitTB(fillToward(TC, Pool, StartIdx, TBSize, Seed, Product));
  }
  if (TBCandidates.empty())
    TBCandidates.push_back({});

  for (const std::vector<IndexTile> &TB : TBCandidates) {
    std::vector<char> Leftover;
    for (char Name : Pool)
      if (std::none_of(TB.begin(), TB.end(),
                       [&](const IndexTile &T) { return T.Name == Name; }))
        Leftover.push_back(Name);
    emit({TB, {}});
    std::set<std::string> SeenReg;
    for (int64_t RegSize : Options.RegSizes)
      for (size_t StartIdx = 0; StartIdx < Leftover.size(); ++StartIdx) {
        std::vector<IndexTile> Reg =
            fillToward(TC, Leftover, StartIdx, RegSize, {}, 1);
        if (!Reg.empty() && SeenReg.insert(keyOf(Reg)).second)
          emit({TB, Reg});
      }
  }
  return Result;
}

std::vector<PartialConfig> enumerateK(const Contraction &TC,
                                      const EnumerationOptions &Options) {
  std::vector<char> Internals = TC.internalIndices();
  std::vector<PartialConfig> Result;
  if (Internals.empty())
    return {PartialConfig()};
  std::set<std::string> Seen;
  auto emit = [&](std::vector<IndexTile> K) {
    if (!K.empty() && Seen.insert(keyOf(K)).second)
      Result.push_back({std::move(K), {}});
  };
  for (int64_t KSize : Options.TBSizes)
    for (size_t StartIdx = 0; StartIdx < Internals.size(); ++StartIdx)
      emit(fillToward(TC, Internals, StartIdx, KSize, {}, 1));

  static const int64_t MixedTiles[] = {1, 4, 8, 16};
  size_t NumIdx = std::min<size_t>(Internals.size(), 4);
  std::vector<size_t> Choice(NumIdx, 0);
  for (;;) {
    std::vector<IndexTile> K;
    int64_t Product = 1;
    for (size_t I = 0; I < NumIdx; ++I) {
      int64_t Tile =
          std::min<int64_t>(MixedTiles[Choice[I]], TC.extent(Internals[I]));
      if (Tile > 1)
        K.push_back({Internals[I], Tile});
      Product *= Tile;
    }
    if (Product <= 256)
      emit(std::move(K));
    size_t Dim = 0;
    for (; Dim < NumIdx; ++Dim) {
      if (++Choice[Dim] < std::size(MixedTiles))
        break;
      Choice[Dim] = 0;
    }
    if (Dim == NumIdx)
      break;
  }
  return Result;
}

struct OracleRun {
  std::vector<KernelConfig> Configs;
  EnumerationStats Stats;
  bool Relaxed = false;
};

/// The per-triple loop: every raw configuration is built, validated and
/// pruned. No deadline (the comparison must be deterministic).
OracleRun oracleEnumerate(const Contraction &TC, const gpu::DeviceSpec &Device,
                          EnumerationOptions Options) {
  if (Options.MinThreadBlocks == 0)
    Options.MinThreadBlocks = 2 * static_cast<int64_t>(Device.NumSMs);
  char OutFvi = TC.fvi(Operand::C);
  Operand XInput = TC.inputContaining(OutFvi);
  Operand YInput = XInput == Operand::A ? Operand::B : Operand::A;
  auto externalPool = [&](Operand Input, char Exclude) {
    std::vector<char> Pool;
    for (char Name : TC.indices(Input))
      if (TC.isExternal(Name) && Name != Exclude)
        Pool.push_back(Name);
    return Pool;
  };
  std::vector<PartialConfig> XPartials =
      enumerateSide(TC, OutFvi, externalPool(XInput, OutFvi), Options);
  std::vector<PartialConfig> YPartials =
      enumerateSide(TC, 0, externalPool(YInput, 0), Options);
  std::vector<PartialConfig> KPartials = enumerateK(TC, Options);

  OracleRun Run;
  EnumerationStats &Local = Run.Stats;
  Local.RawConfigs = static_cast<uint64_t>(XPartials.size()) *
                     YPartials.size() * KPartials.size();

  auto listContains = [](const std::vector<IndexTile> &List, char Name) {
    return std::any_of(List.begin(), List.end(),
                       [&](const IndexTile &T) { return T.Name == Name; });
  };
  auto passesFvi = [&](const KernelConfig &Config) {
    auto covers = [&](char Fvi, const std::vector<IndexTile> &TBList) {
      if (TC.extent(Fvi) == 1)
        return true;
      if (TC.isInternal(Fvi))
        return listContains(Config.TBk, Fvi);
      return listContains(TBList, Fvi) || Config.tileOf(Fvi) > 1;
    };
    return covers(TC.fvi(XInput), Config.TBx) &&
           covers(TC.fvi(YInput), Config.TBy);
  };

  std::vector<KernelConfig> PerfPrunedOnly;
  for (const PartialConfig &X : XPartials)
    for (const PartialConfig &Y : YPartials)
      for (const PartialConfig &K : KPartials) {
        if (Options.MaxConfigs != 0 && Local.Examined >= Options.MaxConfigs) {
          Local.Status = SearchStatus::ConfigCapHit;
          goto searchDone;
        }
        ++Local.Examined;
        KernelConfig Config;
        Config.XInput = XInput;
        Config.TBx = X.TB;
        Config.RegX = X.Reg;
        Config.TBy = Y.TB;
        Config.RegY = Y.Reg;
        Config.TBk = K.TB;
        if (!Config.validate(TC).empty()) {
          ++Local.InvalidConfigs;
          continue;
        }
        int64_t Threads = Config.threadsPerBlock();
        int64_t Smem = Config.smemBytes(Options.ElementSize);
        unsigned Regs = Config.registersPerThread(Options.ElementSize);
        if (Threads > Device.MaxThreadsPerBlock ||
            Smem > static_cast<int64_t>(Device.SharedMemPerBlock) ||
            Regs > Device.MaxRegistersPerThread) {
          ++Local.HardwarePruned;
          continue;
        }
        bool PerfOk = true;
        if (Options.EnforceFviConstraints && !passesFvi(Config))
          PerfOk = false;
        if (PerfOk && Options.EnforceMinBlocks &&
            Config.numThreadBlocks(TC) < Options.MinThreadBlocks)
          PerfOk = false;
        if (PerfOk && Options.MinOccupancy > 0.0) {
          gpu::BlockResources Block;
          Block.ThreadsPerBlock = static_cast<unsigned>(Threads);
          Block.SharedMemBytes = static_cast<unsigned>(Smem);
          Block.RegistersPerThread = Regs;
          if (gpu::computeOccupancy(Device, Block).Occupancy <
              Options.MinOccupancy)
            PerfOk = false;
        }
        if (!PerfOk) {
          ++Local.PerformancePruned;
          PerfPrunedOnly.push_back(std::move(Config));
          continue;
        }
        Run.Configs.push_back(std::move(Config));
      }
searchDone:
  Local.Survivors = Run.Configs.size();
  if (Run.Configs.empty() && Options.RelaxWhenEmpty &&
      !PerfPrunedOnly.empty()) {
    Run.Relaxed = true;
    Run.Configs = std::move(PerfPrunedOnly);
  }
  return Run;
}

//===----------------------------------------------------------------------===//
// The comparison.
//===----------------------------------------------------------------------===//

std::map<std::string, uint64_t> enumeratorCounters(
    const support::CounterSnapshot &Snapshot) {
  std::map<std::string, uint64_t> Out;
  for (const support::CounterValue &V : Snapshot)
    if (std::string(V.Name).rfind("enumerator.", 0) == 0)
      Out[V.Name] = V.Value;
  return Out;
}

/// Runs both formulations on one input; returns the oracle's run.
OracleRun expectEquivalent(const Contraction &TC, const gpu::DeviceSpec &Device,
                      const EnumerationOptions &Options,
                      const std::string &Label) {
  OracleRun Expected = oracleEnumerate(TC, Device, Options);

  EnumerationStats Stats;
  std::vector<KernelConfig> Actual;
  support::CounterSnapshot Deltas;
  {
    support::CounterScope Scope;
    Actual = Enumerator(TC, Device, Options).enumerate(&Stats);
    Deltas = Scope.take();
  }

  SCOPED_TRACE(Label);
  EXPECT_EQ(Stats.RawConfigs, Expected.Stats.RawConfigs);
  EXPECT_EQ(Stats.InvalidConfigs, Expected.Stats.InvalidConfigs);
  EXPECT_EQ(Stats.HardwarePruned, Expected.Stats.HardwarePruned);
  EXPECT_EQ(Stats.PerformancePruned, Expected.Stats.PerformancePruned);
  EXPECT_EQ(Stats.Survivors, Expected.Stats.Survivors);
  EXPECT_EQ(Stats.Examined, Expected.Stats.Examined);
  EXPECT_EQ(Stats.Status, Expected.Stats.Status);

  const EnumerationStats &S = Expected.Stats;
  std::map<std::string, uint64_t> Want = {
      {"enumerator.budget-trips", S.truncated() ? 1 : 0},
      {"enumerator.examined", S.Examined},
      {"enumerator.hardware-pruned", S.HardwarePruned},
      {"enumerator.invalid", S.InvalidConfigs},
      {"enumerator.performance-pruned", S.PerformancePruned},
      {"enumerator.raw-configs", S.RawConfigs},
      {"enumerator.relaxations", Expected.Relaxed ? 1 : 0},
      {"enumerator.survivors", S.Survivors},
  };
  EXPECT_EQ(enumeratorCounters(Deltas), Want);

  EXPECT_EQ(Actual.size(), Expected.Configs.size());
  for (size_t I = 0; I < std::min(Actual.size(), Expected.Configs.size());
       ++I) {
    if (Actual[I].toString() != Expected.Configs[I].toString()) {
      ADD_FAILURE() << "first divergence at survivor " << I << ": "
                    << Actual[I].toString() << " vs "
                    << Expected.Configs[I].toString();
      break;
    }
  }
  return Expected;
}

std::string labelOf(const suite::SuiteEntry &Entry,
                    const gpu::DeviceSpec &Device, const std::string &What) {
  return Entry.Name + " on " + Device.Name + " " + What;
}

TEST(EnumeratorEquivalence, SuiteBothDevicesBothElementSizes) {
  for (const suite::SuiteEntry &Entry : suite::tccgSuite())
    for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()})
      for (unsigned ElementSize : {4u, 8u}) {
        EnumerationOptions Options;
        Options.ElementSize = ElementSize;
        expectEquivalent(Entry.contraction(), Device, Options,
                         labelOf(Entry, Device,
                                 "esize " + std::to_string(ElementSize)));
      }
}

TEST(EnumeratorEquivalence, ConstraintToggles) {
  struct Variant {
    const char *Name;
    void (*Apply)(EnumerationOptions &);
  };
  const Variant Variants[] = {
      {"fvi-off", [](EnumerationOptions &O) { O.EnforceFviConstraints = false; }},
      {"min-blocks-off", [](EnumerationOptions &O) { O.EnforceMinBlocks = false; }},
      {"occupancy-0", [](EnumerationOptions &O) { O.MinOccupancy = 0.0; }},
      {"occupancy-0.5", [](EnumerationOptions &O) { O.MinOccupancy = 0.5; }},
  };
  for (const Variant &V : Variants)
    for (const suite::SuiteEntry &Entry : suite::tccgSuite())
      for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
        EnumerationOptions Options;
        V.Apply(Options);
        expectEquivalent(Entry.contraction(), Device, Options,
                         labelOf(Entry, Device, V.Name));
      }
}

TEST(EnumeratorEquivalence, ConfigCapStopsAtTheSameCandidate) {
  for (uint64_t Cap : {1u, 100u, 1000u})
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      EnumerationOptions Options;
      Options.MaxConfigs = Cap;
      expectEquivalent(Entry.contraction(), gpu::makeV100(), Options,
                       labelOf(Entry, gpu::makeV100(),
                               "cap " + std::to_string(Cap)));
    }
  // The cap must actually bite on the large entries.
  EnumerationStats Stats;
  EnumerationOptions Options;
  Options.MaxConfigs = 100;
  Enumerator(suite::suiteEntry(31).contraction(), gpu::makeV100(), Options)
      .enumerate(&Stats);
  EXPECT_EQ(Stats.Status, SearchStatus::ConfigCapHit);
  EXPECT_EQ(Stats.Examined, 100u);
}

TEST(EnumeratorEquivalence, InvalidPartialsInvalidateTheirTriples) {
  // A zero or negative TB target gives the forced output FVI a tile < 1:
  // those X partials fail their side check, and every triple holding one
  // counts as invalid.
  EnumerationOptions Options;
  Options.TBSizes = {0, 8, -4, 16};
  uint64_t Invalid = 0;
  for (const suite::SuiteEntry &Entry : suite::tccgSuite())
    Invalid += expectEquivalent(Entry.contraction(), gpu::makeV100(), Options,
                                labelOf(Entry, gpu::makeV100(),
                                        "bad TB targets"))
                   .Stats.InvalidConfigs;
  EXPECT_GT(Invalid, 0u);
}

TEST(EnumeratorEquivalence, TinyProblemRelaxation) {
  ErrorOr<Contraction> TC = Contraction::parseUniform("ij-ik-kj", 4);
  ASSERT_TRUE(TC.hasValue());
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()})
    EXPECT_TRUE(expectEquivalent(*TC, Device, EnumerationOptions(),
                                 "ij-ik-kj@4 on " + Device.Name)
                    .Relaxed)
        << "relaxation must fire on " << Device.Name;
}

TEST(EnumeratorEquivalence, HostileDevices) {
  // The device mutants of the whole-pipeline fuzzer, at fixed points of
  // each hostile range: no or a few bytes of shared memory, starved
  // registers, tiny thread blocks.
  std::vector<gpu::DeviceSpec> Devices;
  for (gpu::DeviceSpec Base : {gpu::makeP100(), gpu::makeV100()}) {
    for (unsigned Smem : {0u, 1u, 100u, 256u}) {
      gpu::DeviceSpec D = Base;
      D.SharedMemPerBlock = Smem;
      D.SharedMemPerSM = Smem;
      Devices.push_back(D);
    }
    for (unsigned Regs : {1u, 29u, 40u}) {
      gpu::DeviceSpec D = Base;
      D.MaxRegistersPerThread = Regs;
      Devices.push_back(D);
    }
    for (unsigned Threads : {1u, 17u, 64u}) {
      gpu::DeviceSpec D = Base;
      D.MaxThreadsPerBlock = Threads;
      Devices.push_back(D);
    }
  }
  for (const gpu::DeviceSpec &Device : Devices)
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      ErrorOr<Contraction> TC = Entry.tryContractionScaled(16);
      ASSERT_TRUE(TC.hasValue()) << Entry.Name;
      expectEquivalent(*TC, Device, EnumerationOptions(),
                       labelOf(Entry, Device,
                               "smem " +
                                   std::to_string(Device.SharedMemPerBlock) +
                                   " regs " +
                                   std::to_string(
                                       Device.MaxRegistersPerThread) +
                                   " threads " +
                                   std::to_string(Device.MaxThreadsPerBlock)));
    }
}

} // namespace
