//===- tests/test_rank_equivalence.cpp - Lazy ranking vs the eager oracle -===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cogent::generate ranks configurations with a key pass (fit check,
/// Algorithm-3 cost, occupancy) and lowers and fully verifies a KernelPlan
/// only for the candidates it walks toward emission. This test keeps the
/// eager formulation as an oracle: a KernelPlan, verifyPlan, plan-level
/// estimateTransactions, planOccupancy and a stable sort over every
/// survivor. generate() must select the same kernels (config, cost,
/// occupancy, source text) and count the same verifier rejections.
///
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "suite/TccgSuite.h"
#include "verify/PlanVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace cogent;
using core::CogentOptions;
using core::GenerationResult;
using core::KernelConfig;
using core::KernelPlan;
using ir::Contraction;

namespace {

constexpr unsigned ElementSize = 8;

struct EagerRanked {
  KernelConfig Config;
  core::TransactionCost Cost;
  gpu::OccupancyResult Occ;
  gpu::OccupancyResult RankOcc;
};

/// The eager rank loop: every candidate lowered to a plan and run through
/// the full plan verifier before it is costed and sorted.
std::vector<EagerRanked> eagerRanking(const Contraction &TC,
                                      const std::vector<KernelConfig> &Configs,
                                      const gpu::DeviceSpec &Device,
                                      bool PressureAware,
                                      uint64_t *Rejections) {
  verify::PlanVerifier Verifier(Device, ElementSize);
  std::vector<EagerRanked> Ranking;
  for (const KernelConfig &Config : Configs) {
    KernelPlan Plan(TC, Config);
    if (!Verifier.verifyPlan(Plan)) {
      ++*Rejections;
      continue;
    }
    EagerRanked R;
    bool CostOk = false;
    for (unsigned Attempt = 0; Attempt < 4 && !CostOk; ++Attempt) {
      R.Cost = core::estimateTransactions(Plan, ElementSize,
                                          Device.TransactionBytes);
      CostOk = Verifier.verifyCost(Plan, R.Cost).hasValue();
      if (!CostOk)
        ++*Rejections;
    }
    if (!CostOk)
      continue;
    R.Occ = core::planOccupancy(Plan, Device, ElementSize);
    R.RankOcc = PressureAware
                    ? core::planOccupancyUnderPressure(Plan, Device,
                                                       ElementSize)
                    : R.Occ;
    R.Config = Config;
    Ranking.push_back(std::move(R));
  }
  std::stable_sort(Ranking.begin(), Ranking.end(),
                   [](const EagerRanked &X, const EagerRanked &Y) {
                     bool XUnfit = X.RankOcc.BlocksPerSM == 0;
                     bool YUnfit = Y.RankOcc.BlocksPerSM == 0;
                     if (XUnfit != YUnfit)
                       return YUnfit;
                     if (X.Cost.total() != Y.Cost.total())
                       return X.Cost.total() < Y.Cost.total();
                     if (X.RankOcc.Occupancy != Y.RankOcc.Occupancy)
                       return X.RankOcc.Occupancy > Y.RankOcc.Occupancy;
                     return X.Config.threadsPerBlock() >
                            Y.Config.threadsPerBlock();
                   });
  return Ranking;
}

std::vector<KernelConfig> survivors(const Contraction &TC,
                                    const gpu::DeviceSpec &Device) {
  core::EnumerationOptions Options;
  Options.ElementSize = ElementSize;
  return core::Enumerator(TC, Device, Options).enumerate();
}

/// Asserts that \p Result's kernels are the first TopK entries of the
/// eager ranking, with the eager model outputs and source.
void expectSameKernels(const Contraction &TC, const GenerationResult &Result,
                       const std::vector<EagerRanked> &Eager, size_t TopK,
                       const std::string &Label) {
  ASSERT_EQ(Result.LintRejections, 0u) << Label;
  ASSERT_EQ(Result.Kernels.size(), std::min(TopK, Eager.size())) << Label;
  for (size_t I = 0; I < Result.Kernels.size(); ++I) {
    const core::GeneratedKernel &Got = Result.Kernels[I];
    const EagerRanked &Want = Eager[I];
    std::string Where = Label + " kernel " + std::to_string(I);
    EXPECT_EQ(Got.Config.toString(), Want.Config.toString()) << Where;
    EXPECT_EQ(Got.Cost.LoadA, Want.Cost.LoadA) << Where;
    EXPECT_EQ(Got.Cost.LoadB, Want.Cost.LoadB) << Where;
    EXPECT_EQ(Got.Cost.StoreC, Want.Cost.StoreC) << Where;
    EXPECT_EQ(Got.Occupancy.BlocksPerSM, Want.Occ.BlocksPerSM) << Where;
    EXPECT_EQ(Got.Occupancy.Occupancy, Want.Occ.Occupancy) << Where;
    EXPECT_STREQ(Got.Occupancy.Limiter, Want.Occ.Limiter) << Where;
    EXPECT_EQ(Got.Source.full(),
              core::emitCuda(KernelPlan(TC, Want.Config)).full())
        << Where;
  }
}

TEST(RankEquivalence, WholeSuiteBothDevicesTop1AndTop8) {
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      Contraction TC = Entry.contraction();
      uint64_t EagerRejections = 0;
      std::vector<EagerRanked> Eager =
          eagerRanking(TC, survivors(TC, Device), Device,
                       /*PressureAware=*/false, &EagerRejections);
      for (size_t TopK : {size_t(1), size_t(8)}) {
        std::string Label = Entry.Name + " on " + Device.Name + " top-" +
                            std::to_string(TopK);
        CogentOptions Options;
        Options.TopK = TopK;
        ErrorOr<GenerationResult> Result = Generator.generate(TC, Options);
        ASSERT_TRUE(Result.hasValue()) << Label;
        EXPECT_EQ(Result->Fallback, core::FallbackLevel::None) << Label;
        EXPECT_EQ(Result->VerifierRejections, EagerRejections) << Label;
        expectSameKernels(TC, *Result, Eager, TopK, Label);
      }
    }
  }
}

TEST(RankEquivalence, PressureAwareRanking) {
  // Eq. 1 at extent 48: high-order operands, where the refined register
  // estimate diverges most from the flat one.
  Contraction TC = *Contraction::parseUniform("abcd-aebf-dfce", 48);
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    uint64_t EagerRejections = 0;
    std::vector<EagerRanked> Eager =
        eagerRanking(TC, survivors(TC, Device), Device,
                     /*PressureAware=*/true, &EagerRejections);
    CogentOptions Options;
    Options.TopK = 8;
    Options.PressureAwareRanking = true;
    ErrorOr<GenerationResult> Result =
        core::Cogent(Device).generate(TC, Options);
    ASSERT_TRUE(Result.hasValue());
    EXPECT_TRUE(Result->PressureRanking);
    EXPECT_EQ(Result->VerifierRejections, EagerRejections);
    expectSameKernels(TC, *Result, Eager, 8, "pressure-aware " + Device.Name);
  }
}

TEST(RankEquivalence, MinimalTileFallback) {
  // All extents 1 and an unreachable block floor: the search keeps nothing
  // and the directly built minimal-tile configuration is ranked alone.
  Contraction TC = *Contraction::parseUniform("i-ik-k", 1);
  gpu::DeviceSpec Device = gpu::makeV100();
  CogentOptions Options;
  Options.Enumeration.RelaxWhenEmpty = false;
  Options.Enumeration.MinThreadBlocks = 1 << 30;
  ErrorOr<GenerationResult> Result =
      core::Cogent(Device).generate(TC, Options);
  ASSERT_TRUE(Result.hasValue());
  ASSERT_EQ(Result->Fallback, core::FallbackLevel::MinimalTile);
  ASSERT_EQ(Result->Kernels.size(), 1u);
  uint64_t EagerRejections = 0;
  std::vector<EagerRanked> Eager =
      eagerRanking(TC, {Result->Kernels.front().Config}, Device,
                   /*PressureAware=*/false, &EagerRejections);
  EXPECT_EQ(Result->VerifierRejections, EagerRejections);
  expectSameKernels(TC, *Result, Eager, 1, "minimal-tile");
}

} // namespace
