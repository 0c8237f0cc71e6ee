//===- tests/test_mutation_suite.cpp - Suite-wide mutation kill matrix ----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kill-matrix guardrail at suite scale. test_kernel_lint pins which
/// pass kills each MutationKind on one corpus kernel; this sweep applies
/// every MutationKind to the top-ranked kernel of every TCCG entry on both
/// device models and requires each mutant that changes the source to be
/// rejected by the strict lint gate. It is what lets a pass be merged into
/// or replaced by another without losing a kill anywhere in the suite.
///
/// The one tolerated survivor is shrink-reg-tile on a kernel whose
/// register tile has REGY == 1: declaring r_C[REGX] instead of
/// r_C[REGX * REGY] is then the same declaration, so nothing is broken.
///
/// Slow lane: about 3.7k lint runs.
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"
#include "analysis/SourceMutator.h"
#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "gpu/DeviceSpec.h"
#include "suite/TccgSuite.h"

#include <gtest/gtest.h>

#include <string>

using namespace cogent;
using analysis::MutationKind;

TEST(MutationSuite, EveryAppliedMutantIsKilledOnBothDevices) {
  unsigned Applied = 0;
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    core::CogentOptions Options;
    // The pipeline's own strict-gate settings (Cogent::generate syncs
    // these from the run's element size and device).
    analysis::LintOptions Lint = Options.Lint;
    Lint.ElementSize = Options.ElementSize;
    Lint.TransactionBytes = Device.TransactionBytes;
    Lint.RegisterBudget = Device.MaxRegistersPerThread;
    ASSERT_EQ(Lint.Mode, analysis::LintMode::Strict);

    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      ErrorOr<core::GenerationResult> Result =
          Generator.generate(Entry.contraction(), Options);
      ASSERT_TRUE(Result.hasValue()) << Entry.Name << " on " << Device.Name;
      core::KernelPlan Plan(Result->FallbackContraction
                                ? *Result->FallbackContraction
                                : Entry.contraction(),
                            Result->best().Config);
      const std::string &Source = Result->best().Source.KernelSource;
      for (unsigned I = 0; I < analysis::NumMutationKinds; ++I) {
        MutationKind Kind = static_cast<MutationKind>(I);
        std::string Mutated = analysis::applyMutation(Source, Kind);
        if (Mutated == Source)
          continue;
        ++Applied;
        if (analysis::lintKernel(Plan, Mutated, Lint).errorCount() > 0)
          continue;
        if (Kind == MutationKind::ShrinkRegTile &&
            Result->best().Config.regYSize() == 1)
          continue; // The mutated declaration is the original one.
        ADD_FAILURE() << analysis::mutationKindName(Kind) << " survived on "
                      << Entry.Name << " (" << Device.Name << ", "
                      << Result->best().Config.toString() << ")";
      }
    }
  }
  // Guards the guardrail: a mutator that stopped applying would let the
  // sweep pass vacuously.
  EXPECT_GE(Applied, 3710u);
}
