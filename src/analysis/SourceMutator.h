//===- analysis/SourceMutator.h - Targeted kernel-source corruptions ------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted, semantics-breaking corruptions of emitted kernel source — the
/// mutation corpus that proves each KernelLint pass actually fires. Every
/// MutationKind models one realistic codegen regression (a dropped
/// barrier, a skewed staging stride, a widened decode modulus, ...), is a
/// pure text transform, and leaves the source unchanged when its pattern
/// is absent so it can be applied blindly (the codegen-mutate chaos site
/// draws kinds at random).
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_ANALYSIS_SOURCEMUTATOR_H
#define COGENT_ANALYSIS_SOURCEMUTATOR_H

#include <optional>
#include <string>

namespace cogent {
namespace analysis {

/// The targeted corruptions. Grouped by the lint pass expected to catch
/// each (see tests/test_kernel_lint.cpp for the kill matrix).
enum class MutationKind : unsigned {
  // RaceFreedom (drop) and BarrierUniformity (divergent) kills.
  DropFirstBarrier,       ///< Delete the first barrier statement.
  DropSecondBarrier,      ///< Delete the last barrier statement.
  DivergentBarrier,       ///< Wrap the first barrier in `if (tid == 0)`.
  DivergentBarrierThread, ///< Wrap the last barrier in
                          ///< `if (threadIdx.x == 0)`.
  // BankConflict kills.
  SkewSmemReadStride,  ///< +1 the first SMEM compute-read stride literal.
  SkewSmemWriteStride, ///< +1 the first SMEM staging-write stride literal.
  DropSmemTerm,        ///< Delete the last staging-index term.
  // Coalescing kills.
  SkewGmemStride,    ///< Double the first global-load stride variable.
  SwapGmemStrideVar, ///< Swap the first two global-load stride variables.
  WrongBaseVar,      ///< Use the block base where the step base belongs.
  SkewStoreStride,   ///< Double the first global-store stride variable.
  // BoundsCheck kills.
  DropLoadGuard,      ///< Remove one conjunct from (or blank) `inb`.
  WidenDecodeModulus, ///< +1 the first slice decode modulus.
  DropStoreGuard,     ///< Replace the store guard with `if (true)`.
  // ResourceDecl kills.
  ShrinkSmemDecl,     ///< Declare one fewer element in s_A.
  SkewDefineRegX,     ///< +1 the REGX define.
  SkewDefineNthreads, ///< Double the NTHREADS define.
  ShrinkRegTile,      ///< Declare r_C[REGX] instead of r_C[REGX * REGY].
  // RedundantBarrier kills.
  DuplicateFirstBarrier,  ///< Duplicate the first barrier statement.
  DuplicateSecondBarrier, ///< Duplicate the last barrier statement.
  InjectStoreBarrier,     ///< Insert a barrier before the store phase.
  // DeadStore kills.
  InjectUnusedDecl,   ///< Declare a scalar that is never read.
  InjectDeadStore,    ///< Assign a scalar whose value is never read.
  ShadowDecodeResult, ///< Overwrite a decode result before its first use.
  // RegisterPressure kills.
  InflateRegTileC, ///< Declare r_C 8x larger than the plan's tile.
  InflateRegTileA, ///< Declare r_A 64x larger than the plan's tile.
  InflateRegTileB, ///< Declare r_B 64x larger than the plan's tile.
  // SmemLifetime kills.
  RetargetComputeReadA, ///< Read r_A's staging from the other buffer.
  RetargetComputeReadB, ///< Read r_B's staging from the other buffer.
  RetargetStagingStore, ///< Store s_B's slice into s_A instead.
  // Uniformity kills (KernelRaceProver taint analysis).
  TaintBlockBase,  ///< Mix `tid` into the first block-tile base.
  TaintStepBase,   ///< Mix `tid` into the first k-slice base.
  TaintStepCount,  ///< Make the step-loop trip count thread-dependent.
  // RaceFreedom kills (symbolic two-thread solver).
  UniformizeSliceInit,    ///< Start the staging loop at 0 for every thread.
  CollapseSmemWriteStride,///< Flatten one staging-store stride to 1.
  DropStoreCoordinate,    ///< Drop a `+ t_x` term from a store coordinate.
  // BarrierUniformity kills (divergence prover).
  GuardBarrierOddTid,   ///< First barrier only for even tids.
  GuardBarrierHalfTile, ///< Last barrier only for half the thread tile.
  DivergeStepLoop,      ///< Thread-dependent step-loop bound (barrier in it).
};

/// Number of MutationKind enumerators.
inline constexpr unsigned NumMutationKinds = 39;

/// Stable identifier, e.g. "drop-first-barrier".
const char *mutationKindName(MutationKind Kind);

/// Inverse of mutationKindName; returns std::nullopt for unknown names.
/// The chaos codegen-mutate site draws kinds through this round-trip so
/// an enum/table drift surfaces as a refused mutation, not a wild cast.
std::optional<MutationKind> mutationKindFromName(const std::string &Name);

/// Applies \p Kind to \p KernelSource. Returns the mutated text, or the
/// input unchanged when the kind's pattern does not occur (never throws,
/// never unbalances braces).
std::string applyMutation(const std::string &KernelSource, MutationKind Kind);

} // namespace analysis
} // namespace cogent

#endif // COGENT_ANALYSIS_SOURCEMUTATOR_H
