//===- perfbench/src/OutputCheck.cpp - Simulated kernel vs reference -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/KernelPlan.h"
#include "gpu/KernelSimulator.h"
#include "support/Random.h"
#include "tensor/Reference.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using namespace cogent;

ReferenceFn perfbench::defaultReference() {
  return [](const ir::Contraction &TC, tensor::Tensor<double> &C,
            const tensor::Tensor<double> &A, const tensor::Tensor<double> &B) {
    tensor::contractReference<double>(TC, C, A, B);
  };
}

namespace {

/// Small enough that the simulator runs every selected kernel of a run in a
/// few seconds; bench/BenchCommon.cpp clamps its traffic cross-check to 8.
constexpr int64_t ClampExtent = 6;
/// The simulator and the reference sum in different orders.
constexpr double RelTolerance = 1e-10, AbsTolerance = 1e-12;

} // namespace

OutputVerdict perfbench::checkKernelOutput(const ir::Contraction &TC,
                                           const core::KernelConfig &Config,
                                           uint64_t Seed,
                                           const ReferenceFn &Reference) {
  OutputVerdict Out;
  Extents Clamped;
  for (char Name : TC.allIndices())
    Clamped.emplace_back(Name, std::min(TC.extent(Name), ClampExtent));
  ErrorOr<ir::Contraction> Small = ir::Contraction::parse(TC.toString(),
                                                          Clamped);
  if (!Small) {
    Out.Note = "cannot clamp " + TC.toStringWithExtents() + ": " +
               Small.error().message();
    return Out;
  }
  core::KernelConfig SmallConfig = Config.clampedTo(*Small);
  if (std::string Why = SmallConfig.validate(*Small); !Why.empty()) {
    Out.Note = "clamped config invalid: " + Why;
    return Out;
  }
  core::KernelPlan Plan(*Small, SmallConfig);

  Rng Generator(Seed);
  auto A = tensor::makeOperand<double>(*Small, ir::Operand::A);
  auto B = tensor::makeOperand<double>(*Small, ir::Operand::B);
  A.fillRandom(Generator);
  B.fillRandom(Generator);
  auto Simulated = tensor::makeOperand<double>(*Small, ir::Operand::C);
  auto Expected = tensor::makeOperand<double>(*Small, ir::Operand::C);
  gpu::simulateKernel(Plan, Simulated, A, B);
  Reference(*Small, Expected, A, B);

  double Scale = 0.0;
  for (int64_t I = 0; I < Expected.numElements(); ++I)
    Scale = std::max(Scale, std::abs(Expected.at(I)));
  Out.MaxAbsError = tensor::maxAbsDifference(Simulated, Expected);
  Out.Allowed = AbsTolerance + RelTolerance * Scale;
  Out.Ok = Out.MaxAbsError <= Out.Allowed;
  if (!Out.Ok)
    Out.Note = TC.toString() + " " + Config.toString() +
               ": simulated output differs from the reference by " +
               std::to_string(Out.MaxAbsError);
  return Out;
}
