//===- core/KernelPlan.cpp ---------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/KernelPlan.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace cogent;
using namespace cogent::core;
using cogent::ir::Contraction;
using cogent::ir::Operand;

std::vector<int64_t>
cogent::core::decodeMixedRadix(int64_t Value,
                               const std::vector<IndexTile> &List) {
  std::vector<int64_t> Digits(List.size());
  for (size_t I = 0; I < List.size(); ++I) {
    Digits[I] = Value % List[I].Tile;
    Value /= List[I].Tile;
  }
  return Digits;
}

/// Finds (Role, RolePos) of index \p Name within \p Config; Fixed when
/// unmapped or in TBk-serial position with tile 1.
static std::pair<CoordRole, unsigned> roleOf(const KernelConfig &Config,
                                             char Name) {
  auto searchIn = [&](const std::vector<IndexTile> &List, CoordRole Role)
      -> std::pair<CoordRole, unsigned> {
    for (unsigned I = 0; I < List.size(); ++I)
      if (List[I].Name == Name)
        return {Role, I};
    return {CoordRole::Fixed, 0};
  };
  for (const auto &[List, Role] :
       std::initializer_list<std::pair<const std::vector<IndexTile> &,
                                       CoordRole>>{
           {Config.TBx, CoordRole::ThreadX},
           {Config.TBy, CoordRole::ThreadY},
           {Config.RegX, CoordRole::RegX},
           {Config.RegY, CoordRole::RegY},
           {Config.TBk, CoordRole::Step}}) {
    auto [FoundRole, Pos] = searchIn(List, Role);
    if (FoundRole != CoordRole::Fixed)
      return {FoundRole, Pos};
  }
  return {CoordRole::Fixed, 0};
}

static int64_t ceilDiv(int64_t X, int64_t Y) { return (X + Y - 1) / Y; }

KernelPlan::KernelPlan(const Contraction &TCIn, KernelConfig ConfigIn)
    : TC(TCIn), Config(std::move(ConfigIn)) {
  assert(Config.validate(TC).empty() && "constructing plan from bad config");

  TBXSize = Config.tbxSize();
  TBYSize = Config.tbySize();
  REGXSize = Config.regXSize();
  REGYSize = Config.regYSize();
  TBKSize = Config.tbkSize();
  NumBlocks = Config.numThreadBlocks(TC);
  NumSteps = Config.numSteps(TC);

  for (char Name : TC.externalIndices()) {
    PlanDim Dim;
    Dim.Name = Name;
    Dim.Extent = TC.extent(Name);
    Dim.Tile = Config.tileOf(Name);
    Dim.NumTiles = ceilDiv(Dim.Extent, Dim.Tile);
    GridDims.push_back(Dim);
  }
  for (char Name : TC.internalIndices()) {
    PlanDim Dim;
    Dim.Name = Name;
    Dim.Extent = TC.extent(Name);
    Dim.Tile = Config.tileOf(Name);
    Dim.NumTiles = ceilDiv(Dim.Extent, Dim.Tile);
    StepDims.push_back(Dim);
  }

  auto buildSlice = [&](Operand Op) {
    std::vector<SliceDim> Dims;
    for (char Name : TC.indices(Op)) {
      SliceDim Dim;
      Dim.Name = Name;
      Dim.Extent = TC.extent(Name);
      Dim.Tile = Config.tileOf(Name);
      Dim.GlobalStride = TC.strideIn(Op, Name);
      std::tie(Dim.Role, Dim.RolePos) = roleOf(Config, Name);
      Dims.push_back(Dim);
    }
    // Shared-memory layout: thread-varying dimensions fastest so the
    // compute phase's per-lane staging reads hit consecutive banks
    // (conflict-free); register-tile dims next, staged contraction dims
    // last. The cooperative load scatters once per element, which is
    // cheap; the staging reads happen REGX+REGY times per 2*REGX*REGY
    // flops and must not serialize.
    auto priority = [](CoordRole Role) {
      switch (Role) {
      case CoordRole::ThreadX:
      case CoordRole::ThreadY:
        return 0;
      case CoordRole::RegX:
      case CoordRole::RegY:
        return 1;
      case CoordRole::Step:
        return 2;
      case CoordRole::Fixed:
        return 3;
      }
      return 3;
    };
    std::vector<size_t> Layout(Dims.size());
    for (size_t I = 0; I < Dims.size(); ++I)
      Layout[I] = I;
    std::stable_sort(Layout.begin(), Layout.end(), [&](size_t X, size_t Y) {
      return priority(Dims[X].Role) < priority(Dims[Y].Role);
    });
    int64_t SmemStride = 1;
    for (size_t I : Layout) {
      Dims[I].SmemStride = SmemStride;
      SmemStride *= Dims[I].Tile;
    }
    return Dims;
  };
  SliceA = buildSlice(Operand::A);
  SliceB = buildSlice(Operand::B);

  for (char Name : TC.indices(Operand::C)) {
    StoreDim Dim;
    Dim.Name = Name;
    Dim.Extent = TC.extent(Name);
    Dim.Tile = Config.tileOf(Name);
    Dim.GlobalStride = TC.strideIn(Operand::C, Name);
    std::tie(Dim.Role, Dim.RolePos) = roleOf(Config, Name);
    StoreDims.push_back(Dim);
  }
}

int64_t KernelPlan::sliceElements(Operand Op) const {
  return TileMap(Config).sliceElements(TC, Op);
}

const std::vector<SliceDim> &KernelPlan::sliceDims(Operand Op) const {
  assert(Op != Operand::C && "slices are for inputs");
  return Op == Operand::A ? SliceA : SliceB;
}

int64_t KernelPlan::contiguousRun(Operand Op) const {
  assert(Op != Operand::C && "use contiguousRunC for the store");
  return TileMap(Config).contiguousRun(TC, Op);
}

int64_t KernelPlan::contiguousRunC() const {
  return TileMap(Config).contiguousRun(TC, Operand::C);
}
