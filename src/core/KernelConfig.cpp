//===- core/KernelConfig.cpp ------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/KernelConfig.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <initializer_list>

using namespace cogent;
using namespace cogent::core;

int64_t cogent::core::productOfTiles(const std::vector<IndexTile> &Tiles) {
  int64_t Product = 1;
  for (const IndexTile &T : Tiles)
    Product *= T.Tile;
  return Product;
}

int64_t KernelConfig::tbxSize() const { return productOfTiles(TBx); }
int64_t KernelConfig::tbySize() const { return productOfTiles(TBy); }
int64_t KernelConfig::regXSize() const { return productOfTiles(RegX); }
int64_t KernelConfig::regYSize() const { return productOfTiles(RegY); }
int64_t KernelConfig::tbkSize() const { return productOfTiles(TBk); }

const IndexTile *KernelConfig::findTile(char Name) const {
  for (const std::vector<IndexTile> *List : {&TBx, &TBy, &RegX, &RegY, &TBk})
    for (const IndexTile &T : *List)
      if (T.Name == Name)
        return &T;
  return nullptr;
}

int64_t KernelConfig::tileOf(char Name) const {
  const IndexTile *T = findTile(Name);
  return T ? T->Tile : 1;
}

static int64_t ceilDiv(int64_t X, int64_t Y) { return (X + Y - 1) / Y; }

TileMap::TileMap(const KernelConfig &Config) {
  // Same answers as tileOf even for configs validate() would reject: the
  // first mapping of a name wins, and names outside 'a'..'z' are skipped.
  Tiles.fill(1);
  uint32_t Seen = 0;
  for (const std::vector<IndexTile> *List :
       {&Config.TBx, &Config.TBy, &Config.RegX, &Config.RegY, &Config.TBk})
    for (const IndexTile &T : *List) {
      if (T.Name < 'a' || T.Name > 'z')
        continue;
      uint32_t Bit = 1u << (T.Name - 'a');
      if (Seen & Bit)
        continue;
      Seen |= Bit;
      Tiles[T.Name - 'a'] = T.Tile;
    }
}

int64_t TileMap::numThreadBlocks(const ir::Contraction &TC) const {
  // The external indices are exactly C's.
  int64_t Blocks = 1;
  for (char Name : TC.indices(ir::Operand::C))
    Blocks *= ceilDiv(TC.extent(Name), (*this)[Name]);
  return Blocks;
}

int64_t TileMap::numSteps(const ir::Contraction &TC) const {
  int64_t Steps = 1;
  for (char Name : TC.indices(ir::Operand::A))
    if (TC.isInternal(Name))
      Steps *= ceilDiv(TC.extent(Name), (*this)[Name]);
  return Steps;
}

int64_t TileMap::sliceElements(const ir::Contraction &TC,
                               ir::Operand Op) const {
  assert(Op != ir::Operand::C && "slices are for inputs");
  int64_t Elems = 1;
  for (char Name : TC.indices(Op))
    Elems *= (*this)[Name];
  return Elems;
}

int64_t TileMap::contiguousRun(const ir::Contraction &TC,
                               ir::Operand Op) const {
  int64_t Run = 1;
  for (char Name : TC.indices(Op)) {
    Run *= (*this)[Name];
    if ((*this)[Name] < TC.extent(Name))
      break;
  }
  return Run;
}

int64_t KernelConfig::numThreadBlocks(const ir::Contraction &TC) const {
  return TileMap(*this).numThreadBlocks(TC);
}

int64_t KernelConfig::numSteps(const ir::Contraction &TC) const {
  return TileMap(*this).numSteps(TC);
}

unsigned KernelConfig::registersPerThread(int64_t RegX, int64_t RegY,
                                          unsigned ElementSize) {
  assert((ElementSize == 4 || ElementSize == 8) && "unsupported element size");
  unsigned RegsPerElement = ElementSize / 4;
  int64_t Values = RegX * RegY + RegX + RegY;
  // ~28 registers of index arithmetic / loop state in generated kernels.
  int64_t Total = Values * RegsPerElement + 28;
  return static_cast<unsigned>(std::min<int64_t>(Total, 512));
}

KernelConfig KernelConfig::clampedTo(const ir::Contraction &TC) const {
  KernelConfig Clamped = *this;
  for (std::vector<IndexTile> *List :
       {&Clamped.TBx, &Clamped.TBy, &Clamped.RegX, &Clamped.RegY,
        &Clamped.TBk})
    for (IndexTile &T : *List)
      T.Tile = std::min(T.Tile, TC.extent(T.Name));
  return Clamped;
}

/// Every index of \p Lists has a name in 'a'..'z' and is mapped at most
/// once across them.
static std::string
checkMappedOnce(std::initializer_list<const std::vector<IndexTile> *> Lists) {
  uint32_t Seen = 0, Twice = 0;
  for (const std::vector<IndexTile> *List : Lists)
    for (const IndexTile &T : *List) {
      if (T.Name < 'a' || T.Name > 'z')
        return "config maps invalid index name";
      uint32_t Bit = 1u << (T.Name - 'a');
      Twice |= Seen & Bit;
      Seen |= Bit;
    }
  if (Twice != 0)
    return std::string("index '") +
           static_cast<char>('a' + std::countr_zero(Twice)) +
           "' mapped to more than one dimension";
  return std::string();
}

std::string KernelConfig::validateSide(const ir::Contraction &TC,
                                       ir::Operand XInput, ConfigSide Side,
                                       const std::vector<IndexTile> &TB,
                                       const std::vector<IndexTile> &Reg) {
  assert((Side != ConfigSide::K || Reg.empty()) && "TBk has no register tile");
  if (std::string Msg = checkMappedOnce({&TB, &Reg}); !Msg.empty())
    return Msg;

  // Tiles in range.
  for (const std::vector<IndexTile> *List : {&TB, &Reg})
    for (const IndexTile &T : *List) {
      if (T.Tile < 1)
        return std::string("index '") + T.Name + "' has tile < 1";
      if (T.Tile > TC.extent(T.Name))
        return std::string("index '") + T.Name + "' has tile > extent";
    }

  // Kind and ownership rules.
  if (Side == ConfigSide::K) {
    for (const IndexTile &T : TB)
      if (!TC.isInternal(T.Name))
        return std::string("external index '") + T.Name + "' mapped on TBk";
    return std::string();
  }
  bool IsX = Side == ConfigSide::X;
  ir::Operand Input =
      IsX ? XInput
          : (XInput == ir::Operand::A ? ir::Operand::B : ir::Operand::A);
  auto checkExternals = [&](const std::vector<IndexTile> &List,
                            const char *Where) -> std::string {
    for (const IndexTile &T : List) {
      if (!TC.isExternal(T.Name))
        return std::string("internal index '") + T.Name + "' mapped on " +
               Where;
      if (TC.inputContaining(T.Name) != Input)
        return std::string("index '") + T.Name + "' on " + Where +
               " does not belong to the " + (IsX ? "X" : "Y") + " input";
    }
    return std::string();
  };
  if (std::string Msg = checkExternals(TB, IsX ? "TBx" : "TBy");
      !Msg.empty())
    return Msg;
  if (std::string Msg = checkExternals(Reg, IsX ? "RegX" : "RegY");
      !Msg.empty())
    return Msg;
  if (!IsX)
    return std::string();

  // The X input must contain the output FVI, which must lead TBx.
  char OutFvi = TC.fvi(ir::Operand::C);
  if (TC.inputContaining(OutFvi) != XInput)
    return "XInput does not contain the output tensor's FVI";
  if (TB.empty() || TB.front().Name != OutFvi)
    return "TBx must start with the output tensor's FVI";
  return std::string();
}

std::string KernelConfig::validate(const ir::Contraction &TC) const {
  // Each index mapped at most once across the sides too, so a name placed
  // on two sides reports as a double mapping.
  std::string Msg = checkMappedOnce({&TBx, &TBy, &RegX, &RegY, &TBk});
  if (Msg.empty())
    Msg = validateSide(TC, XInput, ConfigSide::X, TBx, RegX);
  if (Msg.empty())
    Msg = validateSide(TC, XInput, ConfigSide::Y, TBy, RegY);
  if (Msg.empty())
    Msg = validateSide(TC, XInput, ConfigSide::K, TBk, {});
  return Msg;
}

std::string KernelConfig::toString() const {
  auto renderList = [](const char *Label,
                       const std::vector<IndexTile> &List) {
    std::string Out = std::string(Label) + "[";
    for (size_t I = 0; I < List.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += List[I].Name;
      Out += ':';
      Out += std::to_string(List[I].Tile);
    }
    Out += ']';
    return Out;
  };
  return renderList("TBx", TBx) + " " + renderList("TBy", TBy) + " " +
         renderList("RegX", RegX) + " " + renderList("RegY", RegY) + " " +
         renderList("TBk", TBk) + " X=" + ir::operandName(XInput);
}
