//===- core/KernelConfig.h - Generated-kernel parameters (Table II) -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel parameters of the paper's Table II: ordered lists of indices
/// mapped to the thread-block X/Y dimensions, to the per-thread register
/// tile X/Y dimensions, and to the shared-memory step dimension (TBk), each
/// with a tile size. External indices not mapped anywhere get tile size 1
/// and iterate across the grid (the paper's Blk mapping); internal indices
/// not in TBk get tile 1 and iterate across sequential steps.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_KERNELCONFIG_H
#define COGENT_CORE_KERNELCONFIG_H

#include "ir/Contraction.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cogent {
namespace core {

/// One index together with its tile size along that index.
struct IndexTile {
  char Name = '?';
  int64_t Tile = 1;

  friend bool operator==(const IndexTile &X, const IndexTile &Y) {
    return X.Name == Y.Name && X.Tile == Y.Tile;
  }
};

/// Product of the tiles of \p Tiles (1 for an empty list).
int64_t productOfTiles(const std::vector<IndexTile> &Tiles);

/// The pair of lists one side of a configuration owns: X = (TBx, RegX),
/// Y = (TBy, RegY), K = (TBk; no register tile).
enum class ConfigSide { X, Y, K };

/// A complete mapping + tile-size choice for one contraction (Table II).
///
/// XInput identifies the input tensor that contains the output's FVI; its
/// external indices populate TBx/RegX, the other input's populate TBy/RegY,
/// exactly as in the paper's §III-B mapping scheme.
struct KernelConfig {
  ir::Operand XInput = ir::Operand::A;

  /// External indices mapped on the thread-block X dimension (l_TBx).
  /// The first entry is always the output tensor's FVI so stores coalesce.
  std::vector<IndexTile> TBx;
  /// External indices mapped on the thread-block Y dimension (l_TBy).
  std::vector<IndexTile> TBy;
  /// External indices register-tiled along X (REGx), drawn from XInput.
  std::vector<IndexTile> RegX;
  /// External indices register-tiled along Y (REGy), drawn from the other
  /// input.
  std::vector<IndexTile> RegY;
  /// Internal indices staged per step in shared memory (l_TBk).
  std::vector<IndexTile> TBk;

  /// The other input (the one providing TBy/RegY).
  ir::Operand yInput() const {
    return XInput == ir::Operand::A ? ir::Operand::B : ir::Operand::A;
  }

  int64_t tbxSize() const;
  int64_t tbySize() const;
  int64_t regXSize() const;
  int64_t regYSize() const;
  int64_t tbkSize() const;
  int64_t threadsPerBlock() const { return tbxSize() * tbySize(); }

  /// Tile assigned to index \p Name across all five lists (1 if unmapped).
  int64_t tileOf(char Name) const;

  /// True when \p Name appears in any of the five lists.
  bool isMapped(char Name) const { return findTile(Name) != nullptr; }

  /// Grid size: product over external indices of ceil(N_i / T_i).
  int64_t numThreadBlocks(const ir::Contraction &TC) const;

  /// Sequential steps: product over internal indices of ceil(N_i / T_i).
  int64_t numSteps(const ir::Contraction &TC) const;

  /// Shared-memory elements staged per step:
  /// TBx*REGx*TBk (for the X input) + TBy*REGy*TBk (for the Y input).
  int64_t smemElements() const {
    return smemElements(tbxSize(), regXSize(), tbySize(), regYSize(),
                        tbkSize());
  }
  int64_t smemBytes(unsigned ElementSize) const {
    return smemElements() * ElementSize;
  }
  /// smemElements() from the five tile products.
  static int64_t smemElements(int64_t TBx, int64_t RegX, int64_t TBy,
                              int64_t RegY, int64_t TBk) {
    return (TBx * RegX + TBy * RegY) * TBk;
  }

  /// Estimated 32-bit registers per thread: the C accumulator tile, the two
  /// staging vectors, and a fixed addressing-arithmetic overhead.
  unsigned registersPerThread(unsigned ElementSize) const {
    return registersPerThread(regXSize(), regYSize(), ElementSize);
  }
  /// registersPerThread() from the two register-tile products.
  static unsigned registersPerThread(int64_t RegX, int64_t RegY,
                                     unsigned ElementSize);

  /// Returns a copy with every tile clamped to the extents of \p TC. The
  /// emitted CUDA handles problem sizes smaller than the representative one
  /// through bounds guards; clamping mirrors that when re-planning the same
  /// configuration at a smaller (e.g. validation) size.
  KernelConfig clampedTo(const ir::Contraction &TC) const;

  /// Structural validation against \p TC: each index mapped at most once, to
  /// a legal dimension for its kind and owning input, with tile in
  /// [1, extent], and TBx led by the output FVI. Returns an empty string if
  /// valid, else a diagnostic.
  std::string validate(const ir::Contraction &TC) const;

  /// The rules of validate() that concern one side's lists alone: index
  /// names in 'a'..'z', each mapped at most once, tiles in [1, extent], the
  /// side's index kind and owning input, and on the X side the output FVI
  /// leading \p TB. For K, \p TB is TBk and \p Reg must be empty. Sides
  /// that pass hold disjoint indices (X and Y externals of different
  /// inputs, K internals), so a configuration is valid iff its three sides
  /// are. validate() calls this per side; the enumerator calls it once per
  /// partial configuration.
  static std::string validateSide(const ir::Contraction &TC,
                                  ir::Operand XInput, ConfigSide Side,
                                  const std::vector<IndexTile> &TB,
                                  const std::vector<IndexTile> &Reg);

  /// Compact human-readable rendering, e.g.
  /// "TBx[a:16] TBy[c:8,d:2] RegX[b:4] RegY[] TBk[e:8]".
  std::string toString() const;

private:
  const IndexTile *findTile(char Name) const;
};

/// A configuration's tile for every index name ('a'..'z'; 1 where
/// unmapped), built in one pass over the five lists. Walks over all of a
/// contraction's indices look each tile up in O(1) instead of searching
/// the lists per index. The cost model shares one map across its walks;
/// KernelConfig and KernelPlan forward their walks here.
class TileMap {
public:
  explicit TileMap(const KernelConfig &Config);

  int64_t operator[](char Name) const { return Tiles[Name - 'a']; }

  /// KernelConfig::numThreadBlocks.
  int64_t numThreadBlocks(const ir::Contraction &TC) const;
  /// KernelConfig::numSteps.
  int64_t numSteps(const ir::Contraction &TC) const;

  /// Elements of \p Op's slice one block stages per step: the product of
  /// the tiles of \p Op's indices (A or B).
  int64_t sliceElements(const ir::Contraction &TC, ir::Operand Op) const;

  /// The paper's cal_Cont(): the maximal contiguous global-memory run, in
  /// elements, of \p Op's tile hyper-rectangle. Walks \p Op's indices FVI
  /// first; an index extends the run only while every faster index was
  /// covered in full. \p Op may be C (the store's run).
  int64_t contiguousRun(const ir::Contraction &TC, ir::Operand Op) const;

private:
  std::array<int64_t, 26> Tiles;
};

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_KERNELCONFIG_H
