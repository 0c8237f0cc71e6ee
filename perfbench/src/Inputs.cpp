//===- perfbench/src/Inputs.cpp - Seeded inputs and arrival schedule -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "suite/TccgSuite.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

using namespace perfbench;

uint64_t SplitMix::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<Request> perfbench::cappedSuite(int64_t Cap) {
  std::vector<Request> Out;
  for (const cogent::suite::SuiteEntry &Entry : cogent::suite::tccgSuite()) {
    Request R;
    R.Spec = Entry.Spec;
    R.Dims = Entry.Extents;
    for (auto &[Name, Extent] : R.Dims)
      Extent = std::min(Extent, Cap);
    Out.push_back(std::move(R));
  }
  return Out;
}

namespace {

std::string signatureOf(const Request &R) {
  std::string S = R.Spec;
  for (const auto &[Name, Extent] : R.Dims) {
    S += ' ';
    S += Name;
    S += '=';
    S += std::to_string(Extent);
  }
  return S;
}

} // namespace

OpenLoopSchedule
perfbench::buildOpenLoopSchedule(const std::vector<Request> &Warm,
                                 const OpenLoopMix &Mix, uint64_t Seed) {
  OpenLoopSchedule Out;
  Out.Inputs = Warm;
  std::set<std::string> Seen;
  for (const Request &R : Warm)
    Seen.insert(signatureOf(R));

  SplitMix Rng(Seed ^ 0x6f70656e6c6f6f70ULL);
  std::vector<size_t> SpecOrder;
  auto freshInput = [&] {
    while (true) {
      if (SpecOrder.empty()) {
        for (size_t I = Warm.size(); I > 0; --I)
          SpecOrder.push_back(I - 1);
        shuffle(SpecOrder, Rng);
      }
      Request R = Warm[SpecOrder.back()];
      SpecOrder.pop_back();
      for (auto &[Name, Extent] : R.Dims)
        Extent = Mix.MinExtent +
                 static_cast<int64_t>(Rng.below(
                     static_cast<uint64_t>(Mix.MaxExtent - Mix.MinExtent + 1)));
      if (!Seen.insert(signatureOf(R)).second)
        continue;
      Out.Inputs.push_back(std::move(R));
      return Out.Inputs.size() - 1;
    }
  };

  size_t Count =
      static_cast<size_t>(std::floor(Mix.RatePerS * Mix.Seconds));
  Out.Arrivals.resize(Count);
  // Even offsets of a block, so the slot after a miss is free for its
  // duplicate.
  std::vector<size_t> Slots;
  for (size_t Off = 0; Off + 1 < Mix.BlockSize; Off += 2)
    Slots.push_back(Off);
  assert(Mix.MissesPerBlock <= Slots.size() && "too many misses per block");
  size_t Misses = 0;
  for (size_t Block = 0; Block < Count; Block += Mix.BlockSize) {
    shuffle(Slots, Rng);
    std::vector<size_t> MissAt(Slots.begin(),
                               Slots.begin() + Mix.MissesPerBlock);
    std::sort(MissAt.begin(), MissAt.end());
    size_t End = std::min(Count, Block + Mix.BlockSize);
    for (size_t I = Block; I < End; ++I) {
      Arrival &A = Out.Arrivals[I];
      A.DueMs = 1000.0 * static_cast<double>(I) / Mix.RatePerS;
      if (std::binary_search(MissAt.begin(), MissAt.end(), I - Block)) {
        A.Kind = ArrivalKind::Miss;
        A.Input = freshInput();
        ++Misses;
        if (Mix.DuplicateEvery && Misses % Mix.DuplicateEvery == 0 &&
            I + 1 < End) {
          Arrival &D = Out.Arrivals[++I];
          D.DueMs = 1000.0 * static_cast<double>(I) / Mix.RatePerS;
          D.Kind = ArrivalKind::Duplicate;
          D.Input = A.Input;
        }
        continue;
      }
      A.Kind = ArrivalKind::Hit;
      A.Input = Rng.below(Warm.size());
    }
  }
  return Out;
}
