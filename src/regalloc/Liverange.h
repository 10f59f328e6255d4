//===- regalloc/Liverange.h - Interference graph -----------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interference graph, live sets and spill costs for the Chaitin-Briggs
/// allocator (Briggs, Cooper & Torczon, TOPLAS 1994 — the paper's
/// reference [1]).
///
/// Storage is flat and reusable. The graph is one bit matrix in one vector
/// (N rows of ⌈N/64⌉ words), and neighbors are read straight off the rows,
/// masked by register class and limited to each row's nonzero words. The live
/// sets the build walks from are one vector of per-block words for each
/// direction. The allocator keeps one graph for a whole
/// allocateRegisters(Module&) call and rebuilds into it, so a spill round
/// or the next function reuses the capacity the last one grew.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_REGALLOC_LIVERANGE_H
#define RPCC_REGALLOC_LIVERANGE_H

#include "ir/Function.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rpcc {

/// Words of a bit row over \p N registers.
inline size_t bitWords(size_t N) { return (N + 63) / 64; }
inline bool testBit(const uint64_t *Row, size_t I) {
  return (Row[I / 64] >> (I % 64)) & 1;
}
inline void setBit(uint64_t *Row, size_t I) {
  Row[I / 64] |= uint64_t(1) << (I % 64);
}
inline void resetBit(uint64_t *Row, size_t I) {
  Row[I / 64] &= ~(uint64_t(1) << (I % 64));
}

/// 10^loop-depth per block — the classic spill-cost weight. Requires
/// up-to-date CFG lists.
std::vector<double> loopDepthWeights(const Function &F);

/// Live-in and live-out register sets of every block, flat: with W =
/// ⌈N/64⌉, block B's set is words [B * W, (B + 1) * W) of one vector per
/// direction.
/// compute() solves the same backward problem as analysis/Liveness, whose
/// least fixpoint is unique, so the two agree bit for bit.
class LiveSets {
public:
  /// From scratch. Requires up-to-date CFG lists.
  void compute(const Function &F);

  size_t numRegs() const { return N; }
  const uint64_t *liveIn(BlockId B) const { return &In[B * Stride]; }
  const uint64_t *liveOut(BlockId B) const { return &Out[B * Stride]; }

private:
  size_t N = 0, Stride = 0;
  std::vector<uint64_t> In, Out;
  // Scratch, kept for its capacity.
  std::vector<uint64_t> Use, Def;
  std::vector<char> Queued;
  std::vector<BlockId> Work;
};

/// Interference graph over virtual registers, built from backward liveness.
/// Copy sources do not interfere with copy destinations (enables
/// coalescing).
class InterferenceGraph {
public:
  InterferenceGraph() = default;

  /// Builds a graph for \p F on its own, computing liveness and loop-depth
  /// weights. Requires up-to-date CFG lists.
  explicit InterferenceGraph(const Function &F);

  /// Rebuilds this graph for \p F in place, reusing its storage, from
  /// liveness computed afresh. \p BlockWeight holds the per-block
  /// spill-cost weights (10^loop-depth; spill rounds change instructions,
  /// never the CFG, so the allocator computes them once). Requires
  /// up-to-date CFG lists.
  void build(const Function &F, const std::vector<double> &BlockWeight);

  size_t numNodes() const { return N; }
  /// Words per matrix row.
  size_t stride() const { return Stride; }
  bool interfere(Reg A, Reg B) const { return testBit(row(A), B); }
  RegType type(Reg A) const { return Types[A]; }

  /// Nodes defined or used anywhere, or parameters, and not folded into
  /// another node by merge(), as a bit row.
  const uint64_t *liveNodes() const { return LiveBits.data(); }

  /// Calls \p F for every neighbor of \p A in A's register class that is
  /// also in \p Among (a bit row over the nodes), in register order. Only
  /// the words of A's span are read: a long function's graph is sparse, and
  /// its rows are mostly zero words.
  template <typename Fn>
  void forEachClassNeighbor(Reg A, const uint64_t *Among, Fn F) const {
    const uint64_t *Row = row(A), *Mask = classMask(Types[A]);
    for (size_t WI = Spans[A].Begin; WI < Spans[A].End; ++WI)
      for (uint64_t W = Row[WI] & Mask[WI] & Among[WI]; W; W &= W - 1)
        F(static_cast<Reg>(WI * 64 + __builtin_ctzll(W)));
  }
  template <typename Fn> void forEachClassNeighbor(Reg A, Fn F) const {
    forEachClassNeighbor(A, LiveBits.data(), F); // rows hold live nodes only
  }

  /// Per-node degree within its own register class (colors are per-class,
  /// so only same-class neighbors constrain coloring). Maintained across
  /// merge() calls.
  unsigned classDegree(Reg A) const { return ClassDeg[A]; }
  const std::vector<unsigned> &classDegrees() const { return ClassDeg; }

  /// Coalesce update: fold node \p B into node \p A in place. The merged
  /// node's neighborhood becomes the union of the two old neighborhoods,
  /// and degrees, class degrees and spill costs are re-normalized. The
  /// union is conservative: where an erased copy was a live range's last
  /// reader, a rebuild of the rewritten function would drop some of its
  /// edges; the next spill round rebuilds anyway. Only
  /// bits, spans and counts change. \p B leaves liveNodes() and every
  /// row. Requires the two nodes be distinct, live, non-interfering,
  /// and of the same register class. \p CopyWeight is the deleted copy's
  /// weight (one def + one use leave the program with it).
  void merge(Reg A, Reg B, double CopyWeight);

  /// Copy instructions found during the build: (dst, src) pairs plus the
  /// copy's own spill-cost weight (10^loop-depth), so coalescing can
  /// deduct the instruction it deletes from the merged node's cost.
  struct CopyEdge {
    Reg Dst, Src;
    double Weight;
  };
  const std::vector<CopyEdge> &copies() const { return Copies; }

  /// Spill priority: dynamic-count estimate (uses+defs weighted by
  /// 10^loop-depth) divided by degree. Lower is cheaper to spill.
  const std::vector<double> &spillCosts() const { return Costs; }

private:
  /// Words [Begin, End) of a row; every word outside is zero.
  struct Span {
    uint32_t Begin = 0, End = 0;
  };

  /// Node \p A's neighbors as a bit row. Rows hold live nodes only: merge()
  /// clears a folded node out of every row.
  const uint64_t *row(Reg A) const { return &Matrix[A * Stride]; }
  uint64_t *row(Reg A) { return &Matrix[A * Stride]; }
  /// The registers of class \p T as a bit row.
  const uint64_t *classMask(RegType T) const {
    return &ClassMasks[static_cast<size_t>(T) * Stride];
  }
  /// Widens \p A's span to cover the word holding bit \p Bit.
  void cover(Reg A, Reg Bit) {
    uint32_t WI = Bit / 64;
    if (Spans[A].Begin == Spans[A].End)
      Spans[A] = {WI, WI + 1};
    else
      Spans[A] = {std::min(Spans[A].Begin, WI),
                  std::max(Spans[A].End, WI + 1)};
  }
  void normalizeCost(Reg A) {
    Costs[A] = Degrees[A] ? RawCosts[A] / Degrees[A] : RawCosts[A];
  }

  size_t N = 0, Stride = 0;
  LiveSets Live;
  std::vector<uint64_t> Matrix;
  std::vector<Span> Spans;
  std::vector<uint64_t> ClassMasks; ///< one row per RegType
  std::vector<uint64_t> LiveBits;
  std::vector<uint64_t> LiveNow; ///< build scratch
  std::vector<unsigned> Degrees;
  std::vector<unsigned> ClassDeg;
  std::vector<RegType> Types;
  std::vector<CopyEdge> Copies;
  std::vector<double> RawCosts;
  std::vector<double> Costs;
};

} // namespace rpcc

#endif // RPCC_REGALLOC_LIVERANGE_H
