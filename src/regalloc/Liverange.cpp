//===- regalloc/Liverange.cpp ---------------------------------------------===//

#include "regalloc/Liverange.h"

#include "analysis/LoopInfo.h"

#include <cassert>
#include <cmath>

using namespace rpcc;

std::vector<double> rpcc::loopDepthWeights(const Function &F) {
  LoopInfo LI(F);
  std::vector<double> W(F.numBlocks(), 1.0);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    int LoopIdx = LI.innermostLoop(B);
    unsigned Depth = LoopIdx < 0 ? 0 : LI.loop(LoopIdx).Depth;
    W[B] = std::pow(10.0, static_cast<double>(Depth));
  }
  return W;
}

namespace {

/// Zero-fills \p V to \p Size words. Growing past the capacity frees the
/// old buffer first, so a rebuild never holds two copies at once (one long
/// function's matrix can run to hundreds of MB).
void resetWords(std::vector<uint64_t> &V, size_t Size) {
  if (Size > V.capacity())
    std::vector<uint64_t>().swap(V);
  V.assign(Size, 0);
}

} // namespace

//===----------------------------------------------------------------------===//
// LiveSets
//===----------------------------------------------------------------------===//

void LiveSets::compute(const Function &F) {
  N = F.numRegs();
  Stride = bitWords(N);
  const size_t Total = F.numBlocks() * Stride;
  resetWords(In, Total);
  resetWords(Out, Total);
  resetWords(Use, Total);
  resetWords(Def, Total);
  // Block-local upward-exposed uses and definitions.
  for (const auto &B : F.blocks()) {
    uint64_t *U = &Use[B->id() * Stride], *D = &Def[B->id() * Stride];
    for (const auto &IP : B->insts()) {
      const Instruction &I = *IP;
      assert(I.Op != Opcode::Phi && "liveness runs on phi-free IL");
      for (Reg R : I.Ops)
        if (!testBit(D, R))
          setBit(U, R);
      if (I.hasResult())
        setBit(D, I.Result);
    }
  }

  // Worklist iteration to the (unique) least fixpoint of the backward
  // problem: In = Use | (Out & ~Def), Out = union of the successors' In.
  // A block is revisited only when a successor's In grew.
  const size_t NB = F.numBlocks();
  Queued.assign(NB, 1);
  Work.clear();
  for (size_t BI = 0; BI != NB; ++BI)
    Work.push_back(static_cast<BlockId>(BI)); // popped back-to-front
  while (!Work.empty()) {
    BlockId BI = Work.back();
    Work.pop_back();
    Queued[BI] = 0;
    const BasicBlock *B = F.block(BI);
    uint64_t *O = &Out[BI * Stride], *I = &In[BI * Stride];
    const uint64_t *U = &Use[BI * Stride], *D = &Def[BI * Stride];
    for (size_t WI = 0; WI != Stride; ++WI)
      O[WI] = 0;
    for (BlockId S : B->succs())
      for (size_t WI = 0; WI != Stride; ++WI)
        O[WI] |= In[S * Stride + WI];
    bool InChanged = false;
    for (size_t WI = 0; WI != Stride; ++WI) {
      uint64_t New = U[WI] | (O[WI] & ~D[WI]);
      InChanged |= New != I[WI];
      I[WI] = New;
    }
    if (InChanged)
      for (BlockId P : B->preds())
        if (!Queued[P]) {
          Queued[P] = 1;
          Work.push_back(P);
        }
  }
}

//===----------------------------------------------------------------------===//
// InterferenceGraph
//===----------------------------------------------------------------------===//

InterferenceGraph::InterferenceGraph(const Function &F) {
  build(F, loopDepthWeights(F));
}

void InterferenceGraph::build(const Function &F,
                              const std::vector<double> &BlockWeight) {
  Live.compute(F);
  N = F.numRegs();
  Stride = bitWords(N);
  resetWords(Matrix, N * Stride);
  resetWords(ClassMasks, 2 * Stride);
  resetWords(LiveBits, Stride);
  LiveNow.resize(Stride);
  Degrees.assign(N, 0);
  ClassDeg.assign(N, 0);
  Types.resize(N);
  Copies.clear();
  RawCosts.assign(N, 0.0);
  Costs.resize(N);
  for (Reg R = 0; R != N; ++R) {
    Types[R] = F.regType(R);
    setBit(&ClassMasks[static_cast<size_t>(Types[R]) * Stride], R);
  }
  for (Reg P : F.paramRegs())
    setBit(LiveBits.data(), P);

  // Each definition interferes with everything live across it. The live
  // set is OR-ed into the definition's row a word at a time; rows are
  // symmetrized below, once, instead of mirroring every bit as it is
  // discovered.
  uint64_t *Now = LiveNow.data();
  for (const auto &B : F.blocks()) {
    // Spill-cost weight grows with loop depth.
    double Weight = BlockWeight[B->id()];
    const uint64_t *LO = Live.liveOut(B->id());
    for (size_t WI = 0; WI != Stride; ++WI)
      Now[WI] = LO[WI];
    // Walk backward building interferences.
    const auto &Insts = B->insts();
    for (size_t Idx = Insts.size(); Idx-- > 0;) {
      const Instruction &I = *Insts[Idx];
      if (I.hasResult()) {
        setBit(LiveBits.data(), I.Result);
        RawCosts[I.Result] += Weight;
        if (I.Op == Opcode::Copy) {
          Copies.push_back(CopyEdge{I.Result, I.Ops[0], Weight});
          // Chaitin's refinement: the copy source does not interfere with
          // the destination (they may share a register).
          resetBit(Now, I.Ops[0]);
        }
        uint64_t *Row = row(I.Result);
        for (size_t WI = 0; WI != Stride; ++WI)
          Row[WI] |= Now[WI];
        resetBit(Now, I.Result);
      }
      for (Reg U : I.Ops) {
        setBit(Now, U);
        setBit(LiveBits.data(), U);
        RawCosts[U] += Weight;
      }
    }
    // Parameters are defined at entry: they interfere with everything live
    // into the entry block.
    if (B->id() == 0) {
      const uint64_t *EntryIn = Live.liveIn(0);
      for (Reg P : F.paramRegs()) {
        uint64_t *Row = row(P);
        for (size_t WI = 0; WI != Stride; ++WI)
          Row[WI] |= EntryIn[WI];
      }
    }
  }

  // Drop self-edges, then close the matrix under symmetry. Setting the
  // mirror bit of an already-mirrored edge is a no-op, so visiting rows in
  // order — including transpose bits added by earlier rows — is safe.
  for (Reg R = 0; R != N; ++R)
    resetBit(row(R), R);
  for (Reg R = 0; R != N; ++R) {
    const uint64_t *Row = row(R);
    for (size_t WI = 0; WI != Stride; ++WI)
      for (uint64_t W = Row[WI]; W; W &= W - 1)
        setBit(row(static_cast<Reg>(WI * 64 + __builtin_ctzll(W))), R);
  }

  // Spans, degrees and per-class degrees straight off the final rows;
  // normalize cost to cost/degree (classic Chaitin heuristic). The raw
  // counts are kept so merge() can re-normalize as degrees shift.
  Spans.assign(N, Span());
  for (Reg R = 0; R != N; ++R) {
    const uint64_t *Row = row(R), *Mask = classMask(Types[R]);
    unsigned Deg = 0, Same = 0;
    for (size_t WI = 0; WI != Stride; ++WI) {
      if (!Row[WI])
        continue;
      cover(R, static_cast<Reg>(WI * 64));
      Deg += static_cast<unsigned>(__builtin_popcountll(Row[WI]));
      Same += static_cast<unsigned>(__builtin_popcountll(Row[WI] & Mask[WI]));
    }
    Degrees[R] = Deg;
    ClassDeg[R] = Same;
    normalizeCost(R);
  }
}

void InterferenceGraph::merge(Reg A, Reg B, double CopyWeight) {
  // B's neighbors become A's. A shared neighbor loses B and keeps A —
  // the merged node counts once — while a B-only neighbor swaps B for A
  // at unchanged degree. Types[A] == Types[B] by precondition, so the
  // class-degree bookkeeping mirrors the plain degrees.
  uint64_t *RowA = row(A), *RowB = row(B);
  for (size_t WI = Spans[B].Begin; WI < Spans[B].End; ++WI)
    for (uint64_t W = RowB[WI]; W; W &= W - 1) {
      Reg Nb = static_cast<Reg>(WI * 64 + __builtin_ctzll(W));
      if (Nb == A)
        continue;
      uint64_t *RowNb = row(Nb);
      resetBit(RowNb, B);
      if (testBit(RowNb, A)) {
        --Degrees[Nb];
        if (Types[Nb] == Types[B])
          --ClassDeg[Nb];
        normalizeCost(Nb);
      } else {
        setBit(RowNb, A);
        cover(Nb, A);
        setBit(RowA, Nb);
        cover(A, Nb);
      }
    }
  resetBit(RowA, B);
  for (size_t WI = Spans[B].Begin; WI < Spans[B].End; ++WI)
    RowB[WI] = 0;
  Spans[B] = Span();
  resetBit(LiveBits.data(), B);
  // The combined live range spills as one unit: pool the raw weighted
  // counts — minus the deleted copy's def and use — then re-normalize
  // against the merged degree.
  RawCosts[A] += RawCosts[B] - 2 * CopyWeight;
  const uint64_t *Mask = classMask(Types[A]);
  unsigned Deg = 0, Same = 0;
  for (size_t WI = Spans[A].Begin; WI < Spans[A].End; ++WI) {
    Deg += static_cast<unsigned>(__builtin_popcountll(RowA[WI]));
    Same += static_cast<unsigned>(__builtin_popcountll(RowA[WI] & Mask[WI]));
  }
  Degrees[A] = Deg;
  ClassDeg[A] = Same;
  normalizeCost(A);
}
