//===- regalloc/GraphColoring.h - Chaitin-Briggs allocator -------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph-coloring register allocation following Briggs, Cooper & Torczon
/// (TOPLAS 1994), the allocator the paper uses ([1]): build, conservative
/// coalesce, simplify with optimistic spilling, select, and spill-code
/// insertion, iterating until the graph colors. Promotion's copies "are
/// subject to coalescing by the register allocator. It is quite effective
/// at eliminating copies like these." When demand exceeds supply the
/// allocator spills — reproducing the paper's `water` anecdote, where
/// twenty-eight promoted values caused enough spilling to lose.
///
/// Each round builds one flat bit-matrix graph (regalloc/Liverange.h) into
/// storage that one call keeps for all its rounds and functions, walks
/// neighbors straight off the matrix rows masked by register class, takes
/// optimistic-spill picks from one (cost, register)-sorted list, and
/// rewrites every spilled register in one walk of the function. The IL it
/// produces is pinned byte for byte by tests/golden/regalloc_il.txt.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_REGALLOC_GRAPHCOLORING_H
#define RPCC_REGALLOC_GRAPHCOLORING_H

#include "ir/Module.h"

namespace rpcc {

struct RegAllocOptions {
  /// Registers per class. The machine model is MIPS-era: NumRegisters
  /// integer registers plus NumRegisters floating-point registers.
  /// Physical numbering: integers take 0..K-1, floats K..2K-1.
  unsigned NumRegisters = 32;
  /// George's coalescing test in addition to Briggs' (iterated-coalescing
  /// vintage). Off approximates the paper's 1994-era allocator, which
  /// footnotes that graph-coloring allocators "are known to over-spill in
  /// tight situations".
  bool GeorgeCoalescing = true;
  /// Rematerialize constants/addresses instead of spilling them.
  bool Rematerialization = true;
};

struct RegAllocStats {
  unsigned CoalescedCopies = 0;     ///< copies merged away
  unsigned SpilledRegs = 0;         ///< virtual registers sent to memory
  unsigned RematerializedRegs = 0;  ///< constants/addresses recomputed
  unsigned SpillLoads = 0;          ///< static reload instructions inserted
  unsigned SpillStores = 0;         ///< static spill-store instructions
  unsigned Rounds = 0;              ///< build/spill iterations
  unsigned ColorsUsed = 0;
};

/// Allocates one function: after return every register index is < K, spill
/// code references fresh Spill tags, and coalesced/identity copies are gone.
RegAllocStats allocateRegisters(Module &M, Function &F,
                                const RegAllocOptions &Opts = {});

/// Allocates every non-builtin function.
RegAllocStats allocateRegisters(Module &M, const RegAllocOptions &Opts = {});

} // namespace rpcc

#endif // RPCC_REGALLOC_GRAPHCOLORING_H
