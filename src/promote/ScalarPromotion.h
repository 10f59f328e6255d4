//===- promote/ScalarPromotion.h - Loop-based register promotion -*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core algorithm (§3.1, Figure 1). For every basic block b:
///
///   B_EXPLICIT(b)  = tags referenced by an explicit (scalar) memory op in b
///   B_AMBIGUOUS(b) = tags referenced ambiguously in b, through procedure
///                    calls or pointer-based memory operations
///
/// and for every loop l:
///
///   L_EXPLICIT(l)   = union of B_EXPLICIT over l's blocks            (1)
///   L_AMBIGUOUS(l)  = union of B_AMBIGUOUS over l's blocks           (2)
///   L_PROMOTABLE(l) = L_EXPLICIT(l) - L_AMBIGUOUS(l)                 (3)
///   L_LIFT(l)       = L_PROMOTABLE(l)                 if l outermost (4)
///                     L_PROMOTABLE(l) - L_PROMOTABLE(parent(l)) else
///
/// Every tag in some L_LIFT(l) is promoted: its references inside l become
/// register copies, a load is placed in l's landing pad, and stores are
/// placed in l's exit blocks. The copies are left for the register
/// allocator to coalesce, exactly as in the paper.
///
/// Conservative deviation (DESIGN.md §3): the paper's B_AMBIGUOUS counts
/// only pointer ops "where the pointer contains multiple tags"; singleton
/// pointer ops over scalars are rewritten to scalar ops by opcode
/// strengthening before promotion, so we include *all* remaining pointer
/// ops in B_AMBIGUOUS — identical behavior when strengthening runs, strictly
/// safer when it does not.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_PROMOTE_SCALARPROMOTION_H
#define RPCC_PROMOTE_SCALARPROMOTION_H

#include "ir/Module.h"

#include <compare>
#include <vector>

namespace rpcc {

class LoopInfo;
class RemarkEngine;

struct PromotionOptions {
  /// Extension (off = paper behavior): omit the demotion store when the
  /// loop contains no store to the tag.
  bool StoreOnlyIfModified = false;
  /// Extension (0 = unlimited = paper behavior): cap on tags lifted per
  /// loop, a crude register-pressure throttle in the spirit of Carr's
  /// bin-packing remedy the paper proposes as future work.
  unsigned MaxPromotedPerLoop = 0;

  auto operator<=>(const PromotionOptions &) const = default;
};

/// The four Figure 1 sets for one loop; exposed for tests and for the
/// Figure 2 experiment binary.
struct LoopPromotionInfo {
  BlockId Header = NoBlock;
  unsigned Depth = 1;
  TagSet Explicit, Ambiguous, Promotable, Lift;
  /// Partition of Ambiguous by cause, for remark reason codes: tags made
  /// ambiguous by call MOD/REF summaries vs by pointer-based memory ops.
  /// A tag can be in both; remarks report the call as the (dominant) cause.
  TagSet AmbiguousCall, AmbiguousPtr;
};

struct PromotionStats {
  unsigned PromotedTags = 0;   ///< (tag, outermost loop) pairs lifted
  unsigned RewrittenOps = 0;   ///< memory ops turned into copies
  unsigned LoadsInserted = 0;  ///< landing-pad loads
  unsigned StoresInserted = 0; ///< exit-block stores
};

/// Computes the Figure 1 sets without rewriting (analysis only). Requires a
/// normalized CFG (normalizeLoops) and populated tag sets (runModRef).
std::vector<LoopPromotionInfo> analyzeScalarPromotion(const Module &M,
                                                      const Function &F);

/// Same, against a caller-provided loop forest so the result indices line up
/// with \p LI's loop order (used by the residual audit).
std::vector<LoopPromotionInfo> analyzeScalarPromotion(const Module &M,
                                                      const Function &F,
                                                      const LoopInfo &LI);

/// Promotes scalars in one function. Requirements as above. When \p Re is
/// non-null, one remark is emitted per (loop, candidate tag): promoted, or
/// missed with the blocking reason.
PromotionStats promoteScalarsInFunction(Module &M, Function &F,
                                        const PromotionOptions &Opts = {},
                                        RemarkEngine *Re = nullptr);

/// Promotes scalars in every non-builtin function of \p M.
PromotionStats promoteScalars(Module &M, const PromotionOptions &Opts = {},
                              RemarkEngine *Re = nullptr);

} // namespace rpcc

#endif // RPCC_PROMOTE_SCALARPROMOTION_H
