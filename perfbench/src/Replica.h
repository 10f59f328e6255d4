//===- perfbench/src/Replica.h - Pass-by-pass pipeline replica --*- C++ -*-===//
//
// Part of rpcc's benchmark (see perfbench/README.md). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's copy of driver/Compiler.cpp: the same public pass entry
/// points, called in the same order, each inside a span. The faithfulness
/// check compares what it produces with compileSuffix and the engines, so a
/// pipeline change that this replica does not follow fails the traced run
/// instead of timing a different compiler.
///
//===----------------------------------------------------------------------===//

#ifndef RPBENCH_REPLICA_H
#define RPBENCH_REPLICA_H

#include "Bench.h"
#include "Spans.h"

namespace rpbench {

/// Count-valued per-layer facts gathered alongside the spans.
struct LayerCounts {
  uint64_t InterpSteps = 0; ///< ops executed by the interpreted engines
  uint64_t JitSteps = 0;    ///< ops executed by the jit engine
  uint64_t PromotedTags = 0, RewrittenOps = 0;
  uint64_t RegallocRounds = 0, SpilledRegs = 0, CoalescedCopies = 0;
  uint64_t FrontendIlOps = 0;
};

/// Stage 1: compileToIL then normalizeLoops on every function.
std::unique_ptr<rpcc::Module> replicaFrontend(const std::string &Source,
                                              SpanLog &L, uint64_t Op,
                                              LayerCounts &C);

/// Stage 2: Module::clone of the frontend module, then points-to (for the
/// points-to kind) and MOD/REF.
std::unique_ptr<rpcc::Module> replicaAnalyze(const rpcc::Module &Frontend,
                                             bool PointsTo, SpanLog &L,
                                             uint64_t Op);

/// Stage 3: Module::clone of the analyzed module, then every suffix pass
/// through allocateRegisters and verifyModule. Returns null if the verifier
/// rejects the result.
std::unique_ptr<rpcc::Module> replicaSuffix(const rpcc::Module &Analyzed,
                                            const Config &Cfg, SpanLog &L,
                                            uint64_t Op, LayerCounts &C,
                                            rpcc::CompileStats &Stats);

/// Times the layouts and decode as their own span, then interpret(). The
/// engine decodes again inside interpret(); that repeat is recorded as an
/// "interp.redecode" child so it is not charged to execution, and the jit's
/// own compile time (ExecResult::JitCompileMs) as a "jit.compile" child.
rpcc::ExecResult replicaExecute(const rpcc::Module &M, rpcc::InterpEngine E,
                                SpanLog &L, uint64_t Op, LayerCounts &C);

/// The same decode/execute split, run inside a forked sandbox child exactly
/// as rpserved's /run does; the child's timings come back in the payload.
/// Returns false (with \p Err) when the child did not finish cleanly.
bool replicaSandboxedRun(const rpcc::Module &M, SpanLog &L, uint64_t Op,
                         LayerCounts &C, rpcc::ExecResult &Out,
                         std::string &Err);

/// Span names whose time the traced run attributes to no layer: repeats of
/// work the real pipeline does once.
const std::vector<std::string> &unchargedSpans();

/// Faithfulness: printed IL and compile stats of the replica suffix against
/// compileSuffix on the same analyzed module. Returns "" when identical.
std::string compareWithPipeline(const rpcc::Module &Replica,
                                const rpcc::CompileStats &ReplicaStats,
                                const rpcc::AnalyzedModule &AM,
                                const Config &Cfg);

} // namespace rpbench

#endif // RPBENCH_REPLICA_H
