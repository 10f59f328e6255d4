//===- perfbench/src/Replica.cpp ------------------------------------------===//
//
// Mirrors driver/Compiler.cpp (frontendInto, analyzeInto, suffixInto) with
// a span around every pass. Keep the call order in step with that file;
// compareWithPipeline() fails the traced run when the two drift apart.
//
//===----------------------------------------------------------------------===//

#include "Replica.h"

#include "alias/ModRef.h"
#include "alias/PointsTo.h"
#include "alias/TagRefine.h"
#include "analysis/CfgNormalize.h"
#include "driver/PassTiming.h"
#include "frontend/Lowering.h"
#include "interp/Decode.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/CopyProp.h"
#include "opt/Dce.h"
#include "opt/Licm.h"
#include "opt/Pre.h"
#include "opt/Sccp.h"
#include "opt/ValueNumbering.h"
#include "promote/ScalarPromotion.h"
#include "regalloc/GraphColoring.h"
#include "support/Sandbox.h"

#include <cstring>
#include <sstream>

using namespace rpcc;
using namespace rpbench;

namespace {

void normalizeAll(Module &M, SpanLog &L, uint64_t Op) {
  Scoped S(L, "analysis.cfg_normalize", Op);
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      normalizeLoops(*F);
  }
}

std::unique_ptr<Module> cloneOf(const Module &M, SpanLog &L, uint64_t Op) {
  Scoped S(L, "ir.clone", Op);
  return M.clone();
}

} // namespace

std::unique_ptr<Module> rpbench::replicaFrontend(const std::string &Source,
                                                 SpanLog &L, uint64_t Op,
                                                 LayerCounts &C) {
  auto M = std::make_unique<Module>();
  std::string Errors;
  bool Lowered;
  {
    Scoped S(L, "frontend.lower", Op);
    Lowered = compileToIL(Source, *M, Errors);
  }
  if (!Lowered)
    return nullptr;
  C.FrontendIlOps += countStaticOps(*M);
  normalizeAll(*M, L, Op);
  return M;
}

std::unique_ptr<Module> rpbench::replicaAnalyze(const Module &Frontend,
                                                bool PointsTo, SpanLog &L,
                                                uint64_t Op) {
  std::unique_ptr<Module> M = cloneOf(Frontend, L, Op);
  if (PointsTo) {
    PointsToResult PT;
    {
      Scoped S(L, "alias.points_to", Op);
      PT = runPointsTo(*M);
    }
    Scoped S(L, "alias.modref", Op);
    runModRef(*M, &PT);
  } else {
    Scoped S(L, "alias.modref", Op);
    runModRef(*M);
  }
  return M;
}

std::unique_ptr<Module> rpbench::replicaSuffix(const Module &Analyzed,
                                               const Config &Cfg, SpanLog &L,
                                               uint64_t Op, LayerCounts &C,
                                               CompileStats &Stats) {
  std::unique_ptr<Module> MP = cloneOf(Analyzed, L, Op);
  Module &M = *MP;
  {
    Scoped S(L, "alias.strengthen", Op);
    Stats.Strengthen = strengthenOpcodes(M);
  }
  if (Cfg.Promote) {
    Scoped S(L, "promote", Op);
    Stats.Promo = promoteScalars(M, PromotionOptions());
  }
  {
    Scoped S(L, "opt.vn", Op);
    Stats.Vn = runValueNumbering(M);
  }
  {
    Scoped S(L, "opt.pre", Op);
    Stats.Pre = runPre(M);
  }
  {
    Scoped S(L, "opt.copy_prop", Op);
    propagateCopies(M);
  }
  {
    Scoped S(L, "opt.sccp", Op);
    Stats.Sccp = runSccp(M);
  }
  {
    Scoped S(L, "opt.cleanup", Op);
    runCleanup(M);
  }
  normalizeAll(M, L, Op);
  {
    Scoped S(L, "opt.licm", Op);
    Stats.Licm = runLicm(M);
  }
  {
    Scoped S(L, "opt.dce", Op);
    Stats.DceRemoved = runDce(M);
  }
  {
    RegAllocOptions RA;
    RA.NumRegisters = Cfg.Registers;
    RA.GeorgeCoalescing = true;
    RA.Rematerialization = true;
    Scoped S(L, "regalloc", Op);
    Stats.RegAlloc = allocateRegisters(M, RA);
  }
  {
    Scoped S(L, "opt.cleanup", Op);
    runCleanup(M);
  }
  bool Verified;
  {
    std::string Err;
    Scoped S(L, "ir.verify", Op);
    Verified = verifyModule(M, Err);
  }
  if (!Verified)
    return nullptr;
  C.PromotedTags += Stats.Promo.PromotedTags;
  C.RewrittenOps += Stats.Promo.RewrittenOps;
  C.RegallocRounds += Stats.RegAlloc.Rounds;
  C.SpilledRegs += Stats.RegAlloc.SpilledRegs;
  C.CoalescedCopies += Stats.RegAlloc.CoalescedCopies;
  return MP;
}

namespace {

/// Layouts plus decode, as Machine::run performs them before executing.
void decodeOnce(const Module &M, InterpEngine E) {
  GlobalLayout GL = computeGlobalLayout(M);
  std::vector<FrameLayout> Layouts = computeFrameLayouts(M);
  decodeModule(M, GL, Layouts, nullptr, /*Fuse=*/E == InterpEngine::FastPath);
}

/// Times of one decode + execute, taken where the work ran.
struct ExecTimes {
  double DecodeStart = 0, DecodeEnd = 0, RunStart = 0, RunEnd = 0;
  double JitCompileMs = 0;
};

ExecResult timedExecute(const Module &M, const InterpOptions &IO,
                        ExecTimes &T) {
  T.DecodeStart = timingNowMs();
  if (IO.Engine != InterpEngine::Switch)
    decodeOnce(M, IO.Engine);
  T.DecodeEnd = T.RunStart = timingNowMs();
  ExecResult R = interpret(M, IO);
  T.RunEnd = timingNowMs();
  T.JitCompileMs = R.JitCompileMs;
  return R;
}

/// Turns one decode + execute into spans: the decode span, and an execute
/// span whose children are the engine's internal re-decode (uncharged) and
/// the jit's compile time.
void recordExec(SpanLog &L, uint64_t Op, InterpEngine E, const ExecTimes &T,
                const ExecResult &R, LayerCounts &C) {
  bool Jit = E == InterpEngine::Jit;
  L.add("interp.decode", T.DecodeStart, T.DecodeEnd, Op);
  int Run = L.openAt(Jit ? "jit.exec" : "interp.exec", Op, T.RunStart);
  double Decode = T.DecodeEnd - T.DecodeStart;
  L.add("interp.redecode", T.RunStart, T.RunStart + Decode, Op);
  if (Jit)
    L.add("jit.compile", T.RunStart + Decode,
          T.RunStart + Decode + T.JitCompileMs, Op);
  L.closeAt(Run, T.RunEnd);
  (Jit ? C.JitSteps : C.InterpSteps) += R.Counters.Total;
}

uint64_t bitsOf(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

double doubleOf(uint64_t U) {
  double D;
  std::memcpy(&D, &U, sizeof(D));
  return D;
}

} // namespace

ExecResult rpbench::replicaExecute(const Module &M, InterpEngine E, SpanLog &L,
                                   uint64_t Op, LayerCounts &C) {
  InterpOptions IO;
  IO.Engine = E;
  ExecTimes T;
  ExecResult R = timedExecute(M, IO, T);
  recordExec(L, Op, E, T, R, C);
  return R;
}

bool rpbench::replicaSandboxedRun(const Module &M, SpanLog &L, uint64_t Op,
                                  LayerCounts &C, ExecResult &Out,
                                  std::string &Err) {
  // rpserved's /run: default sandbox caps, the interpreter's own deadline at
  // 80% of the wall cap, the jit engine where the build supports it.
  SandboxOptions SO;
  SO.Limits.WallSeconds = 10;
  SO.Limits.MemoryBytes = uint64_t(512) << 20;
  InterpOptions IO;
  IO.Engine = jitSupported() ? InterpEngine::Jit : InterpEngine::FastPath;
  IO.WallDeadlineMs = SO.Limits.WallSeconds * 1000.0 * 0.8;

  int Fork = L.open("support.sandbox_fork", Op);
  SandboxResult SR = runSandboxed(
      [&M, &IO](std::string &Payload) {
        ExecTimes T;
        ExecResult ER = timedExecute(M, IO, T);
        PayloadWriter W;
        W.u8(ER.Ok ? 1 : 0);
        W.str(ER.Error);
        W.i64(ER.ExitCode);
        W.str(ER.Output);
        W.u64(ER.Counters.Total);
        W.u64(ER.Counters.Loads);
        W.u64(ER.Counters.Stores);
        for (double D : {T.DecodeStart, T.DecodeEnd, T.RunStart, T.RunEnd,
                         T.JitCompileMs})
          W.u64(bitsOf(D));
        Payload = W.take();
        return true;
      },
      SO);
  if (!SR.ok()) {
    L.close(Fork);
    Err = std::string("sandbox: ") + sandboxStatusName(SR.Status) + " " +
          SR.Error;
    return false;
  }
  PayloadReader Rd(SR.Payload);
  Out.Ok = Rd.u8() != 0;
  Out.Error = Rd.str();
  Out.ExitCode = Rd.i64();
  Out.Output = Rd.str();
  Out.Counters.Total = Rd.u64();
  Out.Counters.Loads = Rd.u64();
  Out.Counters.Stores = Rd.u64();
  ExecTimes T;
  T.DecodeStart = doubleOf(Rd.u64());
  T.DecodeEnd = doubleOf(Rd.u64());
  T.RunStart = doubleOf(Rd.u64());
  T.RunEnd = doubleOf(Rd.u64());
  T.JitCompileMs = doubleOf(Rd.u64());
  if (!Rd.complete()) {
    L.close(Fork);
    Err = "sandbox: malformed payload";
    return false;
  }
  // The child's steady clock is the parent's (CLOCK_MONOTONIC), so its
  // spans nest inside the fork span; the fork span's self time is the
  // sandbox's own cost: fork, pipe, watchdog and reaping.
  recordExec(L, Op, IO.Engine, T, Out, C);
  L.close(Fork);
  return true;
}

const std::vector<std::string> &rpbench::unchargedSpans() {
  static const std::vector<std::string> Names = {"interp.redecode", "op"};
  return Names;
}

std::string rpbench::compareWithPipeline(const Module &Replica,
                                         const CompileStats &RS,
                                         const AnalyzedModule &AM,
                                         const Config &Cfg) {
  CompileOutput Ref = compileSuffix(AM, compilerConfig(Cfg));
  if (!Ref.Ok)
    return "compileSuffix failed: " + Ref.Errors;
  if (printModule(*Ref.M) != printModule(Replica))
    return "printed IL differs from compileSuffix";
  const CompileStats &S = Ref.Stats;
  std::ostringstream OS;
  auto Check = [&](const char *What, uint64_t Want, uint64_t Got) {
    if (Want != Got)
      OS << What << " " << Got << " (compileSuffix " << Want << ") ";
  };
  Check("promoted_tags", S.Promo.PromotedTags, RS.Promo.PromotedTags);
  Check("rewritten_ops", S.Promo.RewrittenOps, RS.Promo.RewrittenOps);
  Check("regalloc.rounds", S.RegAlloc.Rounds, RS.RegAlloc.Rounds);
  Check("regalloc.spilled", S.RegAlloc.SpilledRegs, RS.RegAlloc.SpilledRegs);
  Check("regalloc.coalesced", S.RegAlloc.CoalescedCopies,
        RS.RegAlloc.CoalescedCopies);
  Check("dce_removed", S.DceRemoved, RS.DceRemoved);
  return OS.str();
}
