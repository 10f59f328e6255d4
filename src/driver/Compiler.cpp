//===- driver/Compiler.cpp ------------------------------------------------===//

#include "driver/Compiler.h"

#include "alias/ModRef.h"
#include "alias/PointsTo.h"
#include "analysis/CfgNormalize.h"
#include "frontend/Lowering.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/Remark.h"
#include "obs/ResidualAudit.h"
#include "obs/Trace.h"
#include "opt/Cleanup.h"
#include "opt/CopyProp.h"
#include "opt/Dce.h"

using namespace rpcc;

namespace {

void normalizeAll(Module &M) {
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      normalizeLoops(*F);
  }
}

/// The stage latencies, observed wherever a stage runs: through the prefix
/// store or in place. Count-stable: how many frontends, analyses and
/// suffixes run is deterministic per workload, their durations are wall
/// time.
struct StageMetrics {
  Histogram FrontendUs, AnalysisUs, SuffixUs;
  StageMetrics() {
    auto &R = MetricsRegistry::global();
    auto Us = [&](const char *Name, const char *Help) {
      return R.histogram(Name, {}, MetricStability::CountStable, "us", Help);
    };
    FrontendUs = Us("compile.frontend_us",
                    "Frontend stage latency (lex..cfg-normalize).");
    AnalysisUs = Us("compile.analysis_us", "Alias analysis stage latency.");
    SuffixUs = Us("compile.suffix_us",
                  "Config-dependent compile suffix latency (suffixes that "
                  "ran).");
  }
};

StageMetrics &stageMetrics() {
  static StageMetrics M;
  return M;
}

} // namespace

namespace {

/// Stamps CompileOutput::Timing with the whole-pipeline wall time on every
/// exit path when timing collection is on.
struct PipelineClock {
  CompileOutput &Out;
  bool Enabled;
  double Start;
  PipelineClock(CompileOutput &Out, bool Enabled)
      : Out(Out), Enabled(Enabled), Start(Enabled ? timingNowMs() : 0) {}
  ~PipelineClock() {
    if (Enabled) {
      Out.Timing.CompileMillis = timingNowMs() - Start;
      Out.Timing.Compiles = 1;
    }
  }
};

/// Wraps one pass: records wall time and static op counts before/after when
/// a timing report is attached, adds a trace span when tracing is on,
/// otherwise just runs the pass. Shared by all three pipeline stages so the
/// staged and in-place paths observe identically.
struct PassRunner {
  Module &M;
  TimingReport *Timing; ///< null when not collecting
  TraceCollector *Trace;
  std::string Label;

  template <typename BodyT> void run(const char *Name, BodyT &&Body) {
    if (!Timing && !Trace) {
      Body();
      return;
    }
    uint64_t Before = Timing ? countStaticOps(M) : 0;
    double T0 = timingNowMs();
    Body();
    double T1 = timingNowMs();
    if (Timing)
      Timing->addPass(Name, T1 - T0, Before, countStaticOps(M));
    if (Trace) {
      std::vector<std::pair<std::string, std::string>> Args;
      if (!Label.empty())
        Args.push_back({"job", Label});
      Trace->addSpan(Name, "pass", T0, T1 - T0, std::move(Args));
    }
  }
};

/// Stage 1 body: lowering plus the landing-pad/dedicated-exit CFG shape the
/// paper's CFG construction guarantees.
bool frontendInto(const std::string &Source, Module &M, std::string &Errors,
                  PassRunner &R) {
  bool Lowered = false;
  R.run("lower", [&] { Lowered = compileToIL(Source, M, Errors); });
  if (!Lowered)
    return false;
  R.run("cfg-normalize", [&] { normalizeAll(M); });
  return true;
}

/// Stage 2 body: interprocedural analysis; encodes results in tag sets and
/// call summaries for the suffix to consume.
void analyzeInto(Module &M, AnalysisKind Kind, PassRunner &R) {
  if (Kind == AnalysisKind::PointsTo) {
    PointsToResult PT;
    R.run("points-to", [&] { PT = runPointsTo(M); });
    R.run("modref", [&] { runModRef(M, &PT); });
  } else {
    R.run("modref", [&] { runModRef(M); });
  }
}

/// Stage 3 body: everything configuration-dependent, from the fuzzer's
/// analysis-widening hook through verification and the residual audit. It
/// reads the suffix options \p S and the two inputs that are not a function
/// of them (\p Hook, \p Remarks), never the analysis kind; \p Audit is
/// \p Remarks when the residual audit should run. Sets Out.Ok/Out.Errors;
/// Out.M must already alias M.
void suffixInto(Module &M, CompileOutput &Out, const SuffixOptions &S,
                const std::function<void(Module &)> &Hook,
                RemarkEngine *Remarks, RemarkEngine *Audit, PassRunner &R) {
  if (Hook)
    Hook(M);
  R.run("strengthen", [&] { Out.Stats.Strengthen = strengthenOpcodes(M); });

  // Register promotion happens "in the early phases of optimization".
  if (S.ScalarPromotion)
    R.run("promote", [&] {
      Out.Stats.Promo = promoteScalars(M, S.Promo, Remarks);
    });

  if (S.EnableOpts) {
    R.run("vn", [&] { Out.Stats.Vn = runValueNumbering(M); });
    R.run("pre", [&] { Out.Stats.Pre = runPre(M, Remarks); });
    R.run("copy-prop", [&] { propagateCopies(M); });
    R.run("sccp", [&] { Out.Stats.Sccp = runSccp(M); });
    R.run("cleanup", [&] { runCleanup(M); });
    R.run("cfg-normalize", [&] { normalizeAll(M); });
    R.run("licm", [&] { Out.Stats.Licm = runLicm(M, Remarks); });
  }

  // §3.3 pointer-based promotion runs after LICM has exposed invariant
  // base addresses.
  if (S.PointerPromotion) {
    R.run("cfg-normalize", [&] { normalizeAll(M); });
    R.run("ptr-promote", [&] {
      Out.Stats.PtrPromo = promotePointers(M, Remarks);
    });
  }

  if (S.EnableOpts)
    R.run("dce", [&] { Out.Stats.DceRemoved = runDce(M); });

  if (S.RegisterAllocation) {
    RegAllocOptions RA;
    RA.NumRegisters = S.NumRegisters;
    RA.GeorgeCoalescing = !S.ClassicAllocator;
    RA.Rematerialization = !S.ClassicAllocator;
    R.run("regalloc", [&] { Out.Stats.RegAlloc = allocateRegisters(M, RA); });
  }

  R.run("cleanup", [&] { runCleanup(M); });

  bool Verified = false;
  std::string VerifyErr;
  R.run("verify", [&] { Verified = verifyModule(M, VerifyErr); });
  if (!Verified) {
    Out.Errors = "internal error: pipeline produced invalid IL:\n" + VerifyErr;
    return;
  }

  // Residual audit on the final IL: every surviving in-loop memory op gets
  // a remark with a concrete reason code, so dynamic profiles always join.
  if (Audit)
    R.run("residual-audit", [&] {
      ResidualAuditOptions AO;
      AO.ScalarPromotion = S.ScalarPromotion;
      AO.PointerPromotion = S.PointerPromotion;
      AO.PromotionBudget = S.Promo.MaxPromotedPerLoop != 0;
      auditResidualMemOps(M, AO, *Audit);
    });

  Out.Ok = true;
}

} // namespace

FrontendArtifact rpcc::runFrontend(const std::string &Source,
                                   const StageOptions &Opts) {
  FrontendArtifact FA;
  FA.M = std::make_unique<Module>();
  double T0 = timingNowMs();
  PassRunner R{*FA.M, Opts.CollectTiming ? &FA.Timing : nullptr, Opts.Trace,
               Opts.TraceLabel};
  FA.Ok = frontendInto(Source, *FA.M, FA.Errors, R);
  FA.WallMillis = timingNowMs() - T0;
  stageMetrics().FrontendUs.observe(
      static_cast<uint64_t>(FA.WallMillis * 1000.0));
  return FA;
}

AnalyzedModule rpcc::analyzeFrontend(const FrontendArtifact &FA,
                                     AnalysisKind Kind,
                                     const StageOptions &Opts) {
  AnalyzedModule AM;
  AM.M = FA.M ? FA.M->clone() : std::make_unique<Module>();
  if (!FA.Ok) {
    AM.Errors = FA.Errors;
    return AM;
  }
  double T0 = timingNowMs();
  PassRunner R{*AM.M, Opts.CollectTiming ? &AM.Timing : nullptr, Opts.Trace,
               Opts.TraceLabel};
  analyzeInto(*AM.M, Kind, R);
  AM.WallMillis = timingNowMs() - T0;
  stageMetrics().AnalysisUs.observe(
      static_cast<uint64_t>(AM.WallMillis * 1000.0));
  AM.Ok = true;
  return AM;
}

CompileOutput rpcc::compileSuffix(const AnalyzedModule &AM,
                                  const CompilerConfig &Cfg) {
  CompileOutput Out;
  PipelineClock Clock(Out, Cfg.CollectTiming);
  double T0 = timingNowMs();
  Out.M = AM.M ? AM.M->clone() : std::make_unique<Module>();
  if (!AM.Ok) {
    Out.Errors = AM.Errors;
    return Out;
  }
  PassRunner R{*Out.M, Cfg.CollectTiming ? &Out.Timing : nullptr, Cfg.Trace,
               Cfg.TraceLabel};
  suffixInto(*Out.M, Out, Cfg, Cfg.PostAnalysisHook, Cfg.Remarks,
             Cfg.ResidualAudit ? Cfg.Remarks : nullptr, R);
  double Ms = timingNowMs() - T0;
  stageMetrics().SuffixUs.observe(static_cast<uint64_t>(Ms * 1000.0));
  if (Cfg.CollectTiming)
    Out.Timing.SuffixMillis = Ms;
  return Out;
}

CompileOutput rpcc::compileProgram(const std::string &Source,
                                   const CompilerConfig &Cfg) {
  CompileOutput Out;
  Out.M = std::make_unique<Module>();
  PipelineClock Clock(Out, Cfg.CollectTiming);
  PassRunner R{*Out.M, Cfg.CollectTiming ? &Out.Timing : nullptr, Cfg.Trace,
               Cfg.TraceLabel};

  StageMetrics &SM = stageMetrics();
  auto Us = [](double FromMs, double ToMs) {
    return static_cast<uint64_t>((ToMs - FromMs) * 1000.0);
  };
  double T0 = timingNowMs();
  bool Lowered = frontendInto(Source, *Out.M, Out.Errors, R);
  double T1 = timingNowMs();
  SM.FrontendUs.observe(Us(T0, T1));
  if (!Lowered)
    return Out;
  analyzeInto(*Out.M, Cfg.Analysis, R);
  double T2 = timingNowMs();
  SM.AnalysisUs.observe(Us(T1, T2));
  suffixInto(*Out.M, Out, Cfg, Cfg.PostAnalysisHook, Cfg.Remarks,
             Cfg.ResidualAudit ? Cfg.Remarks : nullptr, R);
  double T3 = timingNowMs();
  SM.SuffixUs.observe(Us(T2, T3));
  if (Cfg.CollectTiming) {
    Out.Timing.FrontendMillis = T2 - T0;
    Out.Timing.SuffixMillis = T3 - T2;
  }
  return Out;
}

ExecResult rpcc::compileAndRun(const std::string &Source,
                               const CompilerConfig &Cfg,
                               const InterpOptions &IOpts) {
  CompileOutput Out = compileProgram(Source, Cfg);
  if (!Out.Ok) {
    ExecResult R;
    R.Error = Out.Errors;
    return R;
  }
  return interpret(*Out.M, IOpts);
}
