//===- driver/Compiler.h - Pipeline assembly --------------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the paper's §5 pipeline: "Each version was optimized with
/// value numbering, partial redundancy elimination, constant propagation,
/// loop invariant code motion, dead code elimination, register allocation,
/// and a basic block cleaning pass", with register promotion performed "in
/// the early phases of optimization". Four configurations reproduce the
/// evaluation: {MOD/REF, points-to} × {without, with scalar promotion}.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_DRIVER_COMPILER_H
#define RPCC_DRIVER_COMPILER_H

#include "alias/TagRefine.h"
#include "driver/PassTiming.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "opt/Licm.h"
#include "opt/Pre.h"
#include "opt/Sccp.h"
#include "opt/ValueNumbering.h"
#include "promote/PointerPromotion.h"
#include "promote/ScalarPromotion.h"
#include "regalloc/GraphColoring.h"

#include <compare>
#include <functional>
#include <memory>
#include <string>

namespace rpcc {

class RemarkEngine;
class TraceCollector;

enum class AnalysisKind {
  ModRef,  ///< interprocedural MOD/REF only
  PointsTo ///< points-to analysis feeding a MOD/REF refresh
};

/// The options that determine the compiled module, given an analyzed
/// module: the key of the store's suffix level (served/ArtifactCache), next
/// to the analyzed module's identity. Compared by value; a field added
/// here joins the key by itself.
struct SuffixOptions {
  bool ScalarPromotion = true;
  bool PointerPromotion = false; ///< §3.3 extension, benched separately
  bool EnableOpts = true;        ///< VN, PRE, SCCP, LICM, DCE, cleanup
  bool RegisterAllocation = true;
  /// Allocatable registers per class (integer + floating point). The
  /// default models a MIPS-era machine: 32 architectural registers per
  /// class with roughly half consumed by linkage, assembler temporaries,
  /// and calling-convention reservations.
  unsigned NumRegisters = 16;
  /// 1997-vintage allocator: Briggs-only coalescing, no rematerialization.
  /// Used by the pressure ablation to reproduce the paper's water anecdote
  /// ("these allocators are known to over-spill in tight situations").
  bool ClassicAllocator = false;
  PromotionOptions Promo;

  auto operator<=>(const SuffixOptions &) const = default;
};

/// A whole compile: the analysis kind, the suffix options, and what a
/// compile carries besides its key (the fuzzer's hook, remarks, timing,
/// tracing).
struct CompilerConfig : SuffixOptions {
  AnalysisKind Analysis = AnalysisKind::ModRef;
  /// Invoked right after alias analysis annotates the module (tag lists and
  /// call MOD/REF summaries) and before opcode strengthening and promotion
  /// consume them. The fuzzer's fault injector uses this to conservatively
  /// widen the analysis results in place; a correct pipeline must tolerate
  /// any over-approximation without changing program behavior.
  std::function<void(Module &)> PostAnalysisHook;
  /// Collect per-pass wall time and IL op counts into CompileOutput::Timing.
  /// Off by default so fuzz/test hot paths pay nothing.
  bool CollectTiming = false;
  /// When non-null, the promotion passes, LICM and PRE emit optimization
  /// remarks into this engine, and a residual audit of the final IL runs at
  /// the end of the pipeline. One engine per compile job (not thread-safe).
  RemarkEngine *Remarks = nullptr;
  /// Run the end-of-pipeline residual audit when Remarks is set. The fuzz
  /// oracle turns this off: it only compares promotion-decision remarks and
  /// the audit's per-function loop analysis would tax every cell.
  bool ResidualAudit = true;
  /// When non-null, every pipeline pass adds a span (category "pass") to
  /// this shared, thread-safe collector.
  TraceCollector *Trace = nullptr;
  /// Identifies this compile job in trace span args (program or cell name).
  std::string TraceLabel;
};

struct CompileStats {
  StrengthenStats Strengthen;
  PromotionStats Promo;
  PointerPromotionStats PtrPromo;
  VnStats Vn;
  PreStats Pre;
  SccpStats Sccp;
  LicmStats Licm;
  unsigned DceRemoved = 0;
  RegAllocStats RegAlloc;
};

struct CompileOutput {
  bool Ok = false;
  std::string Errors;
  std::unique_ptr<Module> M;
  CompileStats Stats;
  /// Per-pass wall time and op counts; populated only when
  /// CompilerConfig::CollectTiming is set (interpreter fields are filled by
  /// whoever runs the module).
  TimingReport Timing;
};

//===----------------------------------------------------------------------===//
// Staged pipeline
//
// The pipeline factors into three stages so that work shared between the
// suite's configuration cells runs once and forks:
//
//   1. runFrontend      — lex/parse/sema/lowering plus CFG normalization.
//                         Depends only on the source text; one per program.
//   2. analyzeFrontend  — alias analysis annotating tag lists and call
//                         MOD/REF summaries. Depends on (program, analysis
//                         kind); forks the frontend module via
//                         Module::clone() and rewrites the fork.
//   3. compileSuffix    — everything configuration-dependent: the
//                         post-analysis hook, opcode strengthening,
//                         promotion, scalar opts, register allocation.
//                         Forks the analyzed module; depends on (analyzed
//                         module, SuffixOptions) only.
//
// Stages never mutate their input artifact, so one artifact can feed any
// number of concurrent downstream stages (see served/ArtifactCache.h, the
// store the suite, the fuzzer and rpserved compile through, which builds
// each distinct suffix once). Each stage observes its latency in
// compile.{frontend,analysis,suffix}_us wherever it runs.
// compileProgram() below runs all three stages in place with no forks; it
// produces byte-identical results because every cross-stage handoff is a
// faithful deep copy.
//===----------------------------------------------------------------------===//

/// Options for the config-independent stages (frontend, analysis). A subset
/// of CompilerConfig: only the observability knobs apply before the suffix.
struct StageOptions {
  /// Collect per-pass wall time and op counts into the artifact's Timing.
  bool CollectTiming = false;
  /// When non-null, stage passes add spans (category "pass") here.
  TraceCollector *Trace = nullptr;
  /// Trace span label. Callers that share artifacts across cells (the
  /// suite's prefix store) pass the program name, not a cell name, so the
  /// trace skeleton does not depend on which cell triggered the stage.
  std::string TraceLabel;
};

/// Stage 1 output: the lowered, CFG-normalized module with its tag and
/// layout tables — everything that depends only on the source text.
struct FrontendArtifact {
  bool Ok = false;
  std::string Errors;
  std::unique_ptr<Module> M;
  /// lower/cfg-normalize pass samples (only when StageOptions asked).
  TimingReport Timing;
  /// Frontend wall time; always measured.
  double WallMillis = 0;
};

/// Stage 2 output: a fork of the frontend module annotated by one alias
/// analysis. Timing/WallMillis cover the analysis passes only; combine with
/// the FrontendArtifact's numbers for whole-prefix accounting.
struct AnalyzedModule {
  bool Ok = false;
  std::string Errors;
  std::unique_ptr<Module> M;
  TimingReport Timing;
  double WallMillis = 0;
};

/// Runs lex/parse/sema/lowering and CFG normalization once. The artifact is
/// immutable from here on: downstream stages fork it.
FrontendArtifact runFrontend(const std::string &Source,
                             const StageOptions &Opts = {});

/// Forks \p FA and annotates the fork with \p Kind's alias information (tag
/// lists, call MOD/REF summaries). \p FA is not mutated.
AnalyzedModule analyzeFrontend(const FrontendArtifact &FA, AnalysisKind Kind,
                               const StageOptions &Opts = {});

/// Runs the configuration-dependent suffix (post-analysis hook through
/// verification and the residual audit) on a fresh fork of \p AM. \p AM is
/// not mutated, so concurrent calls against one analyzed module are safe.
/// The suffix never reads Cfg.Analysis: the analysis is already baked into
/// \p AM, so two kinds with identical analyzed modules compile alike.
CompileOutput compileSuffix(const AnalyzedModule &AM,
                            const CompilerConfig &Cfg);

/// Compiles MiniC source through the configured pipeline. The returned
/// module is ready for the counting interpreter. Equivalent to the three
/// stages run back to back, but operates in place with no module forks.
CompileOutput compileProgram(const std::string &Source,
                             const CompilerConfig &Cfg = {});

/// Convenience: compile then interpret.
ExecResult compileAndRun(const std::string &Source,
                         const CompilerConfig &Cfg = {},
                         const InterpOptions &IOpts = {});

} // namespace rpcc

#endif // RPCC_DRIVER_COMPILER_H
