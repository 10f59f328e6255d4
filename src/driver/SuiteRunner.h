//===- driver/SuiteRunner.h - Figure 5-7 experiment driver ------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a benchmark program through the paper's four configurations —
/// {MOD/REF, points-to} × {without, with scalar promotion} — and formats
/// the resulting dynamic counts exactly like Figures 5 (total operations),
/// 6 (stores), and 7 (loads): program, analysis, without, with, difference,
/// and percent removed.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_DRIVER_SUITERUNNER_H
#define RPCC_DRIVER_SUITERUNNER_H

#include "driver/Compiler.h"
#include "driver/JobRunner.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace rpcc {

class TraceCollector;

struct SuiteOptions {
  /// Allocatable registers per class; see CompilerConfig::NumRegisters.
  unsigned NumRegisters = 16;
  bool PointerPromotion = false;
  InterpOptions Interp;
  /// Worker threads fanning out over config cells (and, in runSuite, over
  /// programs x cells). 1 = serial. No cell writes a Module another cell
  /// can see, so results — and therefore the rendered tables — are
  /// byte-identical to a serial run regardless of Jobs.
  unsigned Jobs = 1;
  /// Collect per-pass timing into ProgramResults::Timing.
  bool CollectTiming = false;
  /// Collect optimization remarks in every cell: per-cell counts feed the
  /// suite's stderr summary, and each cell keeps its rendered text/JSON
  /// streams (formatted in-cell, while its Module is alive) so parallel
  /// runs stay byte-identical to serial ones.
  bool Remarks = false;
  /// Restricts remark text/counts to one emitting pass; "" = all passes.
  std::string RemarkPass;
  /// Profile dynamic loads/stores per tag in the modref/with-promotion
  /// cell and build its hot-tag table and explain report.
  bool ProfileTags = false;
  /// When non-null, every cell's compile passes add spans to this shared
  /// collector, labeled "program/analysis+promo".
  TraceCollector *Trace = nullptr;
  /// Share work across cells. Every cell compiles through one unbounded
  /// store (served/ArtifactCache) per call: the frontend runs once per
  /// program, each alias analysis once per (program, kind), and each
  /// distinct suffix key once, the cells of one key sharing its module
  /// (cells with remarks compile their suffix privately). Cells whose
  /// compiled modules are identical (identicalModules) then share one run:
  /// the first in matrix order interprets it and the others copy its
  /// result (never the profiled cell, never sandboxed cells). Results are byte-identical either way — the flag exists for
  /// A/B verification (`--no-compile-cache`, which compiles and runs every
  /// cell from scratch).
  bool UseCompileCache = true;
  /// Run every cell in a forked sandbox (driver/JobRunner): a crashing,
  /// hanging, or OOMing cell becomes a classified table entry instead of
  /// killing the suite. Healthy cells produce byte-identical tables either
  /// way; sandboxed cells do not contribute per-pass timing (the child's
  /// TimingReport dies with it) and share neither the prefix store nor
  /// runs (each child compiles and runs in its own address space).
  bool Sandbox = false;
  /// Resource caps for sandboxed cells.
  SandboxLimits Limits;
  /// When non-null, every cell's outcome is appended as a JobRecord
  /// (rendered into `--timing-json` as the "jobs" array).
  JobLog *Log = nullptr;
  /// Deliberate sabotage of one sandboxed cell, for end-to-end classifier
  /// proofs: "<program>/<analysis>/<promo>:<fault>", e.g.
  /// "tsp/modref/with:crash" (fault = crash | hang | oom).
  std::string InjectCellFault;
};

struct ConfigCounts {
  bool Ok = false;
  std::string Error;
  uint64_t Total = 0, Loads = 0, Stores = 0;
  int64_t ExitCode = 0;
  std::string Output;   ///< program stdout, for cross-config equality checks
  bool Diverged = false; ///< behavior differs from the modref/no-promo cell
  /// The modref/no-promotion cell failed, so this cell's counts have no
  /// baseline to be compared against; they must not appear in the paper
  /// tables as if they were comparable.
  bool BaselineFailed = false;
  /// How the cell's sandboxed child ended. Ok both for a healthy cell and
  /// for inline (non-sandboxed) execution; Crash/Timeout/Oom render as
  /// CRASHED/TIMEOUT/OOM in the paper tables and drive the process exit
  /// severity (jobExitSeverity).
  SandboxStatus Child = SandboxStatus::Ok;
  /// Terminating signal when Child == Crash (0 if none).
  int ChildSignal = 0;

  /// Observability payloads, filled only under the corresponding
  /// SuiteOptions flags. Pre-rendered inside the cell so the per-module
  /// state (tag names, loop forest) does not have to outlive the cell.
  uint64_t RemarksPromoted = 0; ///< promote + ptr-promote promotions
  uint64_t RemarksMissed = 0;   ///< missed-promotion remarks
  uint64_t RemarksHoisted = 0;  ///< LICM hoists
  uint64_t RemarksResidual = 0; ///< residual-audit records
  std::string RemarksText;      ///< human remark stream (pass-filtered)
  std::string RemarksJson;      ///< JSON lines with program/cell keys
  std::string HotTags;          ///< hot-tag table (profiled cell only)
  std::string Explain;          ///< explain report (profiled cell only)
  std::string ProfileJson;      ///< tag-profile JSON (profiled cell only)
};

/// Results of one program across the 2x2 matrix:
/// index [analysis][promotion], analysis 0 = modref / 1 = pointer,
/// promotion 0 = without / 1 = with.
struct ProgramResults {
  std::string Name;
  ConfigCounts R[2][2];
  /// Aggregate of the four cells' pass timings (cells merged in matrix
  /// order); empty unless SuiteOptions::CollectTiming. InterpSteps sums
  /// every cell's steps; InterpMillis only the runs that executed, so a
  /// cell that shared another cell's run adds no interpreter time.
  TimingReport Timing;
};

/// Compiles and executes under all four configurations. Every configuration
/// compiles the same program, so observable behavior (exit code and stdout)
/// must be identical across the matrix; any cell that disagrees with the
/// modref/no-promotion baseline is flagged as diverged and demoted to an
/// error so it cannot silently feed the paper tables.
ProgramResults runAllConfigs(const std::string &Name,
                             const std::string &Source,
                             const SuiteOptions &Opts = {});

/// Compiles and executes every named benchmark program under all four
/// configurations, fanning the programs-x-cells job list across
/// SuiteOptions::Jobs workers. Results come back in program order and are
/// byte-identical to a serial run.
std::vector<ProgramResults> runSuite(const std::vector<std::string> &Names,
                                     const SuiteOptions &Opts = {});

enum class Metric { TotalOps, Stores, Loads };

/// Renders the paper-style table for one metric over many programs.
std::string formatPaperTable(const std::vector<ProgramResults> &Programs,
                             Metric Which);

/// Display name of one matrix cell: "modref/without" ... "pointer/with".
std::string suiteCellName(int Analysis, int Promotion);

/// Renders the per-cell remark-count summary table (program, cell,
/// promoted, missed, hoisted, residual) for `--suite --remarks`.
std::string
formatSuiteRemarkSummary(const std::vector<ProgramResults> &Programs);

/// Reads one of the repository's benchmark programs
/// (bench/programs/<name>.c) into \p Src. Returns an error Status — never
/// exits — so drivers can degrade a missing program to error cells.
Status loadBenchProgram(const std::string &Name, std::string &Src);

/// Convenience wrapper for tests and benchmarks, which treat a missing
/// program as a broken checkout: prints the diagnostic and exits. Library
/// and tool code must use the Status overload above — only executables own
/// process exit.
std::string loadBenchProgram(const std::string &Name);

/// Names of the 14-program suite standing in for the paper's Figure 4.
const std::vector<std::string> &benchProgramNames();

} // namespace rpcc

#endif // RPCC_DRIVER_SUITERUNNER_H
