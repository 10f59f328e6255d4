//===- driver/SuiteRunner.cpp ---------------------------------------------===//

#include "driver/SuiteRunner.h"

#include "obs/Metrics.h"
#include "obs/Remark.h"
#include "obs/TagProfile.h"
#include "obs/Trace.h"
#include "served/ArtifactCache.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

using namespace rpcc;

#ifndef RPCC_PROGRAMS_DIR
#define RPCC_PROGRAMS_DIR "bench/programs"
#endif

namespace {

/// Run sharing among one program's four matrix cells. interpret() is a
/// deterministic function of the module and its options, so a cell whose
/// compiled module is identical (identicalModules) to an earlier cell's
/// does not run: it copies that cell's run once every cell is done. Cells
/// decide in matrix order, each against the modules of the earlier cells
/// that run, so neither the number of runs nor the cells that carry them
/// depend on thread timing. Cells of one suffix key get one module from
/// the store; cells with different keys can still compile alike (sim).
class SharedRuns {
public:
  /// Cell \p Cell's decision once it has compiled. \p M is its module, or
  /// null for a cell that never shares (the profiled one). Returns the
  /// earliest earlier cell with an identical module, or -1 when the cell
  /// runs its own. The table keeps \p M until the program's last cell
  /// ends, whether the cell runs or not, so a later cell of the same suffix
  /// key finds it live in the store at any --jobs. Waits for the earlier
  /// cells' decisions, which never wait on a later cell: parallelFor claims
  /// indices in ascending order, so every earlier cell is already on a
  /// worker, or done.
  int decide(int Cell, const std::shared_ptr<const Module> &M) {
    std::unique_lock<std::mutex> L(Mu);
    for (int I = 0; M && I != Cell && RunOf[Cell] < 0; ++I) {
      Changed.wait(L, [&] { return Decided[I]; });
      if (RunOf[I] < 0 && Images[I] &&
          (Images[I] == M || identicalModules(*Images[I], *M)))
        RunOf[Cell] = I;
    }
    Images[Cell] = M;
    Decided[Cell] = true;
    Changed.notify_all();
    return RunOf[Cell];
  }

  /// Ends cell \p Cell, however it ended: a cell that never decided (its
  /// compile failed, or it threw) leaves no module to compare against, so
  /// later cells stop waiting for it; the last cell to end releases the
  /// kept modules.
  void done(int Cell) {
    std::lock_guard<std::mutex> L(Mu);
    if (!Decided[Cell]) {
      Decided[Cell] = true;
      Changed.notify_all();
    }
    if (++Ended == 4)
      for (std::shared_ptr<const Module> &M : Images)
        M.reset();
  }

  /// Once every cell is done: the cell whose run \p Cell copies, or -1.
  int runOf(int Cell) const { return RunOf[Cell]; }

private:
  std::mutex Mu;
  std::condition_variable Changed;
  bool Decided[4] = {};
  int RunOf[4] = {-1, -1, -1, -1};
  std::shared_ptr<const Module> Images[4];
  int Ended = 0;
};

/// Compiles \p Source under \p Cfg, through \p Cache when it is set.
CompiledSuffix compileCell(const std::string &Name, const std::string &Source,
                           const CompilerConfig &Cfg, const SuiteOptions &Opts,
                           ArtifactCache *Cache) {
  if (!Cache)
    return CompiledSuffix(compileProgram(Source, Cfg));
  // The prefix spans carry the program name, not the cell's, so the trace
  // skeleton does not depend on which cell built the prefix; a suffix the
  // store builds adds its suffix options to that name.
  StageOptions Stages;
  Stages.CollectTiming = Opts.CollectTiming;
  Stages.Trace = Opts.Trace;
  if (Opts.Trace)
    Stages.TraceLabel = Name;
  ArtifactCache::Outcome How;
  return Cache->compile(Source, Cfg, How, Stages);
}

/// Compiles and runs one matrix cell. Cells of one suffix key share one
/// immutable module from \p Cache's suffix level (cells with remarks compile
/// privately), and the cell's RemarkEngine is its own, so any number of
/// cells may run on different threads concurrently. With \p Share, a cell
/// whose module repeats an earlier cell's skips the run; its counts then
/// hold only what its compile produced.
ConfigCounts runOneCell(const std::string &Name, const std::string &Source,
                        int A, int P, const SuiteOptions &Opts,
                        ArtifactCache *Cache, SharedRuns *Share,
                        TimingReport &Timing) {
  CompilerConfig Cfg;
  Cfg.Analysis = A == 0 ? AnalysisKind::ModRef : AnalysisKind::PointsTo;
  Cfg.ScalarPromotion = P == 1;
  Cfg.PointerPromotion = P == 1 && Opts.PointerPromotion;
  Cfg.NumRegisters = Opts.NumRegisters;
  Cfg.CollectTiming = Opts.CollectTiming;
  Cfg.Trace = Opts.Trace;
  if (Opts.Trace)
    Cfg.TraceLabel = Name + "/" + suiteCellName(A, P);

  // The explain report joins the profile against remarks, so the profiled
  // cell needs an engine even when the caller only asked for --profile-tags.
  bool ProfileThisCell = Opts.ProfileTags && A == 0 && P == 1;
  RemarkEngine Re;
  if (Opts.Remarks || ProfileThisCell)
    Cfg.Remarks = &Re;

  double CellT0 = Opts.Trace ? timingNowMs() : 0;
  auto EndSpan = [&] {
    if (Opts.Trace)
      Opts.Trace->addSpan(Cfg.TraceLabel, "cell", CellT0,
                          timingNowMs() - CellT0);
  };
  ConfigCounts C;
  CompiledSuffix Out = compileCell(Name, Source, Cfg, Opts, Cache);
  Timing = std::move(Out.Timing);
  if (!Out.Facts.Ok) {
    C.Error = Out.Facts.Errors;
    EndSpan();
    return C;
  }
  if (Cfg.Remarks) {
    C.RemarksPromoted = Re.count(RemarkKind::Promoted, Opts.RemarkPass);
    C.RemarksMissed = Re.count(RemarkKind::Missed, Opts.RemarkPass);
    C.RemarksHoisted = Re.count(RemarkKind::Hoisted, Opts.RemarkPass);
    C.RemarksResidual = Re.count(RemarkKind::Residual, Opts.RemarkPass);
    if (Opts.Remarks) {
      C.RemarksText = Re.toText(Opts.RemarkPass);
      C.RemarksJson = Re.toJsonLines({{"program", Name},
                                      {"cell", suiteCellName(A, P)}});
    }
  }
  std::shared_ptr<const Module> M = std::move(Out.M);
  // The profiled cell's run carries a sink: it neither shares nor is shared.
  if (Share && Share->decide(A * 2 + P, ProfileThisCell ? nullptr : M) >= 0) {
    EndSpan();
    return C;
  }

  ProfileMeta Meta;
  InterpOptions IOpts = Opts.Interp;
  // --no-compile-cache is a whole-pipeline A/B switch: it bypasses the jit's
  // native-code cache along with the prefix store, so a cached run can be
  // diffed against a every-stage-from-scratch run.
  IOpts.JitCodeCache = Opts.UseCompileCache;
  if (ProfileThisCell) {
    // ProfileMeta::build recomputes CFG lists in place; the cell profiles
    // its own fork, since modules handed out by the store are immutable.
    std::unique_ptr<Module> Own = M->clone();
    Meta = ProfileMeta::build(*Own);
    M = std::move(Own);
    IOpts.Profile = &Meta;
  }
  double T0 = Opts.CollectTiming ? timingNowMs() : 0;
  ExecResult R = interpret(*M, IOpts);
  if (Opts.CollectTiming) {
    Timing.InterpMillis = timingNowMs() - T0;
    Timing.InterpSteps = R.Counters.Total;
    Timing.Engine = interpEngineName(IOpts.Engine);
  }
  C.Ok = R.Ok;
  C.Error = R.Error;
  C.Total = R.Counters.Total;
  C.Loads = R.Counters.Loads;
  C.Stores = R.Counters.Stores;
  C.ExitCode = R.ExitCode;
  C.Output = R.Output;

  if (ProfileThisCell && C.Ok) {
    C.HotTags = formatHotTagTable(*M, Meta, R.Profile);
    C.Explain =
        formatExplainReport(buildExplainReport(*M, Meta, R.Profile, Re));
    C.ProfileJson = profileToJson(*M, Meta, R.Profile);
  }
  EndSpan();
  return C;
}

// -- Sandbox plumbing --------------------------------------------------------

/// Flattens the child-computed half of ConfigCounts onto the result pipe.
/// Diverged/BaselineFailed stay parent-side (baseline checks run after all
/// cells finish), and TimingReport is not shipped: sandboxed cells do not
/// contribute per-pass timing.
std::string encodeCounts(const ConfigCounts &C) {
  PayloadWriter W;
  W.u8(C.Ok);
  W.str(C.Error);
  W.u64(C.Total);
  W.u64(C.Loads);
  W.u64(C.Stores);
  W.i64(C.ExitCode);
  W.str(C.Output);
  W.u64(C.RemarksPromoted);
  W.u64(C.RemarksMissed);
  W.u64(C.RemarksHoisted);
  W.u64(C.RemarksResidual);
  W.str(C.RemarksText);
  W.str(C.RemarksJson);
  W.str(C.HotTags);
  W.str(C.Explain);
  W.str(C.ProfileJson);
  return W.take();
}

bool decodeCounts(const std::string &Payload, ConfigCounts &C) {
  PayloadReader R(Payload);
  C.Ok = R.u8() != 0;
  C.Error = R.str();
  C.Total = R.u64();
  C.Loads = R.u64();
  C.Stores = R.u64();
  C.ExitCode = R.i64();
  C.Output = R.str();
  C.RemarksPromoted = R.u64();
  C.RemarksMissed = R.u64();
  C.RemarksHoisted = R.u64();
  C.RemarksResidual = R.u64();
  C.RemarksText = R.str();
  C.RemarksJson = R.str();
  C.HotTags = R.str();
  C.Explain = R.str();
  C.ProfileJson = R.str();
  return R.complete();
}

/// Parses SuiteOptions::InjectCellFault against this cell's key; returns the
/// fault to fire inside its child (None for every other cell or on a
/// malformed spec).
WorkerFault cellFault(const SuiteOptions &Opts, const std::string &Name,
                      int A, int P) {
  if (Opts.InjectCellFault.empty())
    return WorkerFault::None;
  size_t Colon = Opts.InjectCellFault.rfind(':');
  if (Colon == std::string::npos)
    return WorkerFault::None;
  if (Opts.InjectCellFault.substr(0, Colon) !=
      Name + "/" + suiteCellName(A, P))
    return WorkerFault::None;
  WorkerFault F = WorkerFault::None;
  parseWorkerFault(Opts.InjectCellFault.substr(Colon + 1), F);
  return F;
}

/// Cell dispatcher: inline execution when the sandbox is off (byte-for-byte
/// the historic path), otherwise the cell body runs in a forked child and
/// its ConfigCounts come back over the pipe. A child that crashes, hangs,
/// or OOMs becomes a classified error cell; the suite keeps going. Only
/// inline cells share runs (\p Share), since each child compiles on its own.
ConfigCounts runCell(const std::string &Name, const std::string &Source,
                     int A, int P, const SuiteOptions &Opts,
                     ArtifactCache *Cache, SharedRuns *Share,
                     TimingReport &Timing) {
  // Parent-side progress tally for the heartbeat, covering the inline and
  // sandboxed paths alike (a dead child still finishes its cell).
  static Counter CellsDone = MetricsRegistry::global().counter(
      "suite.cells", {}, MetricStability::Stable, "ops",
      "Suite matrix cells executed.");
  CellsDone.inc();
  JobOptions JOpts;
  JOpts.Name = Name + "/" + suiteCellName(A, P);
  JOpts.Sandbox = Opts.Sandbox;
  JOpts.Limits = Opts.Limits;
  JOpts.Inject = cellFault(Opts, Name, A, P);
  JOpts.Log = Opts.Log;
  JOpts.Trace = Opts.Trace;

  // Inline mode is byte-for-byte the historic path: no job records, no
  // "job" trace spans, nothing the sandbox could perturb.
  if (!Opts.Sandbox) {
    // However the cell ends, later cells must not wait on it forever.
    struct EndCell {
      SharedRuns *Share;
      int Cell;
      ~EndCell() {
        if (Share)
          Share->done(Cell);
      }
    } End{Share, A * 2 + P};
    return runOneCell(Name, Source, A, P, Opts, Cache, Share, Timing);
  }
  assert(!Share && "sandboxed cells compile standalone and never share");

  // The child must not touch cross-thread state forked mid-flight: another
  // worker may hold the prefix store's or the trace's mutex at fork time,
  // and that lock would never be released in the child. Each sandboxed cell
  // compiles standalone and traces nothing; the parent still emits the job
  // span.
  SuiteOptions ChildOpts = Opts;
  ChildOpts.Trace = nullptr;
  ChildOpts.CollectTiming = false;
  SandboxResult R = runJob(
      [&](std::string &Payload) {
        TimingReport ChildTiming;
        Payload = encodeCounts(runOneCell(Name, Source, A, P, ChildOpts,
                                          /*Cache=*/nullptr, /*Share=*/nullptr,
                                          ChildTiming));
        return true;
      },
      JOpts);

  ConfigCounts C;
  if (R.ok()) {
    if (decodeCounts(R.Payload, C))
      return C;
    C = ConfigCounts();
    C.Child = SandboxStatus::InternalError;
    C.Error = "malformed sandbox payload";
    return C;
  }
  C.Child = R.Status;
  C.ChildSignal = R.Signal;
  C.Error = R.Error;
  return C;
}

/// Cross-checks the three non-baseline cells against the modref/no-promotion
/// cell: promotion and alias analysis may only change counts, never
/// behavior. When the baseline itself failed, surviving cells are flagged as
/// having no baseline instead of silently skipping the check — their counts
/// must not reach the paper tables as if they were comparable.
void applyBaselineChecks(ProgramResults &PR) {
  const ConfigCounts &Base = PR.R[0][0];
  for (int A = 0; A != 2; ++A) {
    for (int P = 0; P != 2; ++P) {
      if (A == 0 && P == 0)
        continue;
      ConfigCounts &C = PR.R[A][P];
      if (!C.Ok)
        continue;
      if (!Base.Ok) {
        C.BaselineFailed = true;
        C.Ok = false;
        C.Error = "modref/no-promotion baseline failed (" + Base.Error +
                  "); counts are not comparable";
        continue;
      }
      if (C.ExitCode != Base.ExitCode || C.Output != Base.Output) {
        C.Diverged = true;
        C.Ok = false;
        std::ostringstream OS;
        OS << "behavior diverged from modref/no-promotion baseline: ";
        if (C.ExitCode != Base.ExitCode)
          OS << "exit code " << C.ExitCode << " vs " << Base.ExitCode;
        else
          OS << "stdout differs (" << C.Output.size() << " vs "
             << Base.Output.size() << " bytes)";
        C.Error = OS.str();
      }
    }
  }
}

/// Gives a cell the run of the earlier cell \p From whose module it
/// repeats: the execution half of the counts, and in the timing the steps
/// but not the milliseconds, since nothing ran for this cell.
void copyRun(const ConfigCounts &From, ConfigCounts &To, TimingReport &Timing,
             const SuiteOptions &Opts) {
  To.Ok = From.Ok;
  To.Error = From.Error;
  To.Total = From.Total;
  To.Loads = From.Loads;
  To.Stores = From.Stores;
  To.ExitCode = From.ExitCode;
  To.Output = From.Output;
  if (Opts.CollectTiming) {
    Timing.InterpSteps = From.Total;
    Timing.Engine = interpEngineName(Opts.Interp.Engine);
  }
}

/// Adds the prefix stages \p Art built once for its program (pass samples
/// and wall time) to \p Timing, next to the program's per-cell suffixes.
void mergePrefixTiming(TimingReport &Timing, const ServedArtifact &Art) {
  Timing.merge(Art.FA.Timing);
  Timing.FrontendMillis += Art.FA.WallMillis;
  for (const AnalyzedModule &AM : Art.AM) {
    Timing.merge(AM.Timing);
    Timing.FrontendMillis += AM.WallMillis;
  }
}

/// Compiles and runs the 2x2 matrix of every program in \p All whose
/// source is non-null, one parallelFor item per cell (program-major, matrix
/// order within a program). With the compile cache on and the sandbox off,
/// cells whose modules are identical share one run (SharedRuns);
/// --no-compile-cache compiles and runs every cell from scratch. Timing
/// merges in fixed matrix order, so every result is identical no matter
/// which threads ran which cell.
void runMatrix(std::vector<ProgramResults> &All,
               const std::vector<const std::string *> &Sources,
               const SuiteOptions &Opts) {
  // One store for all programs: each program's prefix compiles once, and
  // each distinct suffix key once, whichever workers get there first.
  std::unique_ptr<ArtifactCache> Cache;
  if (Opts.UseCompileCache)
    Cache = std::make_unique<ArtifactCache>(ArtifactCache::Unbounded);
  std::unique_ptr<SharedRuns[]> Shares;
  if (Cache && !Opts.Sandbox)
    Shares = std::make_unique<SharedRuns[]>(All.size());

  // One job per (program, cell): 56 for the paper's 14x4 matrix. Finer
  // granularity than per-program keeps all workers busy even when one
  // program (go, bison) dominates the wall clock.
  std::vector<TimingReport> CellTiming(All.size() * 4);
  parallelFor(Opts.Jobs, All.size() * 4, [&](size_t Job) {
    size_t I = Job / 4;
    if (!Sources[I])
      return;
    int A = static_cast<int>(Job % 4) / 2, P = static_cast<int>(Job % 2);
    All[I].R[A][P] =
        runCell(All[I].Name, *Sources[I], A, P, Opts, Cache.get(),
                Shares ? &Shares[I] : nullptr, CellTiming[Job]);
  });

  for (size_t I = 0; I != All.size(); ++I) {
    ProgramResults &PR = All[I];
    for (int Cell = 0; Cell != 4; ++Cell)
      if (int From = Shares ? Shares[I].runOf(Cell) : -1; From >= 0)
        copyRun(PR.R[From / 2][From % 2], PR.R[Cell / 2][Cell % 2],
                CellTiming[I * 4 + Cell], Opts);
    if (Opts.CollectTiming) {
      for (int Cell = 0; Cell != 4; ++Cell)
        PR.Timing.merge(CellTiming[I * 4 + Cell]);
      if (Cache && Sources[I])
        if (auto Art = Cache->peek(ArtifactCache::contentKey(*Sources[I])))
          mergePrefixTiming(PR.Timing, *Art);
    }
    applyBaselineChecks(PR);
  }
}

} // namespace

ProgramResults rpcc::runAllConfigs(const std::string &Name,
                                   const std::string &Source,
                                   const SuiteOptions &Opts) {
  std::vector<ProgramResults> All(1);
  All[0].Name = Name;
  runMatrix(All, {&Source}, Opts);
  return std::move(All[0]);
}

std::vector<ProgramResults> rpcc::runSuite(const std::vector<std::string> &Names,
                                           const SuiteOptions &Opts) {
  std::vector<ProgramResults> All(Names.size());
  std::vector<std::string> Text(Names.size());
  std::vector<const std::string *> Sources(Names.size(), nullptr);
  for (size_t I = 0; I != Names.size(); ++I) {
    All[I].Name = Names[I];
    Status S = loadBenchProgram(Names[I], Text[I]);
    if (!S.isError()) {
      Sources[I] = &Text[I];
      continue;
    }
    // A missing program degrades to four error cells instead of killing the
    // whole suite: the other thirteen programs' figures still matter.
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P)
        All[I].R[A][P].Error = S.message();
  }
  runMatrix(All, Sources, Opts);
  return All;
}

std::string rpcc::formatPaperTable(const std::vector<ProgramResults> &Programs,
                                   Metric Which) {
  auto Pick = [&](const ConfigCounts &C) {
    switch (Which) {
    case Metric::TotalOps:
      return C.Total;
    case Metric::Stores:
      return C.Stores;
    case Metric::Loads:
      return C.Loads;
    }
    return uint64_t(0);
  };

  TextTable T({"program", "analysis", "without", "with", "difference",
               "% removed"});
  for (const ProgramResults &PR : Programs) {
    for (int A = 0; A != 2; ++A) {
      const ConfigCounts &Without = PR.R[A][0];
      const ConfigCounts &With = PR.R[A][1];
      std::string Analysis = A == 0 ? "modref" : "pointer";
      if (!Without.Ok || !With.Ok) {
        // A dead sandboxed child outranks in-protocol failures, and crash >
        // oom > timeout matches the process exit severity (jobExitSeverity).
        auto ChildIs = [&](SandboxStatus S) {
          return Without.Child == S || With.Child == S;
        };
        const char *Cell = "error";
        if (ChildIs(SandboxStatus::Crash))
          Cell = "CRASHED";
        else if (ChildIs(SandboxStatus::Oom))
          Cell = "OOM";
        else if (ChildIs(SandboxStatus::Timeout))
          Cell = "TIMEOUT";
        else if (Without.Diverged || With.Diverged)
          Cell = "diverged";
        else if (Without.BaselineFailed || With.BaselineFailed)
          Cell = "baseline failed";
        T.addRow({A == 0 ? PR.Name : "", Analysis, Cell, Cell, "-", "-"});
        continue;
      }
      uint64_t W0 = Pick(Without), W1 = Pick(With);
      int64_t Diff = static_cast<int64_t>(W0) - static_cast<int64_t>(W1);
      double Pct = W0 ? 100.0 * static_cast<double>(Diff) /
                            static_cast<double>(W0)
                      : 0.0;
      T.addRow({A == 0 ? PR.Name : "", Analysis, withCommas(W0),
                withCommas(W1), withCommasSigned(Diff), fixed(Pct, 2)});
    }
  }
  return T.render();
}

std::string rpcc::suiteCellName(int Analysis, int Promotion) {
  return std::string(Analysis == 0 ? "modref" : "pointer") +
         (Promotion ? "/with" : "/without");
}

std::string rpcc::formatSuiteRemarkSummary(
    const std::vector<ProgramResults> &Programs) {
  TextTable T({"program", "cell", "promoted", "missed", "hoisted",
               "residual"});
  for (const ProgramResults &PR : Programs) {
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P) {
        const ConfigCounts &C = PR.R[A][P];
        T.addRow({A == 0 && P == 0 ? PR.Name : "", suiteCellName(A, P),
                  withCommas(C.RemarksPromoted), withCommas(C.RemarksMissed),
                  withCommas(C.RemarksHoisted),
                  withCommas(C.RemarksResidual)});
      }
  }
  return T.render();
}

Status rpcc::loadBenchProgram(const std::string &Name, std::string &Src) {
  std::string Path = std::string(RPCC_PROGRAMS_DIR) + "/" + Name + ".c";
  std::ifstream In(Path);
  if (!In)
    return Status::error("cannot open benchmark program " + Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  Src = SS.str();
  return Status::ok();
}

std::string rpcc::loadBenchProgram(const std::string &Name) {
  std::string Src;
  Status S = loadBenchProgram(Name, Src);
  if (S.isError()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    std::exit(1);
  }
  return Src;
}

const std::vector<std::string> &rpcc::benchProgramNames() {
  static const std::vector<std::string> Names = {
      "tsp",    "mlink",     "fft",   "clean", "sim",
      "dhrystone", "water",  "indent", "allroots", "bc",
      "go",     "bison",     "gzip_enc", "gzip_dec"};
  return Names;
}
