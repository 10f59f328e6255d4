//===- perfbench/src/Paper.cpp - The `paper` workload ---------------------===//
//
// One op is one suite program through the paper's 2x2 matrix
// (runAllConfigs): serial, fastpath engine, compile cache on. Every program
// runs equally often; the seed only orders each cycle of 14.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Replica.h"

#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <set>

using namespace rpcc;
using namespace rpbench;

namespace {

/// Ops per second of the timed phase on the reference host (4-core Xeon
/// container, Release build); sizes the fixed op count from --seconds.
constexpr double NominalOpsPerSec = 24;
constexpr unsigned SetupReps = 3;

SuiteOptions suiteOptions() {
  SuiteOptions O;
  O.Jobs = 1;
  O.UseCompileCache = true;
  O.Interp.Engine = InterpEngine::FastPath;
  return O;
}

/// Golden check of one op's four cells; "" when every cell matches.
std::string checkProgram(const Golden &G, const ProgramResults &PR) {
  for (const Config &C : paperConfigs()) {
    std::string Key = PR.Name + "/" + configName(C);
    const ConfigCounts &CC = PR.R[C.PointsTo][C.Promote];
    const GoldenEntry *E = G.find(Key);
    if (!E)
      return Key + ": no golden entry";
    if (!CC.Ok)
      return Key + ": " + CC.Error;
    if (CC.ExitCode != E->ExitCode || outputDigest(CC.Output) != E->OutputDigest ||
        CC.Total != E->Total || CC.Loads != E->Loads || CC.Stores != E->Stores)
      return Key + ": reply differs from golden";
  }
  return "";
}

uint64_t counterValue(const char *Name) {
  for (const MetricSample &S : MetricsRegistry::global().snapshot())
    if (S.Name == Name && S.Kind == MetricKind::Counter)
      return static_cast<uint64_t>(S.Value);
  return 0;
}

/// The traced replay of one op: the compile-cache staging of runAllConfigs
/// (frontend once, each analysis once, then per cell a suffix and a run),
/// pass by pass. Checks each new (program, config) against compileSuffix
/// and every run against the untraced op's counts.
std::string replayProgram(const Program &P, const ProgramResults &Untraced,
                          uint64_t Op, SpanLog &L, LayerCounts &C,
                          std::set<std::string> &Checked) {
  Scoped Root(L, "op", Op);
  std::unique_ptr<Module> FM = replicaFrontend(P.Source, L, Op, C);
  if (!FM)
    return P.Name + ": replica frontend failed";
  std::unique_ptr<Module> AM[2];
  for (const Config &Cfg : paperConfigs()) {
    if (!AM[Cfg.PointsTo])
      AM[Cfg.PointsTo] = replicaAnalyze(*FM, Cfg.PointsTo, L, Op);
    CompileStats Stats;
    std::unique_ptr<Module> SM =
        replicaSuffix(*AM[Cfg.PointsTo], Cfg, L, Op, C, Stats);
    std::string Key = P.Name + "/" + configName(Cfg);
    if (!SM)
      return Key + ": replica suffix failed verification";
    ExecResult R = replicaExecute(*SM, InterpEngine::FastPath, L, Op, C);
    const ConfigCounts &U = Untraced.R[Cfg.PointsTo][Cfg.Promote];
    if (!R.Ok || R.ExitCode != U.ExitCode || R.Output != U.Output ||
        R.Counters.Total != U.Total || R.Counters.Loads != U.Loads ||
        R.Counters.Stores != U.Stores)
      return Key + ": replica run differs from runAllConfigs";
    if (Checked.insert(Key).second) {
      // First sight of this pair: compare with the staged pipeline.
      AnalyzedModule Ref = analyzeFrontend(
          runFrontend(P.Source),
          Cfg.PointsTo ? AnalysisKind::PointsTo : AnalysisKind::ModRef);
      std::string Diff = compareWithPipeline(*SM, Stats, Ref, Cfg);
      if (!Diff.empty())
        return Key + ": " + Diff;
    }
  }
  return "";
}

} // namespace

int rpbench::runPaper(const Args &A, Result &R) {
  SuiteOptions Opts = suiteOptions();
  std::vector<Program> Progs;
  Golden G;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    double T0 = timingNowMs();
    Progs = loadPrograms(A.Root);
    G = Golden();
    std::string Err;
    if (Progs.empty() || !loadGolden(A.Golden + "/paper.json", G, Err)) {
      std::fprintf(stderr, "rpbench: setup failed: %s\n",
                   Progs.empty() ? "cannot read the suite programs"
                                 : Err.c_str());
      return 1;
    }
    // The untimed warm-up pass, checked like any op.
    for (const Program &P : Progs) {
      std::string Diff = checkProgram(G, runAllConfigs(P.Name, P.Source, Opts));
      if (!Diff.empty()) {
        std::fprintf(stderr, "rpbench: warm-up: %s\n", Diff.c_str());
        R.Correct = false;
      }
    }
    SetupS.push_back((timingNowMs() - T0) / 1000.0);
  }

  const uint64_t N = opCount(phaseSeconds(A), NominalOpsPerSec, Progs.size(), 100);
  std::vector<size_t> Seq = seededCycles(A.Seed, Progs.size(), N);

  R.Info.push_back({"probe_before_ms", fmt(memoryProbeMs())});
  StealMeter Steal;
  std::vector<double> Lat;
  OpTimes Times;
  std::map<std::string, GoldenEntry> Seen; // measured facts per pair
  std::vector<ProgramResults> Last(Progs.size());
  uint64_t Ok = 0;

  // Traced-run state.
  SpanLog L;
  LayerCounts C;
  std::set<std::string> Checked;
  double UntracedMs = 0;
  uint64_t Hits0 = counterValue("cache.hits"),
           Misses0 = counterValue("cache.misses");

  double Cpu0 = selfCpuMs();
  double T0 = timingNowMs();
  for (uint64_t I = 0; I != N; ++I) {
    const Program &P = Progs[Seq[I]];
    double S = timingNowMs();
    ProgramResults PR = runAllConfigs(P.Name, P.Source, Opts);
    double Ms = timingNowMs() - S;
    Lat.push_back(Ms);
    Times.add(S, S + Ms);
    UntracedMs += Ms;
    if (static_cast<long>(I) == A.CorruptOp)
      PR.R[1][1].Output += "#";
    std::string Diff = checkProgram(G, PR);
    if (Diff.empty())
      ++Ok;
    else
      std::fprintf(stderr, "rpbench: op %llu: %s\n",
                   static_cast<unsigned long long>(I), Diff.c_str());
    for (const Config &Cfg : paperConfigs()) {
      const ConfigCounts &CC = PR.R[Cfg.PointsTo][Cfg.Promote];
      GoldenEntry &E = Seen[P.Name + "/" + configName(Cfg)];
      E.Total = CC.Total;
      E.Loads = CC.Loads;
      E.Stores = CC.Stores;
    }
    if (A.Trace) {
      std::string Bad = replayProgram(P, PR, I, L, C, Checked);
      if (!Bad.empty()) {
        std::fprintf(stderr, "rpbench: traced replica: %s\n", Bad.c_str());
        R.Correct = false;
      }
    }
    Last[Seq[I]] = std::move(PR);
  }
  R.Info.push_back({"phase_s", fmt((timingNowMs() - T0) / 1000.0)});
  double CpuMs = selfCpuMs() - Cpu0;
  R.Info.push_back({"host_steal_frac", fmt(Steal.frac())});
  R.Info.push_back({"probe_after_ms", fmt(memoryProbeMs())});

  // The figure tables rendered from the last reply of every program.
  for (const auto &[Name, Which] :
       {std::pair<std::string, Metric>{"fig5", Metric::TotalOps},
        {"fig6", Metric::Stores},
        {"fig7", Metric::Loads}})
    if (formatPaperTable(Last, Which) != G.Tables[Name]) {
      std::fprintf(stderr, "rpbench: %s table differs from golden\n",
                   Name.c_str());
      R.Correct = false;
    }

  // Untimed tail: static facts of every pair the ops compiled.
  uint64_t StaticOps = 0;
  for (const Program &P : Progs)
    for (const Config &Cfg : paperConfigs()) {
      std::string Key = P.Name + "/" + configName(Cfg);
      CompileOutput CO = compileProgram(P.Source, compilerConfig(Cfg));
      const GoldenEntry *E = G.find(Key);
      uint64_t S = CO.Ok ? countStaticOps(*CO.M) : 0;
      if (!CO.Ok || !E || S != E->StaticOps ||
          CO.Stats.Promo.PromotedTags != E->PromotedTags ||
          CO.Stats.Promo.RewrittenOps != E->RewrittenOps) {
        std::fprintf(stderr, "rpbench: %s: compile facts differ from golden\n",
                     Key.c_str());
        R.Correct = false;
      }
      StaticOps += S;
    }

  R.Attempted = N;
  R.Failed = N - Ok;
  if (R.Failed)
    R.Correct = false;

  if (!A.Trace) {
    uint64_t Ops = 0, Loads = 0, Stores = 0;
    for (const auto &[Key, E] : Seen)
      if (Key.find("/with/") != std::string::npos) {
        Ops += E.Total;
        Loads += E.Loads;
        Stores += E.Stores;
      }
    R.Info.push_back({"block_rates", blockRateSpread(Times, Progs.size())});
    R.add("setup_s", "s", median(SetupS), SetupS.size());
    R.add("ops_per_s", "1/s", medianBlockRate(Times, Progs.size()), N);
    R.add("p50_ms", "ms", percentile(Lat, 0.5), Lat.size());
    R.add("p90_ms", "ms", percentile(Lat, 0.9), Lat.size());
    R.add("cpu_ms_per_op", "ms", CpuMs / N, N);
    R.add("peak_rss_mb", "MB", selfPeakRssMb(), 1);
    R.add("ok_frac", "frac", static_cast<double>(Ok) / N, N);
    R.add("dyn_ops", "count", Ops, Seen.size() / 2);
    R.add("dyn_loads", "count", Loads, Seen.size() / 2);
    R.add("dyn_stores", "count", Stores, Seen.size() / 2);
    R.add("static_ops", "count", StaticOps, Progs.size() * 4);
    return 0;
  }

  LayerReport LR;
  LR.Ops = N;
  LR.Logs = {&L};
  LR.Counts = C;
  uint64_t Hits = counterValue("cache.hits") - Hits0;
  uint64_t Misses = counterValue("cache.misses") - Misses0;
  LR.CompileCacheHitFrac =
      Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0;
  addLayerMetrics(LR, R);
  double TracedMs = 0;
  for (const auto &[Op, Ms] : opDurations(L))
    TracedMs += Ms;
  R.Info.push_back({"traced_op_ms", fmt(TracedMs / N)});
  R.Info.push_back({"untraced_op_ms", fmt(UntracedMs / N)});
  R.Info.push_back({"tracing_overhead", fmt(TracedMs / UntracedMs - 1)});
  std::string Path = A.OutDir + "/trace-paper.json";
  if (writeChromeTrace(Path, LR.Logs))
    R.Info.push_back({"spans", Path});
  return 0;
}
