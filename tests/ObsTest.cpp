//===- tests/ObsTest.cpp - Observability subsystem tests ------------------===//
//
// Pins the remark streams (exact lines, exact reason codes) for the
// canonical blocking shapes, checks the dynamic tag profiler's counting
// invariants, and proves the headline property of the subsystem: every
// residual in-loop load/store of a promotable-class tag joins a remark
// with a concrete reason code.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/JobRunner.h"
#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "obs/Metrics.h"
#include "obs/Remark.h"
#include "obs/TagProfile.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <tuple>

using namespace rpcc;

namespace {

/// A loop whose global is blocked by a call that modifies it.
const char *CallBlockedSrc = "int g;\n"
                             "\n"
                             "void bump() { g = g + 1; }\n"
                             "\n"
                             "int main() {\n"
                             "  int i;\n"
                             "  for (i = 0; i < 10; i = i + 1) {\n"
                             "    g = g + 2;\n"
                             "    bump();\n"
                             "  }\n"
                             "  return g;\n"
                             "}\n";

/// A loop whose global is blocked by a two-target pointer store.
const char *AliasBlockedSrc = "int g;\n"
                              "int h;\n"
                              "\n"
                              "int main(int argc) {\n"
                              "  int *p;\n"
                              "  int i;\n"
                              "  int s;\n"
                              "  if (argc > 1) {\n"
                              "    p = &g;\n"
                              "  } else {\n"
                              "    p = &h;\n"
                              "  }\n"
                              "  s = 0;\n"
                              "  for (i = 0; i < 10; i = i + 1) {\n"
                              "    s = s + g;\n"
                              "    *p = i;\n"
                              "  }\n"
                              "  return s;\n"
                              "}\n";

/// With promotion off, LICM faces a load of a tag the loop also stores.
const char *HoistBlockedSrc = "int g;\n"
                              "int h;\n"
                              "\n"
                              "int main() {\n"
                              "  int i;\n"
                              "  int s;\n"
                              "  s = 0;\n"
                              "  for (i = 0; i < 10; i = i + 1) {\n"
                              "    s = s + h;\n"
                              "    g = g + i;\n"
                              "    if (s > 100) { g = g + h; }\n"
                              "  }\n"
                              "  return s + g;\n"
                              "}\n";

/// Compiles \p Src with remarks attached; returns the collected stream.
/// Fails the test on compile errors.
void compileWithRemarks(const std::string &Src, CompilerConfig Cfg,
                        RemarkEngine &Re) {
  Cfg.Remarks = &Re;
  CompileOutput Out = compileProgram(Src, Cfg);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
}

/// All formatted lines of one pass, in emission order.
std::vector<std::string> passLines(const RemarkEngine &Re,
                                   const std::string &Pass) {
  std::vector<std::string> Lines;
  for (const Remark &R : Re.remarks())
    if (R.Pass == Pass)
      Lines.push_back(formatRemark(R));
  return Lines;
}

//===----------------------------------------------------------------------===//
// Golden remark sets
//===----------------------------------------------------------------------===//

TEST(RemarkGolden, CallBlockedScalarPromotion) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  RemarkEngine Re;
  compileWithRemarks(CallBlockedSrc, Cfg, Re);

  EXPECT_EQ(passLines(Re, "promote"),
            std::vector<std::string>(
                {"[promote] missed(call-modref) func=main loop=for.cond#1 "
                 "depth=1 tag=g: a call in the loop may mod/ref the tag"}));
  // The audit explains the surviving in-loop traffic with the same reason.
  EXPECT_EQ(passLines(Re, "residual"),
            std::vector<std::string>(
                {"[residual] residual(call-modref) func=main "
                 "loop=for.cond#1 depth=1 tag=g: a call in the loop may "
                 "mod/ref the tag (1 load(s), 1 store(s))"}));
}

TEST(RemarkGolden, AliasBlockedScalarPromotion) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  RemarkEngine Re;
  compileWithRemarks(AliasBlockedSrc, Cfg, Re);

  EXPECT_EQ(passLines(Re, "promote"),
            std::vector<std::string>(
                {"[promote] missed(aliased-pointer-op) func=main "
                 "loop=for.cond#4 depth=1 tag=g: a pointer-based op in the "
                 "loop may touch the tag"}));
  EXPECT_EQ(
      passLines(Re, "residual"),
      std::vector<std::string>(
          {"[residual] residual(aliased-pointer-op) func=main "
           "loop=for.cond#4 depth=1 tag=g: a pointer-based op in the loop "
           "may touch the tag (1 load(s), 0 store(s))",
           "[residual] residual(multi-tag-pointer) func=main "
           "loop=for.cond#4 depth=1 tag=g: pointer may reference several "
           "objects (0 load(s), 1 store(s))",
           "[residual] residual(multi-tag-pointer) func=main "
           "loop=for.cond#4 depth=1 tag=h: pointer may reference several "
           "objects (0 load(s), 1 store(s))"}));
}

TEST(RemarkGolden, HoistBlockedLicm) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  Cfg.ScalarPromotion = false;
  RemarkEngine Re;
  compileWithRemarks(HoistBlockedSrc, Cfg, Re);

  EXPECT_EQ(passLines(Re, "licm"),
            std::vector<std::string>(
                {"[licm] hoisted func=main loop=for.cond#1 depth=1 tag=h: "
                 "invariant load moved to the landing pad",
                 "[licm] missed(tag-modified) func=main loop=for.cond#1 "
                 "depth=1 tag=g: the loop may modify the tag (2 load(s))"}));
  EXPECT_EQ(passLines(Re, "residual"),
            std::vector<std::string>(
                {"[residual] residual(promotion-off) func=main "
                 "loop=for.cond#1 depth=1 tag=g: the promoting pass is "
                 "disabled in this configuration (2 load(s), 2 store(s))"}));
}

TEST(RemarkGolden, PromotedRemarkAndJsonShape) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  RemarkEngine Re;
  compileWithRemarks(HoistBlockedSrc, Cfg, Re); // promotes g and h

  size_t Promoted = Re.count(RemarkKind::Promoted, "promote");
  EXPECT_EQ(Promoted, 2u); // g and h both promotable here
  std::string Json = Re.toJsonLines({{"program", "hoistblk"}});
  EXPECT_NE(Json.find("{\"program\":\"hoistblk\",\"pass\":\"promote\","
                      "\"kind\":\"promoted\",\"reason\":\"none\""),
            std::string::npos)
      << Json;
  // One object per remark, every line newline-terminated.
  EXPECT_EQ(static_cast<size_t>(
                std::count(Json.begin(), Json.end(), '\n')),
            Re.size());
}

//===----------------------------------------------------------------------===//
// Dynamic tag profile
//===----------------------------------------------------------------------===//

/// Compiles + interprets with profiling; returns (result, meta kept alive
/// by caller).
ExecResult runProfiled(const std::string &Src, const CompilerConfig &Cfg,
                       RemarkEngine &Re, ProfileMeta &Meta,
                       std::unique_ptr<Module> &KeepM) {
  CompilerConfig WithRemarks = Cfg;
  WithRemarks.Remarks = &Re;
  CompileOutput Out = compileProgram(Src, WithRemarks);
  EXPECT_TRUE(Out.Ok) << Out.Errors;
  Meta = ProfileMeta::build(*Out.M);
  InterpOptions IO;
  IO.Profile = &Meta;
  ExecResult R = interpret(*Out.M, IO);
  KeepM = std::move(Out.M);
  return R;
}

TEST(TagProfile, CountsPartitionTheTotals) {
  for (const char *Name : {"tsp", "dhrystone", "allroots"}) {
    CompilerConfig Cfg;
    Cfg.Analysis = AnalysisKind::ModRef;
    RemarkEngine Re;
    ProfileMeta Meta;
    std::unique_ptr<Module> M;
    ExecResult R = runProfiled(loadBenchProgram(Name), Cfg, Re, Meta, M);
    ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
    // The profiler must attribute every executed load and store — no
    // drops, no double counting.
    EXPECT_EQ(R.Profile.sumLoads(), R.Counters.Loads) << Name;
    EXPECT_EQ(R.Profile.sumStores(), R.Counters.Stores) << Name;
    // Counts are sorted by (function, loop, tag) — deterministic output.
    EXPECT_TRUE(std::is_sorted(
        R.Profile.Counts.begin(), R.Profile.Counts.end(),
        [](const TagLoopCount &A, const TagLoopCount &B) {
          return std::make_tuple(A.Func, A.Loop, A.Tag) <
                 std::make_tuple(B.Func, B.Loop, B.Tag);
        }))
        << Name;
  }
}

TEST(TagProfile, EveryResidualInLoopOpJoinsARemark) {
  // The acceptance property, on two real benchmark programs: every
  // residual in-loop dynamic load/store of a promotable-class tag (global
  // or address-taken local) joins a missed/residual remark with a concrete
  // reason code.
  for (const char *Name : {"tsp", "mlink"}) {
    CompilerConfig Cfg;
    Cfg.Analysis = AnalysisKind::ModRef;
    RemarkEngine Re;
    ProfileMeta Meta;
    std::unique_ptr<Module> M;
    ExecResult R = runProfiled(loadBenchProgram(Name), Cfg, Re, Meta, M);
    ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
    std::vector<ExplainRow> Rows = buildExplainReport(*M, Meta, R.Profile, Re);
    EXPECT_FALSE(Rows.empty()) << Name;
    for (const ExplainRow &Row : Rows) {
      EXPECT_TRUE(Row.Joined)
          << Name << ": unexplained residual traffic on tag " << Row.Tag
          << " in loop " << Row.Loop << " of " << Row.Function;
      if (Row.Joined) {
        EXPECT_FALSE(Row.Reasons.empty());
        for (RemarkReason Reason : Row.Reasons)
          EXPECT_STRNE(RemarkEngine::reasonCode(Reason), "none");
      }
    }
  }
}

TEST(TagProfile, ProfileJsonIsDeterministic) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  std::string Json[2];
  for (int Round = 0; Round != 2; ++Round) {
    RemarkEngine Re;
    ProfileMeta Meta;
    std::unique_ptr<Module> M;
    ExecResult R =
        runProfiled(loadBenchProgram("dhrystone"), Cfg, Re, Meta, M);
    ASSERT_TRUE(R.Ok) << R.Error;
    Json[Round] = profileToJson(*M, Meta, R.Profile);
  }
  EXPECT_EQ(Json[0], Json[1]);
  EXPECT_NE(Json[0].find("\"total_loads\":"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Determinism of promotion decisions
//===----------------------------------------------------------------------===//

TEST(RemarkDeterminism, PromoteStreamIgnoresBackendKnobs) {
  // Register count, allocator vintage, and the later scalar optimizations
  // must not leak into promotion decisions. Same property the fuzz oracle
  // asserts per seed; pinned here on a real program.
  std::string Src = loadBenchProgram("tsp");
  std::string Base;
  bool HaveBase = false;
  for (unsigned Regs : {8u, 16u, 32u}) {
    for (bool Classic : {false, true}) {
      CompilerConfig Cfg;
      Cfg.Analysis = AnalysisKind::ModRef;
      Cfg.NumRegisters = Regs;
      Cfg.ClassicAllocator = Classic;
      RemarkEngine Re;
      compileWithRemarks(Src, Cfg, Re);
      std::string Stream = Re.toText("promote");
      EXPECT_FALSE(Stream.empty());
      if (!HaveBase) {
        HaveBase = true;
        Base = Stream;
      } else {
        EXPECT_EQ(Stream, Base) << "regs=" << Regs
                                << " classic=" << Classic;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Trace collector
//===----------------------------------------------------------------------===//

TEST(Trace, SpansRenderAndEscape) {
  TraceCollector T;
  T.addSpan("pass \"x\"\n", "pass", timingNowMs(), 1.25,
            {{"job", "a\\b"}});
  T.addSpan("plain", "cell", timingNowMs(), 0.5);
  EXPECT_EQ(T.size(), 2u);
  std::string Json = T.toJson();
  EXPECT_NE(Json.find("\"pass \\\"x\\\"\\n\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"job\":\"a\\\\b\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Timing report hardening
//===----------------------------------------------------------------------===//

TEST(Timing, CanonicalPassOrderSurvivesMergeOrder) {
  // Two reports whose passes arrive in different first-seen orders (as
  // parallel cells produce) must render identically.
  TimingReport A, B;
  A.addPass("dce", 1.0, 10, 8);
  A.addPass("lower", 2.0, 0, 10);
  B.addPass("lower", 2.0, 0, 10);
  B.addPass("dce", 1.0, 10, 8);
  EXPECT_EQ(formatTimingJson(A), formatTimingJson(B));
  EXPECT_EQ(formatTimingReport(A), formatTimingReport(B));
  std::string Json = A.Passes.empty() ? "" : formatTimingJson(A);
  size_t Lower = Json.find("\"name\":\"lower\"");
  size_t Dce = Json.find("\"name\":\"dce\"");
  ASSERT_NE(Lower, std::string::npos);
  ASSERT_NE(Dce, std::string::npos);
  EXPECT_LT(Lower, Dce);
}

TEST(Timing, JsonEscapesPassNames) {
  TimingReport R;
  R.addPass("weird\"pass\\name", 1.0, 0, 0);
  std::string Json = formatTimingJson(R);
  EXPECT_NE(Json.find("\"name\":\"weird\\\"pass\\\\name\""),
            std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Suite integration
//===----------------------------------------------------------------------===//

TEST(SuiteObs, CellsCollectRemarksAndProfile) {
  SuiteOptions Opts;
  Opts.Remarks = true;
  Opts.ProfileTags = true;
  ProgramResults PR = runAllConfigs(
      "dhrystone", loadBenchProgram("dhrystone"), Opts);
  for (int A = 0; A != 2; ++A)
    for (int P = 0; P != 2; ++P)
      ASSERT_TRUE(PR.R[A][P].Ok) << PR.R[A][P].Error;
  // The with-promotion cells promote; the without cells log the misses.
  EXPECT_GT(PR.R[0][1].RemarksPromoted, 0u);
  EXPECT_GT(PR.R[0][0].RemarksMissed + PR.R[0][0].RemarksResidual, 0u);
  // Only the modref/with cell profiles.
  EXPECT_FALSE(PR.R[0][1].HotTags.empty());
  EXPECT_FALSE(PR.R[0][1].ProfileJson.empty());
  EXPECT_TRUE(PR.R[0][0].ProfileJson.empty());
  // Remark JSON lines carry the program/cell join keys.
  EXPECT_NE(PR.R[1][1].RemarksJson.find(
                "{\"program\":\"dhrystone\",\"cell\":\"pointer/with\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

/// Finds the sample with this exact (name, labels) pair; fails if absent.
const MetricSample *findSample(const std::vector<MetricSample> &Samples,
                               const std::string &Name,
                               const MetricLabels &Labels = {}) {
  for (const MetricSample &S : Samples)
    if (S.Name == Name && S.Labels == Labels)
      return &S;
  return nullptr;
}

TEST(Metrics, BucketBoundaries) {
  // Bucket 0 holds only zero; bucket k in [1,64] holds [2^(k-1), 2^k).
  EXPECT_EQ(metricBucketFor(0), 0u);
  EXPECT_EQ(metricBucketFor(1), 1u);
  EXPECT_EQ(metricBucketFor(2), 2u);
  EXPECT_EQ(metricBucketFor(3), 2u);
  EXPECT_EQ(metricBucketFor(4), 3u);
  EXPECT_EQ(metricBucketFor(7), 3u);
  EXPECT_EQ(metricBucketFor(8), 4u);
  for (unsigned K = 1; K != 64; ++K) {
    EXPECT_EQ(metricBucketFor(uint64_t(1) << K), K + 1) << "2^" << K;
    EXPECT_EQ(metricBucketFor((uint64_t(1) << K) - 1), K) << "2^" << K
                                                          << " - 1";
  }
  EXPECT_EQ(metricBucketFor(uint64_t(1) << 63), 64u);
  EXPECT_EQ(metricBucketFor(UINT64_MAX), 64u);
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry &R = MetricsRegistry::global();
  Counter C = R.counter("test.basics_count", {}, MetricStability::Stable,
                        "ops", "test");
  Gauge G = R.gauge("test.basics_gauge", {}, MetricStability::Stable, "ops",
                    "test");
  Histogram H = R.histogram("test.basics_hist", {}, MetricStability::Stable,
                            "us", "test");
  // Re-registering the same (name, labels) must alias the same metric.
  Counter C2 = R.counter("test.basics_count", {}, MetricStability::Stable,
                         "ops", "test");
  C.inc();
  C.inc(41);
  C2.inc();
  G.add(10);
  G.add(-3);
  H.observe(0);
  H.observe(1);
  H.observe(1000);

  std::vector<MetricSample> S = R.snapshot();
  const MetricSample *SC = findSample(S, "test.basics_count");
  ASSERT_NE(SC, nullptr);
  EXPECT_EQ(SC->Value, 43);
  const MetricSample *SG = findSample(S, "test.basics_gauge");
  ASSERT_NE(SG, nullptr);
  EXPECT_EQ(SG->Value, 7);
  const MetricSample *SH = findSample(S, "test.basics_hist");
  ASSERT_NE(SH, nullptr);
  EXPECT_EQ(SH->Count, 3u);
  EXPECT_EQ(SH->Sum, 1001u);
  EXPECT_EQ(SH->Buckets[0], 1u);
  EXPECT_EQ(SH->Buckets[1], 1u);
  EXPECT_EQ(SH->Buckets[metricBucketFor(1000)], 1u);
  uint64_t BucketSum = 0;
  for (uint64_t B : SH->Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, SH->Count);

  // The snapshot is sorted by (name, labels) — the exposition invariant.
  for (size_t I = 1; I < S.size(); ++I)
    EXPECT_LE(S[I - 1].Name, S[I].Name);

  // reset() zeroes values but keeps registrations and live handles.
  R.reset();
  C.inc(5);
  S = R.snapshot();
  SC = findSample(S, "test.basics_count");
  ASSERT_NE(SC, nullptr);
  EXPECT_EQ(SC->Value, 5);
  SH = findSample(S, "test.basics_hist");
  ASSERT_NE(SH, nullptr);
  EXPECT_EQ(SH->Count, 0u);
  EXPECT_EQ(SH->Sum, 0u);
}

TEST(Metrics, NullHandlesAreNoOps) {
  Counter C;
  Gauge G;
  Histogram H;
  C.inc();
  G.add(1);
  H.observe(1); // must not crash
}

// The TSan target: many threads hammering the same handles through the
// sharded storage must lose no increments and produce exact totals.
TEST(Metrics, ConcurrentIncrementHammer) {
  MetricsRegistry &R = MetricsRegistry::global();
  Counter C = R.counter("test.hammer_count", {}, MetricStability::Stable,
                        "ops", "test");
  Histogram H = R.histogram("test.hammer_hist", {}, MetricStability::Stable,
                            "us", "test");
  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&C, &H, T] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        C.inc();
        H.observe(static_cast<uint64_t>(T));
      }
    });
  for (std::thread &T : Ts)
    T.join();

  std::vector<MetricSample> S = R.snapshot();
  const MetricSample *SC = findSample(S, "test.hammer_count");
  ASSERT_NE(SC, nullptr);
  EXPECT_EQ(SC->Value, static_cast<int64_t>(Threads * PerThread));
  const MetricSample *SH = findSample(S, "test.hammer_hist");
  ASSERT_NE(SH, nullptr);
  EXPECT_EQ(SH->Count, Threads * PerThread);
  uint64_t BucketSum = 0;
  for (uint64_t B : SH->Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, SH->Count);
}

TEST(Metrics, ExpositionShapes) {
  MetricsRegistry &R = MetricsRegistry::global();
  R.reset();
  Counter C = R.counter("test.expo_count", {{"who", "me"}},
                        MetricStability::Stable, "ops", "an \"escaped\" help");
  Histogram H = R.histogram("test.expo_hist", {}, MetricStability::Stable,
                            "us", "test");
  C.inc(3);
  H.observe(5);
  std::vector<MetricSample> S = R.snapshot();

  std::string Json = metricsToJson(S, 12.5);
  EXPECT_NE(Json.find("\"schema\":\"metrics\""), std::string::npos);
  EXPECT_NE(Json.find("\"wall_ms\":12.500"), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"test.expo_count\""), std::string::npos);
  EXPECT_NE(Json.find("\"labels\":{\"who\":\"me\"}"), std::string::npos);
  EXPECT_NE(Json.find("an \\\"escaped\\\" help"), std::string::npos);

  std::string Prom = metricsToProm(S);
  EXPECT_NE(Prom.find("# TYPE rpcc_test_expo_count counter"),
            std::string::npos);
  EXPECT_NE(Prom.find("rpcc_test_expo_count{who=\"me\"} 3"),
            std::string::npos);
  EXPECT_NE(Prom.find("rpcc_test_expo_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(Prom.find("rpcc_test_expo_hist_count 1"), std::string::npos);

  std::string Canon = metricsCanon(S);
  EXPECT_NE(Canon.find("test.expo_count{who=me} 3"), std::string::npos);
  EXPECT_NE(Canon.find("test.expo_hist count=1 sum=5 buckets=3:1"),
            std::string::npos);
}

// Two runs of the same suite workload — serial and parallel — must project
// to identical canon strings, the metrics mirror of the rpjson trace canon.
TEST(Metrics, SuiteCanonIsJobsIndependent) {
  MetricsRegistry &R = MetricsRegistry::global();
  SuiteOptions Opts;
  std::string Canon[2];
  for (int Leg = 0; Leg != 2; ++Leg) {
    R.reset();
    Opts.Jobs = Leg ? 4 : 1;
    std::vector<ProgramResults> All = runSuite({"tsp"}, Opts);
    for (const ProgramResults &PR : All)
      for (int A = 0; A != 2; ++A)
        for (int P = 0; P != 2; ++P)
          ASSERT_TRUE(PR.R[A][P].Ok) << PR.R[A][P].Error;
    Canon[Leg] = metricsCanon(R.snapshot());
  }
  EXPECT_EQ(Canon[0], Canon[1]);
  EXPECT_NE(Canon[0].find("suite.cells 4"), std::string::npos) << Canon[0];
  EXPECT_NE(Canon[0].find("pool.items 4"), std::string::npos) << Canon[0];
  R.reset();
}

/// A counter sample as a registry snapshot would hold it.
MetricSample counterSample(const std::string &Name, int64_t Value) {
  MetricSample S;
  S.Name = Name;
  S.Kind = MetricKind::Counter;
  S.Value = Value;
  return S;
}

TEST(Metrics, HeartbeatReportsOneCacheHitRate) {
  Heartbeat HB(0, "rpserved"); // no thread; lines are formatted on demand
  std::string Line =
      HB.formatLine({counterSample("cache.hits", 3),
                     counterSample("cache.misses", 1),
                     counterSample("served.requests", 8)},
                    2.0);
  EXPECT_EQ(Line, "rpserved: heartbeat: 8 reqs (4.0/s), cache 75.0% hit");
  // No prefix-store traffic, no hit-rate part.
  Line = HB.formatLine({counterSample("suite.cells", 4)}, 1.0);
  EXPECT_EQ(Line, "rpserved: heartbeat: 4 cells");
  EXPECT_EQ(HB.formatLine({}, 1.0), "rpserved: heartbeat: warming up");
}

// The acceptance invariant: jobs.outcome counters partition exactly like
// the JobLog's status taxonomy — every logged record is counted once under
// its final status, sandboxed or inline.
TEST(Metrics, JobOutcomeCountersMatchJobLog) {
  MetricsRegistry &R = MetricsRegistry::global();
  R.reset();
  JobLog Log;
  JobOptions Opts;
  Opts.Log = &Log;

  Opts.Name = "inline-ok";
  runJob([](std::string &) { return true; }, Opts);
  Opts.Name = "inline-trap";
  runJob([](std::string &) { return false; }, Opts);
#ifndef _WIN32
  Opts.Name = "sandbox-ok";
  Opts.Sandbox = true;
  Opts.Limits.WallSeconds = 30;
  runJob([](std::string &) { return true; }, Opts);
#endif

  std::vector<MetricSample> S = R.snapshot();
  std::vector<JobRecord> Records = Log.records();
  // Per-status counts match the log exactly...
  for (SandboxStatus St :
       {SandboxStatus::Ok, SandboxStatus::Trap, SandboxStatus::Timeout,
        SandboxStatus::Oom, SandboxStatus::Crash,
        SandboxStatus::InternalError}) {
    int64_t Logged = 0;
    for (const JobRecord &Rec : Records)
      Logged += Rec.Status == St;
    const MetricSample *Sample = findSample(
        S, "jobs.outcome", {{"status", sandboxStatusName(St)}});
    ASSERT_NE(Sample, nullptr) << sandboxStatusName(St);
    EXPECT_EQ(Sample->Value, Logged) << sandboxStatusName(St);
  }
  // ... so the label sums do too.
  EXPECT_EQ(metricsValue(S, "jobs.outcome"),
            static_cast<int64_t>(Records.size()));
  R.reset();
}

} // namespace
