//===- tests/SuiteTest.cpp - Benchmark-suite integration tests ------------===//
//
// Runs all 14 Figure-4 stand-in programs through the paper's 2x2
// configuration matrix and asserts (a) observable behavior never changes
// and (b) the headline shapes of Figures 5-7 hold: who improves, who
// degrades slightly, and where the two analyses separate.
//
//===----------------------------------------------------------------------===//

#include "driver/SuiteRunner.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <map>

using namespace rpcc;

namespace {

/// One shared run of the whole suite (it takes ~1 second; recompiling per
/// test would dominate).
class SuiteResults {
public:
  static const SuiteResults &get() {
    static SuiteResults R;
    return R;
  }

  const ProgramResults &of(const std::string &Name) const {
    auto It = Results.find(Name);
    EXPECT_NE(It, Results.end()) << "no such program: " << Name;
    return It->second;
  }

private:
  SuiteResults() {
    for (const std::string &Name : benchProgramNames())
      Results.emplace(Name, runAllConfigs(Name, loadBenchProgram(Name)));
  }
  std::map<std::string, ProgramResults> Results;
};

double pctRemoved(uint64_t Without, uint64_t With) {
  return 100.0 *
         (static_cast<double>(Without) - static_cast<double>(With)) /
         static_cast<double>(Without);
}

class SuiteProgramTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteProgramTest, AllConfigsSucceedAndAgree) {
  const ProgramResults &PR = SuiteResults::get().of(GetParam());
  for (int A = 0; A != 2; ++A)
    for (int P = 0; P != 2; ++P) {
      const ConfigCounts &C = PR.R[A][P];
      ASSERT_TRUE(C.Ok) << GetParam() << " [" << A << "][" << P
                        << "]: " << C.Error;
      EXPECT_EQ(C.Output, PR.R[0][0].Output)
          << GetParam() << ": observable output changed";
      EXPECT_GT(C.Total, 0u);
    }
}

TEST_P(SuiteProgramTest, PromotionNeverAddsWholesaleTraffic) {
  // Promotion may cost a few percent (dhrystone/bison-style overheads) but
  // must never blow up memory traffic; 15% is far beyond any legitimate
  // pad/exit overhead in this suite.
  const ProgramResults &PR = SuiteResults::get().of(GetParam());
  for (int A = 0; A != 2; ++A) {
    EXPECT_LT(PR.R[A][1].Total, PR.R[A][0].Total * 115 / 100) << GetParam();
    EXPECT_LT(PR.R[A][1].Loads, PR.R[A][0].Loads * 115 / 100 + 300)
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SuiteProgramTest,
                         ::testing::ValuesIn(benchProgramNames()),
                         [](const auto &Info) { return Info.param; });

// -- Figure 5-7 headline shapes -------------------------------------------

TEST(SuiteShapeTest, MlinkIsTheBigStoreWin) {
  const ProgramResults &PR = SuiteResults::get().of("mlink");
  // Paper: 57% of stores removed; ours is even stronger. Require > 50%.
  EXPECT_GT(pctRemoved(PR.R[0][0].Stores, PR.R[0][1].Stores), 50.0);
  // And a >15% load reduction (paper: ~26%).
  EXPECT_GT(pctRemoved(PR.R[0][0].Loads, PR.R[0][1].Loads), 15.0);
}

TEST(SuiteShapeTest, TspSimAllrootsAreFlat) {
  for (const char *Name : {"tsp", "sim"}) {
    const ProgramResults &PR = SuiteResults::get().of(Name);
    double Pct = pctRemoved(PR.R[0][0].Total, PR.R[0][1].Total);
    EXPECT_NEAR(Pct, 0.0, 0.5) << Name;
  }
  // allroots is so small that any fixed change is a large percentage; check
  // absolutes instead.
  const ProgramResults &AR = SuiteResults::get().of("allroots");
  EXPECT_LT(AR.R[0][0].Total - AR.R[0][1].Total, 50u);
}

TEST(SuiteShapeTest, DhrystoneAndBisonDegradeSlightly) {
  // The paper's two degradation anecdotes: promoted one-trip loops and
  // error-path-only values. Total operations must get (slightly) worse.
  for (const char *Name : {"dhrystone", "bison"}) {
    const ProgramResults &PR = SuiteResults::get().of(Name);
    EXPECT_GT(PR.R[0][1].Total, PR.R[0][0].Total) << Name;
    // ...but only slightly: under 1%.
    EXPECT_LT(pctRemoved(PR.R[0][0].Total, PR.R[0][1].Total), 0.0) << Name;
    EXPECT_GT(pctRemoved(PR.R[0][0].Total, PR.R[0][1].Total), -1.0) << Name;
  }
}

TEST(SuiteShapeTest, BcSeparatesTheAnalyses) {
  // Paper: bc is where pointer analysis visibly beats MOD/REF (stores
  // 8.83% vs 27.52% removed).
  const ProgramResults &PR = SuiteResults::get().of("bc");
  double ModrefStores = pctRemoved(PR.R[0][0].Stores, PR.R[0][1].Stores);
  double PointerStores = pctRemoved(PR.R[1][0].Stores, PR.R[1][1].Stores);
  EXPECT_GT(PointerStores, ModrefStores + 20.0)
      << "pointer analysis should unlock far more of bc's stores";
  double ModrefLoads = pctRemoved(PR.R[0][0].Loads, PR.R[0][1].Loads);
  double PointerLoads = pctRemoved(PR.R[1][0].Loads, PR.R[1][1].Loads);
  EXPECT_GT(PointerLoads, ModrefLoads + 10.0);
}

TEST(SuiteShapeTest, FftNeedsPointerAnalysis) {
  // Paper: "An example where pointer analysis was required to promote a
  // value arose in fft" — under MOD/REF the store reduction is ~0, under
  // points-to it is positive.
  const ProgramResults &PR = SuiteResults::get().of("fft");
  double Modref = pctRemoved(PR.R[0][0].Stores, PR.R[0][1].Stores);
  double Pointer = pctRemoved(PR.R[1][0].Stores, PR.R[1][1].Stores);
  EXPECT_LT(Modref, 0.5);
  EXPECT_GT(Pointer, 1.0);
}

TEST(SuiteShapeTest, GoIsLoadsDominated) {
  // Paper: go improves loads (~15%) with essentially no store change.
  const ProgramResults &PR = SuiteResults::get().of("go");
  EXPECT_GT(pctRemoved(PR.R[0][0].Loads, PR.R[0][1].Loads), 5.0);
  EXPECT_NEAR(pctRemoved(PR.R[0][0].Stores, PR.R[0][1].Stores), 0.0, 2.0);
}

// -- Parallel execution determinism ---------------------------------------

TEST(SuiteParallelTest, ParallelMatchesSerialByteForByte) {
  SuiteOptions Serial;
  Serial.Jobs = 1;
  SuiteOptions Par;
  Par.Jobs = 4;
  std::vector<ProgramResults> A = runSuite(benchProgramNames(), Serial);
  std::vector<ProgramResults> B = runSuite(benchProgramNames(), Par);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    for (int An = 0; An != 2; ++An)
      for (int P = 0; P != 2; ++P) {
        const ConfigCounts &CA = A[I].R[An][P];
        const ConfigCounts &CB = B[I].R[An][P];
        EXPECT_EQ(CA.Ok, CB.Ok) << A[I].Name;
        EXPECT_EQ(CA.Error, CB.Error) << A[I].Name;
        EXPECT_EQ(CA.Total, CB.Total) << A[I].Name;
        EXPECT_EQ(CA.Loads, CB.Loads) << A[I].Name;
        EXPECT_EQ(CA.Stores, CB.Stores) << A[I].Name;
        EXPECT_EQ(CA.ExitCode, CB.ExitCode) << A[I].Name;
        EXPECT_EQ(CA.Output, CB.Output) << A[I].Name;
        EXPECT_EQ(CA.Diverged, CB.Diverged) << A[I].Name;
        EXPECT_EQ(CA.BaselineFailed, CB.BaselineFailed) << A[I].Name;
      }
  }
  for (Metric M : {Metric::TotalOps, Metric::Stores, Metric::Loads})
    EXPECT_EQ(formatPaperTable(A, M), formatPaperTable(B, M));
}

// -- Baseline-failure reporting -------------------------------------------

TEST(SuiteBaselineTest, FailedBaselineFlagsSurvivingCells) {
  // Pick a step limit between the promoted and unpromoted dynamic totals of
  // a classic counter loop: the modref/no-promotion baseline then dies on
  // the limit while the promoted cells finish. The survivors' counts have
  // nothing to be compared against and must be flagged, not reported.
  const char *Counter = "int g;\n"
                        "int main() { int i;\n"
                        "  for (i = 0; i < 1000; i++) g = g + 3;\n"
                        "  return g % 256; }";
  ProgramResults Ref = runAllConfigs("counter", Counter);
  ASSERT_TRUE(Ref.R[0][0].Ok && Ref.R[0][1].Ok);
  ASSERT_GT(Ref.R[0][0].Total, Ref.R[0][1].Total)
      << "promotion should shrink the counter loop";

  SuiteOptions Opts;
  Opts.Interp.MaxSteps = (Ref.R[0][0].Total + Ref.R[0][1].Total) / 2;
  ProgramResults PR = runAllConfigs("counter", Counter, Opts);

  EXPECT_FALSE(PR.R[0][0].Ok);
  EXPECT_NE(PR.R[0][0].Error.find("step limit"), std::string::npos);
  for (int An = 0; An != 2; ++An) {
    const ConfigCounts &C = PR.R[An][1];
    EXPECT_FALSE(C.Ok);
    EXPECT_TRUE(C.BaselineFailed);
    EXPECT_FALSE(C.Diverged);
    EXPECT_NE(C.Error.find("baseline failed"), std::string::npos) << C.Error;
  }
  std::string Table = formatPaperTable({PR}, Metric::TotalOps);
  EXPECT_NE(Table.find("baseline failed"), std::string::npos) << Table;
}

TEST(SuiteShapeTest, MostProgramsInsensitiveToAnalysisPrecision) {
  // The paper's central negative result: "the improved information derived
  // from pointer analysis does not greatly improve the results of register
  // promotion". Outside bc and fft, the two analyses must agree closely.
  for (const std::string &Name : benchProgramNames()) {
    if (Name == "bc" || Name == "fft")
      continue;
    const ProgramResults &PR = SuiteResults::get().of(Name);
    double ModrefPct = pctRemoved(PR.R[0][0].Total, PR.R[0][1].Total);
    double PointerPct = pctRemoved(PR.R[1][0].Total, PR.R[1][1].Total);
    EXPECT_NEAR(ModrefPct, PointerPct, 0.5) << Name;
  }
}

// -- Shared runs ----------------------------------------------------------

/// A program with no memory traffic at all: nothing to promote and nothing
/// for the two analyses to disagree on, so all four cells compile to one
/// module.
const char *kOneImage = "int main() { int i; int s; s = 0;\n"
                        "  for (i = 0; i < 100; i = i + 1) s = s + i * i;\n"
                        "  print_int(s);\n"
                        "  return s % 7; }";

/// interpret() calls on \p Opts' engine since the last registry reset.
int64_t interpRuns(const SuiteOptions &Opts) {
  MetricLabels L = {{"engine", interpEngineName(Opts.Interp.Engine)}};
  for (const MetricSample &S : MetricsRegistry::global().snapshot())
    if (S.Name == "interp.runs" && S.Labels == L)
      return S.Value;
  return 0;
}

/// Runs \p Source's matrix and returns the results plus the number of
/// interpret() calls it made.
ProgramResults runCounted(const std::string &Name, const std::string &Source,
                          const SuiteOptions &Opts, int64_t &Runs) {
  MetricsRegistry::global().reset();
  ProgramResults PR = runAllConfigs(Name, Source, Opts);
  Runs = interpRuns(Opts);
  return PR;
}

void expectSameCells(const ProgramResults &A, const ProgramResults &B) {
  for (int An = 0; An != 2; ++An)
    for (int P = 0; P != 2; ++P) {
      const ConfigCounts &CA = A.R[An][P], &CB = B.R[An][P];
      std::string Cell = A.Name + " " + suiteCellName(An, P);
      EXPECT_EQ(CA.Ok, CB.Ok) << Cell;
      EXPECT_EQ(CA.Error, CB.Error) << Cell;
      EXPECT_EQ(CA.Total, CB.Total) << Cell;
      EXPECT_EQ(CA.Loads, CB.Loads) << Cell;
      EXPECT_EQ(CA.Stores, CB.Stores) << Cell;
      EXPECT_EQ(CA.ExitCode, CB.ExitCode) << Cell;
      EXPECT_EQ(CA.Output, CB.Output) << Cell;
      EXPECT_EQ(CA.RemarksPromoted, CB.RemarksPromoted) << Cell;
      EXPECT_EQ(CA.RemarksText, CB.RemarksText) << Cell;
      EXPECT_EQ(CA.ProfileJson, CB.ProfileJson) << Cell;
      EXPECT_EQ(CA.Explain, CB.Explain) << Cell;
    }
}

TEST(SuiteSharingTest, OneImageRunsOnceAtAnyJobs) {
  SuiteOptions NoCache;
  NoCache.UseCompileCache = false;
  int64_t Runs = 0;
  ProgramResults Ref = runCounted("one", kOneImage, NoCache, Runs);
  EXPECT_EQ(Runs, 4) << "--no-compile-cache must run every cell";
  ASSERT_TRUE(Ref.R[0][0].Ok) << Ref.R[0][0].Error;
  for (unsigned Jobs : {1u, 4u}) {
    SuiteOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Remarks = true;
    NoCache.Remarks = true;
    ProgramResults PR = runCounted("one", kOneImage, Opts, Runs);
    EXPECT_EQ(Runs, 1) << "Jobs=" << Jobs;
    expectSameCells(PR, runAllConfigs("one", kOneImage, NoCache));
  }
}

TEST(SuiteSharingTest, DistinctImagesEachRun) {
  // fft is one of the two programs where the analyses separate, and
  // promotion changes its code under both: four images.
  std::string Source = loadBenchProgram("fft");
  SuiteOptions Opts;
  Opts.Jobs = 4;
  int64_t Runs = 0;
  ProgramResults PR = runCounted("fft", Source, Opts, Runs);
  EXPECT_EQ(Runs, 4);
  SuiteOptions NoCache;
  NoCache.UseCompileCache = false;
  expectSameCells(PR, runAllConfigs("fft", Source, NoCache));
}

TEST(SuiteSharingTest, ProfiledCellRunsOnItsOwn) {
  SuiteOptions Opts;
  Opts.ProfileTags = true;
  int64_t Runs = 0;
  ProgramResults PR = runCounted("one", kOneImage, Opts, Runs);
  // The profiled modref/with cell runs with its sink; the other three
  // cells share one run.
  EXPECT_EQ(Runs, 2);
  EXPECT_FALSE(PR.R[0][1].ProfileJson.empty());
  SuiteOptions NoCache = Opts;
  NoCache.UseCompileCache = false;
  expectSameCells(PR, runAllConfigs("one", kOneImage, NoCache));
}

TEST(SuiteSharingTest, FailedCompilesRunNothing) {
  // No cell compiles, so none runs or shares, and each reports the error.
  SuiteOptions Opts;
  Opts.Jobs = 4;
  int64_t Runs = 0;
  ProgramResults PR =
      runCounted("broken", "int main() { return missing; }", Opts, Runs);
  EXPECT_EQ(Runs, 0);
  for (int An = 0; An != 2; ++An)
    for (int P = 0; P != 2; ++P) {
      EXPECT_FALSE(PR.R[An][P].Ok);
      EXPECT_NE(PR.R[An][P].Error.find("missing"), std::string::npos)
          << PR.R[An][P].Error;
    }
}

TEST(SuiteSharingTest, SuiteRunsOnePerImage) {
  // tsp and dhrystone each compile to two images (promotion changes the
  // code, the analyses do not), so the suite runs four cells of eight.
  SuiteOptions NoCache;
  NoCache.UseCompileCache = false;
  std::vector<ProgramResults> Ref = runSuite({"tsp", "dhrystone"}, NoCache);
  for (unsigned Jobs : {1u, 4u}) {
    SuiteOptions Opts;
    Opts.Jobs = Jobs;
    Opts.CollectTiming = true;
    MetricsRegistry::global().reset();
    std::vector<ProgramResults> All = runSuite({"tsp", "dhrystone"}, Opts);
    EXPECT_EQ(interpRuns(Opts), 4) << "Jobs=" << Jobs;
    ASSERT_EQ(All.size(), Ref.size());
    for (size_t I = 0; I != All.size(); ++I) {
      const ProgramResults &PR = All[I];
      expectSameCells(PR, Ref[I]);
      // Every cell's steps count, whether it ran or shared a run.
      EXPECT_EQ(PR.Timing.InterpSteps, PR.R[0][0].Total + PR.R[0][1].Total +
                                           PR.R[1][0].Total + PR.R[1][1].Total)
          << PR.Name;
    }
  }
}

} // namespace
