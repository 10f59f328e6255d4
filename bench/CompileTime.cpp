//===- bench/CompileTime.cpp - §3.1 cost-model benchmarks -----------------===//
//
// The paper bounds the promotion algorithm's cost by
// O(E alpha(E,B) + T(C + LB + LX)) and notes "In practice, it runs quite
// quickly." These google-benchmark timings exercise the claim: promotion
// time against the number of loops, the nesting depth, and the number of
// tags, plus whole-pipeline compile times for the real benchmark suite.
//
//===----------------------------------------------------------------------===//

#include "alias/ModRef.h"
#include "analysis/CfgNormalize.h"
#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"
#include "frontend/Lowering.h"
#include "promote/ScalarPromotion.h"

#include <benchmark/benchmark.h>

#include <sstream>

using namespace rpcc;

namespace {

/// N sequential loops, each touching G distinct globals.
std::string sequentialLoops(int NumLoops, int NumGlobals) {
  std::ostringstream S;
  for (int G = 0; G != NumGlobals; ++G)
    S << "int g" << G << ";\n";
  S << "int main() { int i;\n";
  for (int L = 0; L != NumLoops; ++L) {
    S << "  for (i = 0; i < 10; i++) {\n";
    for (int G = 0; G != NumGlobals; ++G)
      S << "    g" << G << " = g" << G << " + " << (L + G) << ";\n";
    S << "  }\n";
  }
  S << "  return g0;\n}\n";
  return S.str();
}

/// One loop nest of the given depth, touching G globals at the innermost
/// level (stresses the per-loop aggregation of equations 1-4).
std::string nestedLoops(int Depth, int NumGlobals) {
  std::ostringstream S;
  for (int G = 0; G != NumGlobals; ++G)
    S << "int g" << G << ";\n";
  S << "int main() {\n";
  for (int D = 0; D != Depth; ++D)
    S << "  int i" << D << ";\n";
  for (int D = 0; D != Depth; ++D)
    S << "  for (i" << D << " = 0; i" << D << " < 3; i" << D << "++) {\n";
  for (int G = 0; G != NumGlobals; ++G)
    S << "    g" << G << " = g" << G << " + 1;\n";
  for (int D = 0; D != Depth; ++D)
    S << "  }\n";
  S << "  return g0;\n}\n";
  return S.str();
}

/// Lowers + analyzes once per measurement, timing only the promoter.
void benchPromotion(benchmark::State &State, const std::string &Src) {
  for (auto _ : State) {
    State.PauseTiming();
    Module M;
    std::string Err;
    bool Ok = compileToIL(Src, M, Err);
    if (!Ok)
      State.SkipWithError("frontend failure");
    for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
      Function *F = M.function(static_cast<FuncId>(FI));
      if (!F->isBuiltin() && F->numBlocks())
        normalizeLoops(*F);
    }
    runModRef(M);
    State.ResumeTiming();
    PromotionStats S = promoteScalars(M);
    benchmark::DoNotOptimize(S.PromotedTags);
  }
}

void BM_PromoteSequentialLoops(benchmark::State &State) {
  std::string Src =
      sequentialLoops(static_cast<int>(State.range(0)), 8);
  benchPromotion(State, Src);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PromoteSequentialLoops)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

void BM_PromoteNestDepth(benchmark::State &State) {
  std::string Src = nestedLoops(static_cast<int>(State.range(0)), 8);
  benchPromotion(State, Src);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PromoteNestDepth)->DenseRange(2, 12, 2)->Complexity();

void BM_PromoteTagCount(benchmark::State &State) {
  std::string Src =
      sequentialLoops(8, static_cast<int>(State.range(0)));
  benchPromotion(State, Src);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PromoteTagCount)->RangeMultiplier(2)->Range(4, 64)->Complexity();

/// Whole-pipeline compile time (frontend through register allocation) for
/// each real suite program.
void BM_CompileSuiteProgram(benchmark::State &State,
                            const std::string &Name) {
  std::string Src = loadBenchProgram(Name);
  for (auto _ : State) {
    CompilerConfig Cfg;
    Cfg.Analysis = AnalysisKind::PointsTo;
    CompileOutput Out = compileProgram(Src, Cfg);
    if (!Out.Ok)
      State.SkipWithError("compile failure");
    benchmark::DoNotOptimize(Out.M.get());
  }
}
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, mlink, std::string("mlink"));
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, gzip_enc, std::string("gzip_enc"));
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, water, std::string("water"));
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, bison, std::string("bison"));

} // namespace

BENCHMARK_MAIN();
