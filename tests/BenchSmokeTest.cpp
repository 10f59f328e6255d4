//===- tests/BenchSmokeTest.cpp - The jit's perf floor --------------------===//
//
// The jit exists to beat the pre-decoded fast path, so even in an
// unoptimized CI build it must not lose to it on a quick three-program
// sweep: the geomean of the fast path's fastest run over the jit's, across
// allroots, fft and dhrystone, must be at least 1.0. The floor catches
// structural regressions (a shim on a hot path, a dead code cache) without
// flaking on build type or machine; the jit's real margin is a
// Release-only number (docs/INTERPRETER.md).
//
// The minimum over repeated runs is the estimator: on a shared host every
// perturbation only adds time. Both engines are sampled in one loop, one
// run each per round with the order flipped every round, so a slow spell
// on the host lands on both engines instead of on whichever one it
// overlapped. ctest runs this test on its own (RUN_SERIAL).
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

using namespace rpcc;

namespace {

/// Sampling stops once each engine has spent this long in timed runs.
constexpr double MinSampleMs = 60.0;

constexpr InterpEngine Engines[2] = {InterpEngine::FastPath,
                                     InterpEngine::Jit};

/// The fastest timed run of each engine over \p M, indexed like Engines.
/// Each engine first gets one untimed warm-up run; the jit's pays its lazy
/// compile. Every run must succeed, and with the same step count.
std::array<double, 2> sampleMinima(const std::string &Name, const Module &M) {
  uint64_t Steps = 0;
  auto run = [&](size_t E) {
    InterpOptions IO;
    IO.Engine = Engines[E];
    double T0 = timingNowMs();
    ExecResult Res = interpret(M, IO);
    double Ms = timingNowMs() - T0;
    EXPECT_TRUE(Res.Ok) << Name << " [" << interpEngineName(Engines[E])
                        << "]: " << Res.Error;
    if (Steps == 0)
      Steps = Res.Counters.Total;
    EXPECT_EQ(Res.Counters.Total, Steps)
        << Name << " [" << interpEngineName(Engines[E])
        << "]: step count differs";
    return Ms;
  };

  run(0);
  run(1);
  std::array<double, 2> Best = {HUGE_VAL, HUGE_VAL}, Total = {0, 0};
  for (size_t Round = 0;
       (Total[0] < MinSampleMs || Total[1] < MinSampleMs) &&
       !testing::Test::HasFailure();
       ++Round)
    for (size_t I = 0; I != 2; ++I) {
      size_t E = (Round + I) % 2;
      double Ms = run(E);
      Total[E] += Ms;
      Best[E] = std::min(Best[E], Ms);
    }
  return Best;
}

TEST(BenchSmoke, JitNoSlowerThanFastPath) {
  if (!jitSupported())
    GTEST_SKIP() << "this build has no jit";
  double LogSum = 0;
  const char *Programs[] = {"allroots", "fft", "dhrystone"};
  for (const char *Name : Programs) {
    CompilerConfig Cfg;
    Cfg.Analysis = AnalysisKind::PointsTo;
    CompileOutput Out = compileProgram(loadBenchProgram(Name), Cfg);
    ASSERT_TRUE(Out.Ok) << Name << ":\n" << Out.Errors;
    std::array<double, 2> Best = sampleMinima(Name, *Out.M);
    if (HasFailure())
      return;
    double Ratio = Best[0] / Best[1];
    LogSum += std::log(Ratio);
    std::printf("%-10s fastpath %.3f ms  jit %.3f ms  speedup %.3f\n", Name,
                Best[0], Best[1], Ratio);
  }
  double Geomean = std::exp(LogSum / std::size(Programs));
  std::printf("geomean speedup (jit vs fastpath): %.3f\n", Geomean);
  EXPECT_GE(Geomean, 1.0);
}

} // namespace
