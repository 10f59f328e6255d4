//===- tests/DriverTest.cpp - Compiler driver configuration tests ---------===//

#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

const char *Counter = "int g;\n"
                      "int main() { int i;\n"
                      "  for (i = 0; i < 100; i++) g = g + 3;\n"
                      "  return g % 256; }";

TEST(DriverTest, FrontendErrorsSurface) {
  CompileOutput Out = compileProgram("int main() { return zz; }");
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Errors.find("undeclared"), std::string::npos) << Out.Errors;

  ExecResult R = compileAndRun("int main( {", CompilerConfig{});
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(DriverTest, NoOptsPipelineStillCorrect) {
  CompilerConfig Cfg;
  Cfg.EnableOpts = false;
  Cfg.ScalarPromotion = false;
  Cfg.RegisterAllocation = false;
  ExecResult R = compileAndRun(Counter, Cfg);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 300 % 256);
}

TEST(DriverTest, EveryKnobPreservesBehavior) {
  int64_t Expected = 300 % 256;
  for (bool Promo : {false, true})
    for (bool Opts : {false, true})
      for (bool RA : {false, true})
        for (bool Classic : {false, true}) {
          CompilerConfig Cfg;
          Cfg.ScalarPromotion = Promo;
          Cfg.EnableOpts = Opts;
          Cfg.RegisterAllocation = RA;
          Cfg.ClassicAllocator = Classic;
          ExecResult R = compileAndRun(Counter, Cfg);
          ASSERT_TRUE(R.Ok) << R.Error;
          EXPECT_EQ(R.ExitCode, Expected)
              << "promo=" << Promo << " opts=" << Opts << " ra=" << RA
              << " classic=" << Classic;
        }
}

TEST(DriverTest, ClassicAllocatorDisablesRemat) {
  // A function with many live constants: the modern allocator
  // rematerializes under pressure, the classic one spills.
  const char *Src =
      "int s = 1;\n"
      "int main() {\n"
      "  int a; int b; int c; int d; int e; int f;\n"
      "  int g; int h; int i; int j; int k; int l;\n"
      "  a=s+1; b=s+2; c=s+3; d=s+4; e=s+5; f=s+6;\n"
      "  g=s+7; h=s+8; i=s+9; j=s+10; k=s+11; l=s+12;\n"
      "  return ((a+b)*(c+d)+(e+f)*(g+h))*((i+j)*(k+l)+(a+l)*(b+k)); }";
  CompilerConfig Modern;
  Modern.NumRegisters = 6;
  CompilerConfig Classic = Modern;
  Classic.ClassicAllocator = true;

  CompileOutput OutM = compileProgram(Src, Modern);
  CompileOutput OutC = compileProgram(Src, Classic);
  ASSERT_TRUE(OutM.Ok && OutC.Ok);
  EXPECT_EQ(OutC.Stats.RegAlloc.RematerializedRegs, 0u);
  EXPECT_GT(OutC.Stats.RegAlloc.SpilledRegs, 0u);
  // Both still compute the same thing.
  ExecResult RM = interpret(*OutM.M);
  ExecResult RC = interpret(*OutC.M);
  ASSERT_TRUE(RM.Ok && RC.Ok);
  EXPECT_EQ(RM.ExitCode, RC.ExitCode);
}

TEST(DriverTest, RegisterCountSweepAgrees) {
  const char *Src = "float acc; int n;\n"
                    "int main() { int i; float x;\n"
                    "  x = 1.0;\n"
                    "  for (i = 0; i < 40; i++) {\n"
                    "    x = x * 1.01 + 0.5; acc = acc + x; n = n + 1; }\n"
                    "  return (int)acc + n; }";
  int64_t Expected = 0;
  bool Have = false;
  for (unsigned K : {4u, 8u, 16u, 32u}) {
    CompilerConfig Cfg;
    Cfg.NumRegisters = K;
    ExecResult R = compileAndRun(Src, Cfg);
    ASSERT_TRUE(R.Ok) << "K=" << K << ": " << R.Error;
    if (!Have) {
      Expected = R.ExitCode;
      Have = true;
    }
    EXPECT_EQ(R.ExitCode, Expected) << "K=" << K;
  }
}

TEST(DriverTest, PromotionOptionsFlowThrough) {
  const char *Src = "int a; int b; int c;\n"
                    "int main() { int i;\n"
                    "  for (i = 0; i < 30; i++) { a += 1; b += 2; c += 3; }\n"
                    "  return a + b + c; }";
  CompilerConfig Cfg;
  Cfg.Promo.MaxPromotedPerLoop = 1;
  CompileOutput Out = compileProgram(Src, Cfg);
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(Out.Stats.Promo.PromotedTags, 1u);
  ExecResult R = interpret(*Out.M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 30 + 60 + 90);
}

TEST(DriverTest, SuiteRunnerLoadsPrograms) {
  // The benchmark loader resolves against the source tree.
  std::string Src = loadBenchProgram("allroots");
  EXPECT_NE(Src.find("polynomial"), std::string::npos);
  EXPECT_EQ(benchProgramNames().size(), 14u);
}

TEST(DriverTest, StatsArePopulated) {
  CompileOutput Out = compileProgram(Counter);
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(Out.Stats.Promo.PromotedTags, 1u); // g in the loop
  EXPECT_GE(Out.Stats.RegAlloc.Rounds, 1u);
}

// -- Pass timing ----------------------------------------------------------

bool hasPass(const TimingReport &T, const std::string &Name) {
  for (const PassTime &P : T.Passes)
    if (P.Name == Name)
      return true;
  return false;
}

TEST(TimingTest, OffByDefault) {
  CompileOutput Out = compileProgram(Counter);
  ASSERT_TRUE(Out.Ok);
  EXPECT_TRUE(Out.Timing.Passes.empty());
  EXPECT_EQ(Out.Timing.Compiles, 0u);
}

TEST(TimingTest, CollectsEveryPipelineStage) {
  CompilerConfig Cfg;
  Cfg.CollectTiming = true;
  CompileOutput Out = compileProgram(Counter, Cfg);
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(Out.Timing.Compiles, 1u);
  EXPECT_GT(Out.Timing.CompileMillis, 0.0);
  ASSERT_FALSE(Out.Timing.Passes.empty());
  for (const char *Name : {"lower", "modref", "promote", "vn", "regalloc"})
    EXPECT_TRUE(hasPass(Out.Timing, Name)) << Name;
  // Op counts bracket each pass: lower starts from nothing, promotion adds
  // its landing-pad ops, and every count is coherent.
  for (const PassTime &P : Out.Timing.Passes) {
    EXPECT_GE(P.Invocations, 1u) << P.Name;
    EXPECT_GE(P.Millis, 0.0) << P.Name;
    if (P.Name == "lower") {
      EXPECT_EQ(P.OpsBefore, 0u);
      EXPECT_GT(P.OpsAfter, 0u);
    }
  }
}

TEST(TimingTest, MergeFoldsByPassName) {
  CompilerConfig Cfg;
  Cfg.CollectTiming = true;
  CompileOutput A = compileProgram(Counter, Cfg);
  CompileOutput B = compileProgram(Counter, Cfg);
  ASSERT_TRUE(A.Ok && B.Ok);
  TimingReport Total;
  Total.merge(A.Timing);
  Total.merge(B.Timing);
  EXPECT_EQ(Total.Compiles, 2u);
  EXPECT_EQ(Total.Passes.size(), A.Timing.Passes.size());
  for (size_t I = 0; I != Total.Passes.size(); ++I) {
    EXPECT_EQ(Total.Passes[I].Name, A.Timing.Passes[I].Name);
    EXPECT_EQ(Total.Passes[I].Invocations,
              A.Timing.Passes[I].Invocations + B.Timing.Passes[I].Invocations);
  }
}

TEST(TimingTest, ReportsRenderBothFormats) {
  CompilerConfig Cfg;
  Cfg.CollectTiming = true;
  CompileOutput Out = compileProgram(Counter, Cfg);
  ASSERT_TRUE(Out.Ok);
  Out.Timing.InterpSteps = 512;

  std::string Human = formatTimingReport(Out.Timing);
  EXPECT_NE(Human.find("regalloc"), std::string::npos) << Human;
  EXPECT_NE(Human.find("compile total:"), std::string::npos) << Human;

  std::string Json = formatTimingJson(Out.Timing);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '\n');
  EXPECT_EQ(Json[Json.size() - 2], '}');
  EXPECT_NE(Json.find("\"compiles\":1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"interp_steps\":512"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"name\":\"promote\""), std::string::npos) << Json;
  // Balanced braces/brackets — cheap well-formedness net for consumers.
  int Depth = 0;
  for (char C : Json) {
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(TimingTest, SuiteAggregatesAcrossCells) {
  SuiteOptions Opts;
  Opts.CollectTiming = true;
  ProgramResults PR =
      runAllConfigs("counter", Counter, Opts);
  for (int A = 0; A != 2; ++A)
    for (int P = 0; P != 2; ++P)
      ASSERT_TRUE(PR.R[A][P].Ok) << PR.R[A][P].Error;
  // One suffix per distinct suffix key: the program has no pointers, so
  // MOD/REF and points-to agree and the pointer cells reuse the modref
  // cells' modules.
  EXPECT_EQ(PR.Timing.Compiles, 2u);
  EXPECT_EQ(PR.Timing.InterpSteps,
            PR.R[0][0].Total + PR.R[0][1].Total + PR.R[1][0].Total +
                PR.R[1][1].Total);
  EXPECT_TRUE(hasPass(PR.Timing, "regalloc"));
}

} // namespace
