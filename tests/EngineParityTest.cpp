//===- tests/EngineParityTest.cpp - Cross-engine bit parity ---------------===//
//
// Every execution engine must be observationally indistinguishable from the
// reference switch engine: identical counters (total, loads, stores,
// per-opcode), per-function attribution, tag profiles, output bytes, exit
// codes, and fault messages — on every suite program, on generated fuzz
// programs, and on faulting executions, with profiling on and off. The
// comparison is three-way (switch, fastpath, jit) on hosts with a jit;
// elsewhere the jit leg is skipped. Any mismatch here means a decode,
// superinstruction, or code-emission bug, not noise.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"
#include "frontend/Lowering.h"
#include "fuzz/ProgramGenerator.h"
#include "interp/Interpreter.h"
#include "obs/TagProfile.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

/// Asserts every observable of \p Got is bitwise equal to the reference
/// result \p Ref.
void expectSameResult(const ExecResult &Ref, const ExecResult &Got,
                      const std::string &What) {
  EXPECT_EQ(Ref.Ok, Got.Ok) << What;
  EXPECT_EQ(Ref.Error, Got.Error) << What;
  EXPECT_EQ(Ref.ExitCode, Got.ExitCode) << What;
  EXPECT_EQ(Ref.Output, Got.Output) << What;

  EXPECT_EQ(Ref.Counters.Total, Got.Counters.Total) << What;
  EXPECT_EQ(Ref.Counters.Loads, Got.Counters.Loads) << What;
  EXPECT_EQ(Ref.Counters.Stores, Got.Counters.Stores) << What;
  for (size_t Op = 0; Op != NumOpcodes; ++Op)
    EXPECT_EQ(Ref.Counters.ByOpcode[Op], Got.Counters.ByOpcode[Op])
        << What << " opcode " << opcodeName(static_cast<Opcode>(Op));

  ASSERT_EQ(Ref.PerFunction.size(), Got.PerFunction.size()) << What;
  for (size_t F = 0; F != Ref.PerFunction.size(); ++F) {
    EXPECT_EQ(Ref.PerFunction[F].Total, Got.PerFunction[F].Total)
        << What << " func " << F;
    EXPECT_EQ(Ref.PerFunction[F].Loads, Got.PerFunction[F].Loads)
        << What << " func " << F;
    EXPECT_EQ(Ref.PerFunction[F].Stores, Got.PerFunction[F].Stores)
        << What << " func " << F;
  }

  ASSERT_EQ(Ref.Profile.Counts.size(), Got.Profile.Counts.size()) << What;
  for (size_t I = 0; I != Ref.Profile.Counts.size(); ++I) {
    const TagLoopCount &A = Ref.Profile.Counts[I];
    const TagLoopCount &B = Got.Profile.Counts[I];
    EXPECT_EQ(A.Func, B.Func) << What << " profile row " << I;
    EXPECT_EQ(A.Loop, B.Loop) << What << " profile row " << I;
    EXPECT_EQ(A.Tag, B.Tag) << What << " profile row " << I;
    EXPECT_EQ(A.Loads, B.Loads) << What << " profile row " << I;
    EXPECT_EQ(A.Stores, B.Stores) << What << " profile row " << I;
  }
}

/// Runs \p M under every available engine with the same options and asserts
/// each one matches the reference switch engine bit for bit.
void expectParity(Module &M, const InterpOptions &Base,
                  const std::string &What) {
  InterpOptions SwOpts = Base;
  SwOpts.Engine = InterpEngine::Switch;
  ExecResult Sw = interpret(M, SwOpts);

  InterpOptions FpOpts = Base;
  FpOpts.Engine = InterpEngine::FastPath;
  expectSameResult(Sw, interpret(M, FpOpts), What + " {fastpath}");

  if (jitSupported()) {
    InterpOptions JitOpts = Base;
    JitOpts.Engine = InterpEngine::Jit;
    expectSameResult(Sw, interpret(M, JitOpts), What + " {jit}");
  }
}

/// Parity with and without a profile sink attached (profiled decodes fuse
/// fewer pairs, so both shapes of the fast path get exercised).
void expectParityBothProfiles(Module &M, const std::string &What) {
  expectParity(M, InterpOptions{}, What + " [unprofiled]");
  ProfileMeta Meta = ProfileMeta::build(M);
  InterpOptions Prof;
  Prof.Profile = &Meta;
  expectParity(M, Prof, What + " [profiled]");
}

/// Parity with the step limit swept over [First, Last], profiled and
/// unprofiled, so the cutoff lands on every step in that window.
void expectStepLimitSweepParity(Module &M, uint64_t First, uint64_t Last,
                                const std::string &What,
                                double WallDeadlineMs = 0) {
  ProfileMeta Meta = ProfileMeta::build(M);
  for (uint64_t Limit = First; Limit <= Last; ++Limit) {
    InterpOptions O;
    O.MaxSteps = Limit;
    O.WallDeadlineMs = WallDeadlineMs;
    expectParity(M, O, What + " step limit " + std::to_string(Limit));
    InterpOptions P = O;
    P.Profile = &Meta;
    expectParity(M, P,
                 "profiled " + What + " step limit " + std::to_string(Limit));
  }
}

// -- Suite programs -----------------------------------------------------------

class SuiteParity : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteParity, FullPipelineProgramMatches) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::PointsTo;
  CompileOutput Out = compileProgram(loadBenchProgram(GetParam()), Cfg);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  expectParityBothProfiles(*Out.M, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SuiteParity,
                         ::testing::ValuesIn(benchProgramNames()),
                         [](const auto &Info) { return Info.param; });

// -- Generated programs -------------------------------------------------------

TEST(EngineParityTest, GeneratedProgramsMatch) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Module M;
    std::string Err;
    ASSERT_TRUE(compileToIL(generateProgram(Seed), M, Err)) << Err;
    expectParityBothProfiles(M, "fuzz seed " + std::to_string(Seed));
  }
}

// -- Faulting executions ------------------------------------------------------

Module compileOrDie(const std::string &Src) {
  Module M;
  std::string Err;
  EXPECT_TRUE(compileToIL(Src, M, Err)) << Err;
  return M;
}

TEST(EngineParityTest, DivisionByZeroFaultMatches) {
  Module M = compileOrDie("int main() { int a; int b; a = 7; b = 0;\n"
                          "return a / b; }");
  expectParityBothProfiles(M, "div by zero");
}

TEST(EngineParityTest, DivisionByZeroFaultMessageExact) {
  // The message text itself is part of the contract (reproducer logs diff
  // it); assert it verbatim on every engine, not just pairwise-equal.
  Module M = compileOrDie("int main() { int a; a = 3; return a / (a - a); }");
  for (InterpEngine E :
       {InterpEngine::Switch, InterpEngine::FastPath, InterpEngine::Jit}) {
    if (E == InterpEngine::Jit && !jitSupported())
      continue;
    InterpOptions O;
    O.Engine = E;
    ExecResult R = interpret(M, O);
    EXPECT_FALSE(R.Ok) << interpEngineName(E);
    EXPECT_EQ(R.Error, "integer division by zero") << interpEngineName(E);
  }
}

TEST(EngineParityTest, NullDereferenceFaultMatches) {
  Module M = compileOrDie("int main() { int *p; p = (int *)0;\n"
                          "return *p; }");
  expectParityBothProfiles(M, "null deref");
}

// A fused pair's second half can fault: the fast path fuses the index Add
// with the pointer Load or Store that follows, so an out-of-bounds global
// index faults in the pair's second half, inside a called function.
// Profiled runs decode these pairs unfused.
TEST(EngineParityTest, FusedLoadSecondHalfFaultMatches) {
  Module M = compileOrDie("int A[4];\n"
                          "int peek(int i) { return A[i]; }\n"
                          "int main() { int s; s = peek(1);\n"
                          "  s = s + peek(100000); return s; }");
  expectParityBothProfiles(M, "fused Add+Load fault");
}

TEST(EngineParityTest, FusedStoreSecondHalfFaultMatches) {
  Module M = compileOrDie("int A[4];\n"
                          "void poke(int i, int v) { A[i] = v; }\n"
                          "int main() { poke(1, 2); poke(100000, 3);\n"
                          "  return A[1]; }");
  expectParityBothProfiles(M, "fused Add+Store fault");
}

TEST(EngineParityTest, CallDepthFaultMatches) {
  Module M = compileOrDie("int f(int n) { return f(n + 1); }\n"
                          "int main() { return f(0); }");
  InterpOptions O;
  O.MaxCallDepth = 64;
  expectParity(M, O, "call depth");
}

// -- Arithmetic edge vectors --------------------------------------------------
// Each defined-behavior corner of support/Arith.h, checked across every
// engine (the jit lowers these to native idioms — cqo/idiv guards, cl-masked
// shifts, ucomisd parity tricks, the fpToIntSat helper — so the corners are
// exactly where an encoding bug would hide).

TEST(EngineParityTest, Int64MinDivMinusOneFaults) {
  // a = INT64_MIN via 1 << 63; INT64_MIN / -1 overflows and must fault
  // identically everywhere.
  Module M = compileOrDie("int main() { int a; int b; a = 1; a = a << 63;\n"
                          "b = 0 - 1; return a / b; }");
  expectParityBothProfiles(M, "INT64_MIN / -1");
}

TEST(EngineParityTest, Int64MinRemMinusOneIsZero) {
  // INT64_MIN % -1 is defined as 0 (no fault) in this IL.
  Module M = compileOrDie("int main() { int a; int b; a = 1; a = a << 63;\n"
                          "b = 0 - 1; return a % b; }");
  expectParityBothProfiles(M, "INT64_MIN % -1");
}

TEST(EngineParityTest, OversizedShiftAmountsMatch) {
  // Shift counts are defined mod 64; sweep through and past the boundary,
  // including counts whose low six bits are zero.
  Module M = compileOrDie(
      "int main() { int a; int n; int s; s = 0;\n"
      "  for (n = 60; n < 200; n = n + 1) {\n"
      "    a = 5; s = s + (a << n); s = s + ((0 - a) >> n); }\n"
      "  return s; }");
  expectParityBothProfiles(M, "shift >= 64");
}

TEST(EngineParityTest, FpToIntSaturationVectorsMatch) {
  // NaN -> 0, +/-inf and out-of-range magnitudes clamp to INT64_MAX/MIN;
  // division produces the specials so no literal parsing is involved.
  Module M = compileOrDie(
      "float g;\n"
      "int main() { float z; float inf; float nan; int s;\n"
      "  z = 0.0; inf = 1.0 / z; nan = z / z; s = 0;\n"
      "  s = s + (int)nan;\n"
      "  s = s + (int)inf; s = s + (int)(0.0 - inf);\n"
      "  g = 9007199254740992.0;\n" // 2^53
      "  s = s + (int)(g * g);\n"   // far past INT64_MAX
      "  s = s + (int)(0.0 - g * g);\n"
      "  s = s + (int)1.9; s = s + (int)(0.0 - 1.9);\n"
      "  return s; }");
  expectParityBothProfiles(M, "fpToIntSat vectors");
}

// The step limit can strike anywhere, including between the two halves of a
// fused superinstruction; sweeping every cutoff through a loop body checks
// that each engine counts each half as a distinct step exactly like the
// reference engine does.
TEST(EngineParityTest, StepLimitSweepMatches) {
  Module M = compileOrDie(
      "int A[8]; float x;\n"
      "int main() { int i; int s; s = 0; x = 1.0;\n"
      "  for (i = 0; i < 1000000; i++) { A[i % 8] = s; s += A[(i + 1) % 8];\n"
      "    x = x * 1.0000001 + 0.5; }\n"
      "  return s; }");
  expectStepLimitSweepParity(M, 1, 120, "generic");
}

/// A loop whose body calls a function, then loads and stores.
const char *CallingLoopSrc =
    "int A[4]; int g;\n"
    "int bump(int v) { g = g + v; return g % 5; }\n"
    "int main() { int i; int s; s = 0;\n"
    "  for (i = 0; i < 1000000; i++) { s = s + bump(i);\n"
    "    A[i % 4] = s; s = s + A[(i + 1) % 4]; }\n"
    "  return s; }";

// Counting segments also start after every call. A loop body that calls a
// function puts cutoffs in the callee, and in the caller both before the
// call and after it, where the resumed segment is the one a fault settles.
TEST(EngineParityTest, PostCallSegmentStepLimitSweepMatches) {
  Module M = compileOrDie(CallingLoopSrc);
  expectStepLimitSweepParity(M, 1, 160, "post-call");
}

// The wall deadline is polled on the step whose Total is a multiple of
// 65,536, right next to the step-limit check. A window of limits across
// that step, with a deadline set far enough out to never trip, cuts the
// run just before, at and after the poll.
TEST(EngineParityTest, StepLimitWindowAroundDeadlinePollMatches) {
  Module M = compileOrDie(CallingLoopSrc);
  expectStepLimitSweepParity(M, 65536 - 12, 65536 + 12, "poll-window",
                             /*WallDeadlineMs=*/1e9);
}

// Every fused-template family the jit emitter recognizes, packed into one
// loop body: int cmp + branch, fp cmp + branch (including the NaN-parity
// Eq/Ne forms), LoadI folded into Add/Sub/Mul/CmpEq/CmpNe/CmpLt, LoadI and
// Copy folded into a block-closing Jmp, and FMul feeding FAdd/FSub in both
// operand orders. Sweeping the step limit across two-plus iterations lands
// the cutoff between the halves of each pair; both halves must count as
// distinct steps and the partial-iteration counters must match the switch
// engine exactly. The profiled leg is the sharper check: a profiled
// fast-path decode drops fusion while the jit re-derives its pairs from the
// unfused stream, so the two engines run differently-shaped code over the
// same cutoffs.
TEST(EngineParityTest, FusedPairStepLimitSweepMatches) {
  Module M = compileOrDie(
      "int A[4]; float x; float y;\n"
      "int main() { int i; int s; int t;\n"
      "  s = 0; x = 1.0; y = 0.5;\n"
      "  for (i = 0; i < 1000000; i++) {\n"
      "    s = s + 7; s = s - 3; t = s * 5;\n"
      "    if (t == 35) { s = 1; } else { s = t; }\n"
      "    if (s != 9) { s = s + 1; }\n"
      "    if (s < 4) { s = s + 2; }\n"
      "    x = x * 1.0000001 + y;\n"
      "    y = y - x * 0.0000001;\n"
      "    if (x > y) { s = s + 1; }\n"
      "    if (x == y) { s = s - 1; }\n"
      "    if (x != x) { s = 0; }\n"
      "    A[s % 4] = s; s = s + A[(i + 1) % 4];\n"
      "  }\n"
      "  return s; }");
  expectStepLimitSweepParity(M, 1, 160, "fused-pair");
}

} // namespace
