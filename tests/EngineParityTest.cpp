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
#include "ir/ILParser.h"
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

// -- Segment edges --------------------------------------------------------------
// Every load and store of every engine goes through one address decoder:
// inline range tests against the global, stack and heap segments, with the
// fault raised out of line. Each case below is one access at an edge: the
// last in-bounds I8 and I64 of each segment, the first byte past it, an I64
// straddling the end, addresses between the segments, a function address
// and null, each as a plain Load/Store and as the fused AddLoad/AddStore.

struct EdgeCase {
  const char *Name;
  const char *Globals; ///< file-scope declarations
  const char *Locals;  ///< main's declarations
  const char *Type;    ///< element type of the pointer
  const char *Base;    ///< pointer expression
  int Index;
  const char *Fault; ///< the fault every engine must raise; null when none
};

const EdgeCase EdgeCases[] = {
    {"global i64 last", "int G[4];", "", "int", "G", 3, nullptr},
    {"global i64 past", "int G[4];", "", "int", "G", 4,
     "global access out of bounds"},
    {"global i8 last", "char C[8];", "", "char", "C", 7, nullptr},
    {"global i8 past", "char C[8];", "", "char", "C", 8,
     "global access out of bounds"},
    {"global i64 straddle", "char C[8];", "", "int", "(int *)(C + 1)", 0,
     "global access out of bounds"},
    {"stack i64 last", "", "int L[4];", "int", "L", 3, nullptr},
    {"stack i64 past", "", "int L[4];", "int", "L", 4,
     "stack access out of bounds"},
    {"stack i8 last", "", "char B[8];", "char", "B", 7, nullptr},
    {"stack i8 past", "", "char B[8];", "char", "B", 8,
     "stack access out of bounds"},
    {"heap i64 last", "", "", "int", "(int *)malloc(32)", 3, nullptr},
    {"heap i64 past", "", "", "int", "(int *)malloc(32)", 4,
     "heap access out of bounds at +32"},
    {"heap i8 last", "", "", "char", "(char *)malloc(8)", 7, nullptr},
    {"heap i8 past", "", "", "char", "(char *)malloc(8)", 8,
     "heap access out of bounds at +8"},
    {"heap i64 straddle", "", "", "int", "(int *)((char *)malloc(8) + 4)", 0,
     "heap access out of bounds at +4"},
    // 2^40 lies past the global image, 2^44 + 2^40 past the stack.
    {"between global and stack", "", "", "int", "(int *)1099511627776", 0,
     "global access out of bounds"},
    {"between stack and heap", "", "", "int", "(int *)18691697672192", 0,
     "stack access out of bounds"},
    {"function address", "", "", "int", "(int *)9151314442816847872", 0,
     "memory access to a function address"},
    {"null", "", "", "int", "(int *)0", 0,
     "null or invalid pointer dereference (address 0)"},
};

/// One access to element \p E.Index of \p E.Base: the fused form indexes
/// in the load or store itself (Add then Load/Store), the plain form
/// advances the pointer two statements earlier.
std::string edgeProgram(const EdgeCase &E, bool Store, bool Fused) {
  std::string Ty = E.Type;
  std::string Src = std::string(E.Globals) + "\nint main() { " + E.Locals +
                    " " + Ty + " *p; int i; int t; p = " + E.Base +
                    "; i = " + std::to_string(E.Index) + "; t = 5;\n";
  if (Fused)
    Src += Store ? "  p[i] = t; return 0; }" : "  return p[i]; }";
  else
    Src += Store ? "  p = p + i; t = t + 1; *p = t; return 0; }"
                 : "  p = p + i; t = t + 1; return *p + t; }";
  return Src;
}

TEST(EngineParityTest, SegmentEdgeAccessesMatch) {
  // All engines share the decoder, so parity alone cannot catch an edge
  // it gets wrong: the reference run must also fault exactly as listed.
  for (const EdgeCase &E : EdgeCases)
    for (bool Store : {false, true})
      for (bool Fused : {false, true}) {
        const std::string What = std::string(E.Name) +
                                 (Store ? " store" : " load") +
                                 (Fused ? " fused" : " plain");
        Module M = compileOrDie(edgeProgram(E, Store, Fused));
        InterpOptions Ref;
        Ref.Engine = InterpEngine::Switch;
        ExecResult R = interpret(M, Ref);
        EXPECT_EQ(R.Ok, E.Fault == nullptr) << What << ": " << R.Error;
        EXPECT_EQ(R.Error, E.Fault ? E.Fault : "") << What;
        expectParityBothProfiles(M, What);
      }
}

// -- Faults in nested frames ----------------------------------------------------
// Every frame of the fast engines comes from one frame routine. A fault
// three frames down must settle the innermost segment and unwind every
// frame above it, leaving the counters the switch engine has.

/// main loops over f1 -> f2 -> f3; f3 indexes A and divides.
const char *ThreeDeepSrc =
    "int A[4];\n"
    "int f3(int i, int d) { int v; v = A[i]; return v / d + v % d; }\n"
    "int f2(int i, int d) { int s; s = f3(i, d); return s + 1; }\n"
    "int f1(int i, int d) { int s; s = f2(i, d); return s * 2; }\n"
    "int main() { int k; int s; s = 0;\n"
    "  for (k = 0; k < 8; k++) { A[k % 4] = k; s = s + f1(IDX, DIV); }\n"
    "  return s; }";

std::string threeDeep(const std::string &Idx, const std::string &Div) {
  std::string S = ThreeDeepSrc;
  S.replace(S.find("IDX"), 3, Idx);
  S.replace(S.find("DIV"), 3, Div);
  return S;
}

TEST(EngineParityTest, FaultsThreeFramesDeepMatch) {
  // A completed run, a memory fault in iteration 5, a division by zero in
  // iteration 3 (the remainder's operands are the same).
  const std::pair<const char *, const char *> Cases[] = {
      {"k % 4", "k + 1"}, {"k * 100000 / 5", "k + 1"}, {"k % 4", "3 - k"}};
  for (const auto &[Idx, Div] : Cases) {
    Module M = compileOrDie(threeDeep(Idx, Div));
    expectParityBothProfiles(M, std::string("three deep ") + Idx + ", " + Div);
    CompilerConfig Cfg;
    CompileOutput Out = compileProgram(threeDeep(Idx, Div), Cfg);
    ASSERT_TRUE(Out.Ok) << Out.Errors;
    expectParityBothProfiles(*Out.M,
                             std::string("compiled three deep ") + Idx);
  }
}

TEST(EngineParityTest, DecodeTimeFaultThreeFramesDeepMatches) {
  // g has no storage, so f3's scalar load decodes to a Fault record.
  Module M;
  std::string Err;
  ASSERT_TRUE(parseModule("tag g kind=global size=8 val=i64 scalar\n"
                          "func f3(r0:i64) -> i64 {\n"
                          "B0:\n"
                          "  r1 <- LOADI 1\n"
                          "  r0 <- ADD r0, r1\n"
                          "  r2 <- SLD [g]\n"
                          "  r0 <- ADD r0, r2\n"
                          "  RET r0\n"
                          "}\n"
                          "func f2(r0:i64) -> i64 {\n"
                          "B0:\n"
                          "  r0 <- JSR f3(r0) mod{} ref{}\n"
                          "  RET r0\n"
                          "}\n"
                          "func f1(r0:i64) -> i64 {\n"
                          "B0:\n"
                          "  r1 <- LOADI 2\n"
                          "  r0 <- JSR f2(r0) mod{} ref{}\n"
                          "  r0 <- MUL r0, r1\n"
                          "  RET r0\n"
                          "}\n"
                          "func main() -> i64 {\n"
                          "B0:\n"
                          "  r0 <- LOADI 5\n"
                          "  r0 <- JSR f1(r0) mod{} ref{}\n"
                          "  RET r0\n"
                          "}\n",
                          M, Err))
      << Err;
  expectParity(M, InterpOptions{}, "decode-time fault three deep");
}

TEST(EngineParityTest, FrameEntryBudgetFaultsInCallLoopMatch) {
  // Call depth and frame bytes both run out at a frame entry partway
  // through a loop of calls; every limit up to the frames the program
  // needs puts the fault at a different entry.
  Module M = compileOrDie(
      "int down(int n) { int a[4]; a[0] = n; if (n > 0) return down(n - 1)"
      " + a[0]; return 0; }\n"
      "int main() { int k; int s; s = 0;\n"
      "  for (k = 0; k < 6; k++) s = s + down(k); return s; }");
  for (size_t Depth = 1; Depth <= 7; ++Depth) {
    InterpOptions O;
    O.MaxCallDepth = Depth;
    expectParity(M, O, "call depth " + std::to_string(Depth));
  }
  for (size_t Bytes = 0; Bytes <= 6 * 32; Bytes += 16) {
    InterpOptions O;
    O.MaxFrameBytes = Bytes;
    expectParity(M, O, "frame bytes " + std::to_string(Bytes));
  }
}

// -- Step compare after a C++ call ---------------------------------------------
// Builtins keep the C++ call path; the fast path recomputes its Stop after
// every such call. A window of limits around the 65,536th step, in a loop
// that calls sqrt, cuts the run just before, at and after the poll.
TEST(EngineParityTest, BuiltinCallStepLimitWindowMatches) {
  Module M = compileOrDie("float x;\n"
                          "int main() { int i; x = 2.0;\n"
                          "  for (i = 0; i < 1000000; i++) x = sqrt(x + 1.0);\n"
                          "  return (int)x; }");
  expectStepLimitSweepParity(M, 65536 - 12, 65536 + 12, "builtin window",
                             /*WallDeadlineMs=*/1e9);
}

} // namespace
