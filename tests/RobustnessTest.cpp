//===- tests/RobustnessTest.cpp - Edge cases and pass idempotency ---------===//

#include "alias/ModRef.h"
#include "analysis/CfgNormalize.h"
#include "driver/Compiler.h"
#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/Dce.h"
#include "opt/Pre.h"
#include "opt/Sccp.h"
#include "opt/ValueNumbering.h"
#include "promote/ScalarPromotion.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

std::unique_ptr<Module> prepared(const std::string &Src) {
  auto M = std::make_unique<Module>();
  std::string Err;
  EXPECT_TRUE(compileToIL(Src, *M, Err)) << Err;
  for (size_t FI = 0; FI != M->numFunctions(); ++FI) {
    Function *F = M->function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      normalizeLoops(*F);
  }
  runModRef(*M);
  return M;
}

// ---------------------------------------------------------------------------
// Idempotency: running a pass twice must change nothing the second time.
// ---------------------------------------------------------------------------

const char *NestSrc = "int a; int b; int c;\n"
                      "void spy() { c = c + 1; }\n"
                      "int main() { int i; int j;\n"
                      "  for (i = 0; i < 6; i++) {\n"
                      "    a = a + i;\n"
                      "    for (j = 0; j < 4; j++) b = b + a;\n"
                      "    spy();\n"
                      "  }\n"
                      "  return a + b + c; }";

TEST(IdempotencyTest, PromotionIsAFixpoint) {
  auto M = prepared(NestSrc);
  PromotionStats First = promoteScalars(*M);
  EXPECT_GT(First.PromotedTags, 0u);
  // The rewrite leaves only landing-pad/exit accesses, which are either
  // outside all loops or ambiguous in their enclosing loop; a second run
  // must find nothing.
  PromotionStats Second = promoteScalars(*M);
  EXPECT_EQ(Second.PromotedTags, 0u);
  EXPECT_EQ(Second.RewrittenOps, 0u);
  std::string Err;
  EXPECT_TRUE(verifyModule(*M, Err)) << Err;
}

TEST(IdempotencyTest, VnAndPreConverge) {
  auto M = prepared(NestSrc);
  runValueNumbering(*M);
  runPre(*M);
  VnStats V2 = runValueNumbering(*M);
  EXPECT_EQ(V2.Folded + V2.Reused + V2.LoadsForwarded + V2.DeadStores, 0u);
  PreStats P2 = runPre(*M);
  EXPECT_EQ(P2.ExprsEliminated + P2.LoadsEliminated, 0u);
}

TEST(IdempotencyTest, SccpAndCleanupConverge) {
  auto M = prepared("int main() { int r;\n"
                    "  if (3 > 2) r = 1; else r = 2;\n"
                    "  if (r == 1) return 10;\n"
                    "  return 20; }");
  runSccp(*M);
  runCleanup(*M);
  SccpStats S2 = runSccp(*M);
  EXPECT_EQ(S2.BranchesResolved, 0u);
  EXPECT_FALSE(runCleanup(*M));
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 10);
}

TEST(IdempotencyTest, DoublePipelinePreservesBehavior) {
  // compileProgram output fed through the interpreter must match a module
  // re-optimized by hand once more.
  CompilerConfig Cfg;
  CompileOutput Out = compileProgram(NestSrc, Cfg);
  ASSERT_TRUE(Out.Ok);
  ExecResult R1 = interpret(*Out.M);
  runValueNumbering(*Out.M);
  runDce(*Out.M);
  runCleanup(*Out.M);
  ExecResult R2 = interpret(*Out.M);
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(R1.ExitCode, R2.ExitCode);
  EXPECT_LE(R2.Counters.Total, R1.Counters.Total);
}

// ---------------------------------------------------------------------------
// Frontend / semantic edge cases.
// ---------------------------------------------------------------------------

std::string compileErr(const std::string &Src) {
  Module M;
  std::string Err;
  EXPECT_FALSE(compileToIL(Src, M, Err)) << "should not compile:\n" << Src;
  return Err;
}

TEST(FrontendEdgeTest, RejectsBadPrograms) {
  EXPECT_NE(compileErr("int main() { int x; x = ; return 0; }").size(), 0u);
  EXPECT_NE(compileErr("int main() { return 1 + \"s\"; }").size(), 0u);
  EXPECT_NE(compileErr("struct s { int x; };\n"
                       "int main() { struct s a; struct s b; a = b; "
                       "return 0; }")
                .size(),
            0u); // aggregate assignment
  EXPECT_NE(compileErr("int main() { int a[4]; a[0] = 1.5 ? 1 : 2.0 ? 3 : ; "
                       "return 0; }")
                .size(),
            0u);
  EXPECT_NE(compileErr("int f() { return 0; }\n"
                       "int f() { return 1; }\n"
                       "int main() { return f(); }")
                .size(),
            0u); // redefinition
  EXPECT_NE(compileErr("int main() { continue; }").size(), 0u);
  EXPECT_NE(compileErr("void v() {}\nint main() { return v(); }").size(),
            0u); // void in arithmetic context... returns value from void call
}

TEST(FrontendEdgeTest, ShadowingWorks) {
  ExecResult R = compileAndRun("int x = 5;\n"
                               "int main() { int x; x = 2;\n"
                               "  { int x; x = 9; }\n"
                               "  return x; }",
                               CompilerConfig{});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(FrontendEdgeTest, DeeplyNestedExpressions) {
  // Exercise parser recursion and the register allocator on a wide tree.
  std::string E = "1";
  for (int I = 0; I < 40; ++I)
    E = "(" + E + " + " + std::to_string(I % 7) + ")";
  ExecResult R = compileAndRun("int main() { return (" + E + ") % 100; }",
                               CompilerConfig{});
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST(FrontendEdgeTest, CommentsAndWhitespaceEverywhere) {
  ExecResult R = compileAndRun("/* header */ int /*t*/ main /*n*/ ( ) {\n"
                               "  // line comment\n"
                               "  return /* mid */ 7; /* tail */ }\n",
                               CompilerConfig{});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(FrontendEdgeTest, NegativeModuloAndDivision) {
  // Truncating division semantics, C-style.
  ExecResult R = compileAndRun(
      "int main() { int a; int b; a = -7; b = 2;\n"
      "  return (a / b) * 100 + (a % b) * -1; }", // -3 * 100 + 1
      CompilerConfig{});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, -299);
}

// ---------------------------------------------------------------------------
// Interpreter fault paths.
// ---------------------------------------------------------------------------

TEST(InterpFaultTest, IndirectCallThroughDataFaults) {
  // A data address smuggled into a function pointer via void*.
  ExecResult R = compileAndRun("int g;\n"
                               "int main() { int (*f)(int); void *v;\n"
                               "  v = &g; f = v;\n"
                               "  return f(1); }",
                               CompilerConfig{});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("indirect call"), std::string::npos) << R.Error;
}

TEST(InterpFaultTest, RunawayRecursionCaught) {
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL("int down(int n) { return down(n + 1); }\n"
                          "int main() { return down(0); }",
                          M, Err));
  InterpOptions Opts;
  Opts.MaxCallDepth = 500;
  ExecResult R = interpret(M, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("depth"), std::string::npos);
}

TEST(InterpFaultTest, HeapLimitEnforced) {
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL("int main() { int i; int *p;\n"
                          "  for (i = 0; i < 1000000; i++)\n"
                          "    p = (int*)malloc(1024);\n"
                          "  return p != 0; }",
                          M, Err));
  InterpOptions Opts;
  Opts.HeapLimit = 1 << 20;
  ExecResult R = interpret(M, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("heap limit"), std::string::npos);
}

TEST(InterpFaultTest, OutOfBoundsGlobalCaught) {
  ExecResult R = compileAndRun("int A[4];\n"
                               "int main() { int *p; p = A;\n"
                               "  return p[100000]; }",
                               CompilerConfig{});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos) << R.Error;
}

// ---------------------------------------------------------------------------
// Resource budgets: every engine must fault identically at the limit. The
// counting-exact budgets (call depth, frame bytes) are checked at frame
// entry, so the error text AND the counters at the fault must match bit for
// bit between the reference engine and the fast path and, where the build
// has one, the jit (whose limit and deadline stubs settle the cut counting
// segment through the fast path's settle routine).
// ---------------------------------------------------------------------------

const char *RunawaySrc = "int down(int n) { return down(n + 1); }\n"
                         "int main() { return down(0); }";

ExecResult runEngine(const Module &M, InterpOptions Opts, InterpEngine E) {
  Opts.Engine = E;
  return interpret(M, Opts);
}

/// The engines compared against the reference switch engine.
std::vector<InterpEngine> fastEngines() {
  std::vector<InterpEngine> Es = {InterpEngine::FastPath};
  if (jitSupported())
    Es.push_back(InterpEngine::Jit);
  return Es;
}

/// Every counter of \p B equals the reference run \p A's.
void expectSameCounters(const ExecResult &A, const ExecResult &B,
                        const std::string &What) {
  EXPECT_EQ(A.Counters.Total, B.Counters.Total) << What;
  EXPECT_EQ(A.Counters.Loads, B.Counters.Loads) << What;
  EXPECT_EQ(A.Counters.Stores, B.Counters.Stores) << What;
  EXPECT_EQ(A.Counters.ByOpcode, B.Counters.ByOpcode) << What;
  ASSERT_EQ(A.PerFunction.size(), B.PerFunction.size()) << What;
  for (size_t F = 0; F != A.PerFunction.size(); ++F) {
    EXPECT_EQ(A.PerFunction[F].Total, B.PerFunction[F].Total) << What;
    EXPECT_EQ(A.PerFunction[F].Loads, B.PerFunction[F].Loads) << What;
    EXPECT_EQ(A.PerFunction[F].Stores, B.PerFunction[F].Stores) << What;
  }
}

/// The counters of a run the wall deadline stopped agree with each other:
/// per-opcode, per-function and load/store counts all describe the same
/// steps, and Total counts \p Stopped more: 1 for the step the poll
/// stopped, 0 when the deadline struck at a frame entry.
void expectDeadlineCounters(const ExecResult &R, const std::string &What,
                            uint64_t Stopped = 1) {
  uint64_t ByOp = 0, Loads = 0, Stores = 0;
  for (size_t Op = 0; Op != NumOpcodes; ++Op) {
    ByOp += R.Counters.ByOpcode[Op];
    if (isLoadOp(static_cast<Opcode>(Op)))
      Loads += R.Counters.ByOpcode[Op];
    if (isStoreOp(static_cast<Opcode>(Op)))
      Stores += R.Counters.ByOpcode[Op];
  }
  uint64_t FnTotal = 0, FnLoads = 0, FnStores = 0;
  for (const FunctionCounters &FC : R.PerFunction) {
    FnTotal += FC.Total;
    FnLoads += FC.Loads;
    FnStores += FC.Stores;
  }
  EXPECT_EQ(R.Counters.Total, ByOp + Stopped) << What;
  EXPECT_EQ(FnTotal, ByOp) << What;
  EXPECT_EQ(R.Counters.Loads, Loads) << What;
  EXPECT_EQ(R.Counters.Stores, Stores) << What;
  EXPECT_EQ(FnLoads, Loads) << What;
  EXPECT_EQ(FnStores, Stores) << What;
}

TEST(InterpBudgetTest, CallDepthFaultIsEngineIdentical) {
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL(RunawaySrc, M, Err));
  InterpOptions Opts;
  Opts.MaxCallDepth = 500;
  ExecResult A = runEngine(M, Opts, InterpEngine::Switch);
  EXPECT_FALSE(A.Ok);
  EXPECT_NE(A.Error.find("depth"), std::string::npos) << A.Error;
  for (InterpEngine E : fastEngines()) {
    ExecResult B = runEngine(M, Opts, E);
    EXPECT_FALSE(B.Ok) << interpEngineName(E);
    EXPECT_EQ(A.Error, B.Error) << interpEngineName(E);
    expectSameCounters(A, B,
                       std::string("depth fault must be counting-exact: ") +
                           interpEngineName(E));
  }
}

TEST(InterpBudgetTest, FrameBudgetFaultIsEngineIdentical) {
  // The array forces real frame bytes (RunawaySrc's frames are all-register,
  // size zero, and would never touch the byte budget).
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL("int down(int n) { int a[16]; a[0] = n;\n"
                          "  return down(a[0] + 1); }\n"
                          "int main() { return down(0); }",
                          M, Err));
  InterpOptions Opts;
  Opts.MaxFrameBytes = 1 << 12; // trips long before MaxCallDepth
  ExecResult A = runEngine(M, Opts, InterpEngine::Switch);
  EXPECT_FALSE(A.Ok);
  EXPECT_NE(A.Error.find("frame memory limit"), std::string::npos) << A.Error;
  for (InterpEngine E : fastEngines()) {
    ExecResult B = runEngine(M, Opts, E);
    EXPECT_FALSE(B.Ok) << interpEngineName(E);
    EXPECT_EQ(A.Error, B.Error) << interpEngineName(E);
    expectSameCounters(A, B,
                       std::string("frame fault must be counting-exact: ") +
                           interpEngineName(E));
  }
}

TEST(InterpBudgetTest, WallDeadlineFaultsBothEngines) {
  // The deadline is checked at the same program points in every engine, but
  // when the clock trips is nondeterministic, so the step counts are not
  // compared across engines — only the message, and that each run's
  // counters agree with each other. Total > 0 means the poll inside the
  // loop tripped, not the one at main's frame entry.
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL("int main() { int i; i = 0;\n"
                          "  while (i < 1000000000) i = i + 1;\n"
                          "  return i; }",
                          M, Err));
  InterpOptions Opts;
  Opts.WallDeadlineMs = 1;
  ExecResult A = runEngine(M, Opts, InterpEngine::Switch);
  EXPECT_FALSE(A.Ok);
  EXPECT_NE(A.Error.find("wall-clock deadline"), std::string::npos) << A.Error;
  EXPECT_GT(A.Counters.Total, 0u) << "partial counts must survive the fault";
  expectDeadlineCounters(A, "switch");
  for (InterpEngine E : fastEngines()) {
    ExecResult B = runEngine(M, Opts, E);
    EXPECT_FALSE(B.Ok) << interpEngineName(E);
    EXPECT_EQ(A.Error, B.Error) << interpEngineName(E);
    EXPECT_GT(B.Counters.Total, 0u) << interpEngineName(E);
    expectDeadlineCounters(B, interpEngineName(E));
  }
}

TEST(InterpBudgetTest, WallDeadlineAtFrameEntryInCallLoop) {
  // A loop of calls checks the deadline at every frame entry, so the run
  // almost always ends at such an entry, where no step is in flight,
  // rather than at one of the rare 64K polls. Either way the counters
  // must agree.
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL("int one(int x) { return x + 1; }\n"
                          "int main() { int i; int s; s = 0;\n"
                          "  for (i = 0; i < 1000000000; i++) s = one(s);\n"
                          "  return s; }",
                          M, Err));
  InterpOptions Opts;
  Opts.WallDeadlineMs = 1;
  std::vector<InterpEngine> Engines = fastEngines();
  Engines.push_back(InterpEngine::Switch);
  for (InterpEngine E : Engines) {
    ExecResult R = runEngine(M, Opts, E);
    EXPECT_FALSE(R.Ok) << interpEngineName(E);
    EXPECT_NE(R.Error.find("wall-clock deadline"), std::string::npos)
        << R.Error;
    EXPECT_GT(R.Counters.Total, 0u) << interpEngineName(E);
    uint64_t ByOp = 0;
    for (uint64_t N : R.Counters.ByOpcode)
      ByOp += N;
    expectDeadlineCounters(R, interpEngineName(E), R.Counters.Total - ByOp);
    EXPECT_LE(R.Counters.Total - ByOp, 1u) << interpEngineName(E);
  }
}

TEST(InterpFaultTest, FaultsStillReportCounters) {
  Module M;
  std::string Err;
  ASSERT_TRUE(compileToIL("int main() { int i; int s; s = 0;\n"
                          "  for (i = 0; i < 100; i++) s = s + i;\n"
                          "  return s / (s - 4950); }",
                          M, Err));
  ExecResult R = interpret(M);
  EXPECT_FALSE(R.Ok); // division by zero at the end
  EXPECT_GT(R.Counters.Total, 100u) << "partial counts must survive faults";
}

} // namespace
