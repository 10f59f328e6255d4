//===- tests/OptTest.cpp - Optimization pass tests ------------------------===//

#include "alias/ModRef.h"
#include "analysis/CfgNormalize.h"
#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/CopyProp.h"
#include "opt/Dce.h"
#include "opt/Licm.h"
#include "opt/Pre.h"
#include "opt/Sccp.h"
#include "opt/ValueNumbering.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

std::unique_ptr<Module> compileSrc(const std::string &Src) {
  auto M = std::make_unique<Module>();
  std::string Err;
  bool Ok = compileToIL(Src, *M, Err);
  EXPECT_TRUE(Ok) << Err;
  for (size_t FI = 0; FI != M->numFunctions(); ++FI) {
    Function *F = M->function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      normalizeLoops(*F);
  }
  runModRef(*M);
  return M;
}

void verifyAll(const Module &M) {
  std::string Err;
  EXPECT_TRUE(verifyModule(M, Err)) << Err;
}

uint64_t countOps(const Module &M, const std::string &Fn, Opcode Op) {
  const Function *F = M.function(M.lookup(Fn));
  uint64_t N = 0;
  for (const auto &B : F->blocks())
    for (const auto &IP : B->insts())
      if (IP->Op == Op)
        ++N;
  return N;
}

TEST(VnTest, FoldsConstantsInBlock) {
  auto M = compileSrc("int main() { int a; a = 6 * 7; return a; }");
  runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(countOps(*M, "main", Opcode::Mul), 0u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(VnTest, ReusesRedundantExpression) {
  auto M = compileSrc("int f(int x, int y) { return (x + y) * (x + y); }\n"
                      "int main() { return f(3, 4); }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_GE(S.Reused, 1u);
  EXPECT_EQ(countOps(*M, "f", Opcode::Add), 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 49);
}

TEST(VnTest, ForwardsScalarLoadAfterStore) {
  auto M = compileSrc("int g;\n"
                      "int main() { g = 11; return g; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_GE(S.LoadsForwarded, 1u);
  EXPECT_EQ(countOps(*M, "main", Opcode::ScalarLoad), 0u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(VnTest, EliminatesOverwrittenStore) {
  auto M = compileSrc("int g;\n"
                      "int main() { g = 1; g = 2; return g; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(S.DeadStores, 1u);
  EXPECT_EQ(countOps(*M, "main", Opcode::ScalarStore), 1u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(VnTest, EliminatesInterleavedOverwrittenStores) {
  // The dead stores come to light out of block order (b's before a's).
  // Erasing them one at a time from the back of that list deleted the
  // wrong instruction, the `b = 3` constant, and the program printed 40.
  auto M = compileSrc("int a; int b;\n"
                      "int main() { a = 1; b = 2; b = 3; a = 4;\n"
                      "  print_int(a); print_int(b); return 0; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(S.DeadStores, 2u);
  EXPECT_EQ(countOps(*M, "main", Opcode::ScalarStore), 2u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "43");
}

TEST(VnTest, CallBlocksStoreElimination) {
  auto M = compileSrc("int g;\n"
                      "int peek() { return g; }\n"
                      "int main() { int a; g = 1; a = peek(); g = 2;\n"
                      "  return g * 10 + a; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(S.DeadStores, 0u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 21);
}

TEST(PreTest, EliminatesAcrossBlocks) {
  // x+y computed on both arms, then again at the join: the join
  // computation is fully redundant.
  auto M = compileSrc("int f(int x, int y, int c) {\n"
                      "  int a; int b;\n"
                      "  if (c) a = x + y; else a = x + y;\n"
                      "  b = x + y;\n"
                      "  return a + b; }\n"
                      "int main() { return f(2, 3, 1); }");
  PreStats S = runPre(*M);
  verifyAll(*M);
  EXPECT_GE(S.ExprsEliminated, 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 10);
}

TEST(PreTest, RedundantScalarLoadAcrossBlocks) {
  auto M = compileSrc("int g;\n"
                      "int main() { int a; int b;\n"
                      "  a = g;\n"
                      "  if (a > 0) b = g; else b = g;\n"
                      "  return a + b; }");
  PreStats S = runPre(*M);
  verifyAll(*M);
  // The two branch loads see g available from the first load.
  EXPECT_GE(S.LoadsEliminated, 2u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
}

TEST(PreTest, StoreKillsAvailability) {
  auto M = compileSrc("int g;\n"
                      "void set(int v) { g = v; }\n"
                      "int main() { int a; int b;\n"
                      "  a = g; set(5); b = g;\n"
                      "  return b * 10 + a; }");
  runPre(*M);
  verifyAll(*M);
  // The second load must survive (the call mods g).
  EXPECT_GE(countOps(*M, "main", Opcode::ScalarLoad), 2u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 50);
}

TEST(SccpTest, FoldsBranchAndPropagates) {
  auto M = compileSrc("int main() { int a; int r;\n"
                      "  a = 4;\n"
                      "  if (a > 10) r = 1; else r = 2;\n"
                      "  return r + a; }");
  SccpStats S = runSccp(*M);
  runCleanup(*M);
  verifyAll(*M);
  EXPECT_GE(S.BranchesResolved, 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 6);
}

TEST(SccpTest, DoesNotFoldRuntimeValues) {
  auto M = compileSrc("int g = 7;\n"
                      "int main() { if (g > 3) return 1; return 0; }");
  SccpStats S = runSccp(*M);
  verifyAll(*M);
  EXPECT_EQ(S.BranchesResolved, 0u) << "loads are runtime values";
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(SccpTest, MeetOverMultipleDefs) {
  auto M = compileSrc("int g;\n"
                      "int main() { int a;\n"
                      "  if (g) a = 1; else a = 2;\n"
                      "  return a * 3; }");
  runSccp(*M);
  verifyAll(*M);
  // a is not constant; the multiply must survive.
  EXPECT_EQ(countOps(*M, "main", Opcode::Mul), 1u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 6);
}

TEST(LicmTest, HoistsInvariantArithmetic) {
  auto M = compileSrc("int g;\n"
                      "int main() { int i; int n; int s; n = 100; s = 0;\n"
                      "  for (i = 0; i < 10; i++) s = s + n * 3;\n"
                      "  return s; }");
  // VN first so the loop body is in reasonable shape, then LICM.
  runValueNumbering(*M);
  LicmStats S = runLicm(*M);
  verifyAll(*M);
  EXPECT_GE(S.HoistedPure, 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 3000);
}

TEST(LicmTest, HoistsInvariantScalarLoadTheCLoadEffect) {
  auto M = compileSrc("int n = 7;\n"
                      "int main() { int i; int s; s = 0;\n"
                      "  for (i = 0; i < 10; i++) s = s + n;\n"
                      "  return s; }");
  ExecResult Before = interpret(*M);
  LicmStats S = runLicm(*M);
  verifyAll(*M);
  EXPECT_GE(S.HoistedLoads, 1u);
  ExecResult After = interpret(*M);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
  EXPECT_LT(After.Counters.Loads, Before.Counters.Loads);
}

TEST(LicmTest, ModifiedTagBlocksLoadHoist) {
  auto M = compileSrc("int n = 7;\n"
                      "int main() { int i; int s; s = 0;\n"
                      "  for (i = 0; i < 10; i++) { s = s + n; n = n + 1; }\n"
                      "  return s; }");
  ExecResult Before = interpret(*M);
  runLicm(*M);
  verifyAll(*M);
  ExecResult After = interpret(*M);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
}

TEST(LicmTest, NeverSpeculatesDivision) {
  auto M = compileSrc("int d;\n"
                      "int main() { int i; int s; int k; s = 0; k = 10;\n"
                      "  for (i = 0; i < 10; i++) {\n"
                      "    if (d != 0) s = s + k / d;\n"
                      "  }\n"
                      "  return s; }");
  runValueNumbering(*M);
  runLicm(*M);
  verifyAll(*M);
  // d == 0 at runtime: the division must never execute.
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << "division was speculated: " << R.Error;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(DceTest, RemovesDeadChains) {
  auto M = compileSrc("int main() { int a; int b; int c;\n"
                      "  a = 1; b = a + 2; c = b * 3; /* c unused */\n"
                      "  return 9; }");
  unsigned N = runDce(*M);
  verifyAll(*M);
  EXPECT_GE(N, 2u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 9);
}

TEST(DceTest, KeepsStoresAndCalls) {
  auto M = compileSrc("int g;\n"
                      "int bump() { g = g + 1; return g; }\n"
                      "int main() { bump(); bump(); return g; }");
  runDce(*M);
  verifyAll(*M);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(CleanupTest, CollapsesForwardingChains) {
  auto M = compileSrc("int main() { int a; a = 0;\n"
                      "  if (1) { if (1) { a = 3; } }\n"
                      "  return a; }");
  runSccp(*M);
  size_t Before = M->function(M->lookup("main"))->numBlocks();
  runCleanup(*M);
  size_t After = M->function(M->lookup("main"))->numBlocks();
  verifyAll(*M);
  EXPECT_LT(After, Before);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(CopyPropTest, CollapsesChains) {
  auto M = compileSrc("int A[4];\n"
                      "int main() { A[1] = 5; return A[1]; }");
  runValueNumbering(*M);
  unsigned N = propagateCopies(*M);
  runDce(*M);
  verifyAll(*M);
  EXPECT_GE(N, 1u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 5);
}

} // namespace
