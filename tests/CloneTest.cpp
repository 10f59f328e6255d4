//===- tests/CloneTest.cpp - Module deep-clone tests ----------------------===//
//
// Module::clone() is the compile cache's forking primitive: every cached
// frontend/analysis artifact is handed out only as a clone, never as the
// cached instance. These tests pin the clone contract down — a clone prints
// byte-identically, verifies cleanly, shares no mutable state with its
// source, and a suffix compiled from a clone matches the monolithic
// pipeline exactly. identicalModules(), which the suite runner uses to share
// runs between cells, holds a clone identical and every single-field
// mutation of it different.
//
//===----------------------------------------------------------------------===//

#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "frontend/Lowering.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <functional>

using namespace rpcc;

namespace {

const char *kProgram = R"(
int g;
int A[8];
int *p;

int sum(int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    A[i] = i * i;
    s = s + A[i];
  }
  return s;
}

int main() {
  g = sum(8);
  p = &g;
  *p = *p + 1;
  print_int(g);
  return 0;
}
)";

std::unique_ptr<Module> lower(const std::string &Src) {
  auto M = std::make_unique<Module>();
  std::string Err;
  EXPECT_TRUE(compileToIL(Src, *M, Err)) << Err;
  return M;
}

TEST(CloneTest, PrintsByteIdentically) {
  auto M = lower(kProgram);
  auto C = M->clone();
  EXPECT_EQ(printModule(*M), printModule(*C));
}

TEST(CloneTest, CloneIsVerifierClean) {
  auto M = lower(kProgram);
  auto C = M->clone();
  std::string Err;
  EXPECT_TRUE(verifyModule(*C, Err)) << Err;
}

TEST(CloneTest, OptimizedModuleClonesByteIdentically) {
  // Clone after the full pipeline too: tag lists, MOD/REF summaries, and
  // regalloc'd bodies must all survive the copy.
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::PointsTo;
  CompileOutput Out = compileProgram(kProgram, Cfg);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  auto C = Out.M->clone();
  EXPECT_EQ(printModule(*Out.M), printModule(*C));
  std::string Err;
  EXPECT_TRUE(verifyModule(*C, Err)) << Err;
}

TEST(CloneTest, MutatingCloneLeavesOriginalUntouched) {
  auto M = lower(kProgram);
  std::string Before = printModule(*M);
  auto C = M->clone();

  // Mutate the clone along every axis the cache forks: function bodies,
  // the function list, the tag table, and global initializers.
  Function *F = C->function(C->lookup("sum"));
  ASSERT_NE(F, nullptr);
  F->entry()->insts().front()->Op = Opcode::Ret;
  F->entry()->insts().front()->Ops.clear();
  C->addFunction("intruder");
  C->tags().createGlobal("intruder_g", 8, true, MemType::I64);

  EXPECT_EQ(printModule(*M), Before);
  EXPECT_EQ(M->lookup("intruder"), NoFunc);
}

TEST(CloneTest, SuffixFromCloneMatchesMonolithicPipeline) {
  // The cache's whole correctness claim in one assertion: frontend +
  // analysis compiled once, suffix forked from a clone, must equal the
  // single-shot pipeline byte for byte.
  for (AnalysisKind Kind : {AnalysisKind::ModRef, AnalysisKind::PointsTo}) {
    CompilerConfig Cfg;
    Cfg.Analysis = Kind;

    CompileOutput Mono = compileProgram(kProgram, Cfg);
    ASSERT_TRUE(Mono.Ok) << Mono.Errors;

    FrontendArtifact FA = runFrontend(kProgram);
    ASSERT_TRUE(FA.Ok) << FA.Errors;
    AnalyzedModule AM = analyzeFrontend(FA, Kind);
    ASSERT_TRUE(AM.Ok) << AM.Errors;
    CompileOutput Staged = compileSuffix(AM, Cfg);
    ASSERT_TRUE(Staged.Ok) << Staged.Errors;

    EXPECT_EQ(printModule(*Mono.M), printModule(*Staged.M));
  }
}

TEST(CloneTest, CacheForksAreIndependent) {
  // Two compiles of the same program through one cache must not alias: the
  // second result is unaffected by mutating the first.
  CompileCache Cache;
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  CompileOutput A = Cache.compile("prog", kProgram, Cfg);
  ASSERT_TRUE(A.Ok) << A.Errors;
  std::string Ref = printModule(*A.M);

  Function *F = A.M->function(A.M->lookup("main"));
  ASSERT_NE(F, nullptr);
  F->entry()->insts().front()->Op = Opcode::Ret;

  CompileOutput B = Cache.compile("prog", kProgram, Cfg);
  ASSERT_TRUE(B.Ok) << B.Errors;
  EXPECT_EQ(printModule(*B.M), Ref);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

// -- identicalModules ---------------------------------------------------

/// Exercises every field the identity covers: an initialized global, a
/// floating constant, loops, calls with arguments, and pointer stores.
const char *kIdentityProgram = R"(
int seed = 7;
double scale = 2.5;
int A[8];

int sum(int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    A[i] = i * seed;
    s = s + A[i];
  }
  return s;
}

int main() {
  double d;
  d = scale * 2.0;
  print_int(sum(8));
  print_float(d);
  return 0;
}
)";

/// The first instruction of \p M, function by function and block by block,
/// that satisfies \p Pred; null when none does.
Instruction *findInst(Module &M,
                      const std::function<bool(const Instruction &)> &Pred) {
  for (FuncId F = 0; F != M.numFunctions(); ++F)
    for (auto &B : M.function(F)->blocks())
      for (auto &I : B->insts())
        if (Pred(*I))
          return I.get();
  return nullptr;
}

Instruction *findOp(Module &M, Opcode Op) {
  return findInst(M, [Op](const Instruction &I) { return I.Op == Op; });
}

TEST(IdentityTest, CloneIsIdentical) {
  CompileOutput Out = compileProgram(kIdentityProgram);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  EXPECT_TRUE(identicalModules(*Out.M, *Out.M));
  EXPECT_TRUE(identicalModules(*Out.M, *Out.M->clone()));
  // A second compile of the same source is the same program too.
  CompileOutput Again = compileProgram(kIdentityProgram);
  ASSERT_TRUE(Again.Ok) << Again.Errors;
  EXPECT_TRUE(identicalModules(*Out.M, *Again.M));
}

TEST(IdentityTest, EveryExecutedFieldBreaksIdentity) {
  CompileOutput Out = compileProgram(kIdentityProgram);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  const Module &M = *Out.M;

  // Each mutation changes one field of a fresh clone and reports whether it
  // found something to change.
  using Edit = std::function<void(Instruction &)>;
  auto OnFirst = [](Opcode Op, Edit E) {
    return [Op, E](Module &C) {
      Instruction *I = findOp(C, Op);
      if (I)
        E(*I);
      return I != nullptr;
    };
  };
  const std::vector<std::pair<const char *, std::function<bool(Module &)>>>
      Mutations = {
          {"opcode",
           OnFirst(Opcode::Add, [](Instruction &I) { I.Op = Opcode::Sub; })},
          {"operand", OnFirst(Opcode::Add, [](Instruction &I) { ++I.Ops[1]; })},
          {"immediate",
           OnFirst(Opcode::LoadI, [](Instruction &I) { ++I.Imm; })},
          {"floating immediate",
           OnFirst(Opcode::LoadF, [](Instruction &I) { I.FImm += 1; })},
          {"memory width", OnFirst(Opcode::Store, [](Instruction &I) {
             I.MemTy = MemType::I8;
           })},
          {"branch target", OnFirst(Opcode::Br, [](Instruction &I) {
             std::swap(I.Target0, I.Target1);
           })},
          {"tag set", OnFirst(Opcode::Store, [](Instruction &I) {
             I.Tags.insert(NoTag - 1);
           })},
          {"callee",
           [](Module &C) {
             FuncId Print = C.lookup("print_int");
             Instruction *I = findInst(C, [&](const Instruction &I) {
               return I.Op == Opcode::Call && I.Callee == Print;
             });
             if (I)
               I->Callee = C.lookup("print_char");
             return I != nullptr;
           }},
          {"parameter register",
           [](Module &C) {
             ++C.function(C.lookup("sum"))->paramRegs().at(0);
             return true;
           }},
          {"register count",
           [](Module &C) {
             C.function(C.lookup("main"))->newReg(RegType::Int);
             return true;
           }},
          {"tag size",
           [](Module &C) {
             C.tags().tag(C.globals().front().Tag).SizeBytes += 8;
             return true;
           }},
          {"global initializer byte",
           [](Module &C) {
             for (GlobalInit &G : C.globals())
               if (!G.Bytes.empty()) {
                 G.Bytes[0] ^= 1;
                 return true;
               }
             return false;
           }},
      };
  for (const auto &[What, Mutate] : Mutations) {
    std::unique_ptr<Module> C = M.clone();
    ASSERT_TRUE(Mutate(*C)) << What << ": nothing to mutate";
    EXPECT_FALSE(identicalModules(M, *C)) << What;
    EXPECT_FALSE(identicalModules(*C, M)) << What;
  }
}

TEST(IdentityTest, FloatingImmediatesCompareByBits) {
  // 0.0 == -0.0 as doubles, but LOADF 0.0 and LOADF -0.0 are different
  // programs (1/x tells them apart), and they print differently.
  CompileOutput Out = compileProgram(kIdentityProgram);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  std::unique_ptr<Module> Pos = Out.M->clone(), Neg = Out.M->clone();
  Instruction *P = findOp(*Pos, Opcode::LoadF);
  Instruction *N = findOp(*Neg, Opcode::LoadF);
  ASSERT_TRUE(P && N);
  P->FImm = 0.0;
  N->FImm = -0.0;
  EXPECT_FALSE(identicalModules(*Pos, *Neg));
  EXPECT_NE(printModule(*Pos), printModule(*Neg));
}

} // namespace
