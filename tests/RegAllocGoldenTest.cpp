//===- tests/RegAllocGoldenTest.cpp - Allocator output is pinned ----------===//
//
// Pins the register allocator's output byte for byte. Every suite program
// is compiled through the whole pipeline under 32 configurations
// ({MOD/REF, points-to} x {promotion off, on} x K in {4, 8, 16, 32} x
// {default, classic allocator}), and a digest of the printed IL plus the
// RegAllocStats is compared with tests/golden/regalloc_il.txt, one
// `program/config digest` line per configuration. An allocator change
// that moves a coalesce, a color, a spill pick, a spill-tag name or a
// register number changes a digest.
//
// Regenerate the table (only when a change is meant to move the IL):
//
//   RPCC_WRITE_REGALLOC_GOLDEN=1 ./tests/regalloc_golden_test
//
// The allocator builds its graphs from its own flat live sets
// (LiveSets in regalloc/Liverange.h). The FlatLiveness tests hold them
// against analysis/Liveness, the reference, on every function of the
// suite and of generated fuzz programs, before and after allocation.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"
#include "fuzz/ProgramGenerator.h"
#include "ir/IRPrinter.h"
#include "regalloc/Liverange.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace rpcc;

namespace {

const char *const kTablePath = RPCC_REGALLOC_GOLDEN;

uint64_t fnv64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string statsLine(const RegAllocStats &S) {
  std::ostringstream OS;
  OS << "regalloc coalesced=" << S.CoalescedCopies
     << " spilled=" << S.SpilledRegs << " remat=" << S.RematerializedRegs
     << " loads=" << S.SpillLoads << " stores=" << S.SpillStores
     << " rounds=" << S.Rounds << " colors=" << S.ColorsUsed << "\n";
  return OS.str();
}

/// `program/config -> digest` for one program's 32 configurations.
std::map<std::string, std::string> digestsOf(const std::string &Program) {
  std::map<std::string, std::string> Out;
  FrontendArtifact FA = runFrontend(loadBenchProgram(Program));
  EXPECT_TRUE(FA.Ok) << Program << ": " << FA.Errors;
  for (AnalysisKind Kind : {AnalysisKind::ModRef, AnalysisKind::PointsTo}) {
    AnalyzedModule AM = analyzeFrontend(FA, Kind);
    for (bool Promote : {false, true})
      for (unsigned K : {4u, 8u, 16u, 32u})
        for (bool Classic : {false, true}) {
          CompilerConfig Cfg;
          Cfg.Analysis = Kind;
          Cfg.ScalarPromotion = Promote;
          Cfg.NumRegisters = K;
          Cfg.ClassicAllocator = Classic;
          std::string Key =
              Program + "/" +
              (Kind == AnalysisKind::ModRef ? "modref" : "pointsto") +
              (Promote ? "-promo" : "-nopromo") + "-k" + std::to_string(K) +
              (Classic ? "-classic" : "-default");
          CompileOutput CO = compileSuffix(AM, Cfg);
          EXPECT_TRUE(CO.Ok) << Key << ": " << CO.Errors;
          Out[Key] = hex16(
              fnv64(printModule(*CO.M) + statsLine(CO.Stats.RegAlloc)));
        }
  }
  return Out;
}

std::map<std::string, std::string> readTable() {
  std::map<std::string, std::string> T;
  std::ifstream In(kTablePath);
  std::string Key, Digest;
  while (In >> Key >> Digest)
    T[Key] = Digest;
  return T;
}

void writeTable(const std::map<std::string, std::string> &T) {
  std::ofstream Out(kTablePath, std::ios::trunc);
  for (const auto &[Key, Digest] : T)
    Out << Key << " " << Digest << "\n";
}

class RegAllocGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(RegAllocGolden, PrintedIlMatchesTable) {
  const std::string &Program = GetParam();
  std::map<std::string, std::string> Got = digestsOf(Program);
  ASSERT_EQ(Got.size(), 32u);
  std::map<std::string, std::string> Table = readTable();

  const char *Write = std::getenv("RPCC_WRITE_REGALLOC_GOLDEN");
  if (Write && *Write && std::string(Write) != "0") {
    // Replace this program's lines and keep everyone else's, so the
    // parameterized tests can regenerate the table one after another.
    for (auto It = Table.begin(); It != Table.end();)
      It = It->first.rfind(Program + "/", 0) == 0 ? Table.erase(It)
                                                  : std::next(It);
    Table.insert(Got.begin(), Got.end());
    writeTable(Table);
    return;
  }

  for (const auto &[Key, Digest] : Got) {
    auto It = Table.find(Key);
    if (It == Table.end()) {
      ADD_FAILURE() << "no golden digest for " << Key << " in " << kTablePath;
      continue;
    }
    EXPECT_EQ(Digest, It->second) << Key << ": allocator output changed";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, RegAllocGolden,
                         ::testing::ValuesIn(benchProgramNames()),
                         [](const auto &Info) { return Info.param; });

// -- Flat liveness -----------------------------------------------------------

/// Counts the registers whose LiveSets bits differ from analysis/Liveness
/// in any block of \p F, reporting the first few.
unsigned liveSetMismatches(const Function &F, const std::string &Where) {
  LiveSets LV;
  LV.compute(F);
  EXPECT_EQ(LV.numRegs(), F.numRegs()) << Where;
  Liveness Ref(F);
  unsigned Mismatches = 0;
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    for (Reg R = 0; R != F.numRegs(); ++R) {
      bool InOk = testBit(LV.liveIn(B), R) == Ref.liveIn(B).test(R);
      bool OutOk = testBit(LV.liveOut(B), R) == Ref.liveOut(B).test(R);
      if (InOk && OutOk)
        continue;
      if (++Mismatches <= 5)
        ADD_FAILURE() << Where << " function " << F.name() << ": r" << R
                      << " in block " << B
                      << (InOk ? " live-out" : " live-in")
                      << " differs from analysis/Liveness";
    }
  return Mismatches;
}

/// Checks every function of \p AM's suffix output under \p Cfg, compiled
/// without the allocator, then once more after allocating it at K=4, so
/// spill code, rematerialized constants and coalesced copies are in
/// place. \returns the functions checked.
unsigned checkLiveSets(const AnalyzedModule &AM, CompilerConfig Cfg,
                       const std::string &Where) {
  Cfg.RegisterAllocation = false;
  CompileOutput CO = compileSuffix(AM, Cfg);
  EXPECT_TRUE(CO.Ok) << Where << ": " << CO.Errors;
  unsigned Checked = 0;
  auto CheckAll = [&](const Module &M, const std::string &Stage) {
    for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
      const Function *F = M.function(static_cast<FuncId>(FI));
      if (F->isBuiltin() || F->numBlocks() == 0)
        continue;
      EXPECT_EQ(liveSetMismatches(*F, Where + Stage), 0u);
      ++Checked;
    }
  };
  CheckAll(*CO.M, "");
  RegAllocOptions RA;
  RA.NumRegisters = 4;
  allocateRegisters(*CO.M, RA);
  CheckAll(*CO.M, " allocated");
  return Checked;
}

class FlatLiveness : public ::testing::TestWithParam<std::string> {};

TEST_P(FlatLiveness, MatchesReferenceOnDigestGrid) {
  const std::string &Program = GetParam();
  FrontendArtifact FA = runFrontend(loadBenchProgram(Program));
  ASSERT_TRUE(FA.Ok) << FA.Errors;
  unsigned Checked = 0;
  for (AnalysisKind Kind : {AnalysisKind::ModRef, AnalysisKind::PointsTo}) {
    AnalyzedModule AM = analyzeFrontend(FA, Kind);
    for (bool Promote : {false, true}) {
      CompilerConfig Cfg;
      Cfg.Analysis = Kind;
      Cfg.ScalarPromotion = Promote;
      Checked += checkLiveSets(AM, Cfg, Program + (Promote ? " promo" : ""));
    }
  }
  EXPECT_GT(Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, FlatLiveness,
                         ::testing::ValuesIn(benchProgramNames()),
                         [](const auto &Info) { return Info.param; });

TEST(FlatLivenessFuzz, MatchesReferenceOnGeneratedPrograms) {
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    FrontendArtifact FA = runFrontend(generateProgram(Seed));
    ASSERT_TRUE(FA.Ok) << "seed " << Seed << ": " << FA.Errors;
    AnalyzedModule AM = analyzeFrontend(FA, AnalysisKind::ModRef);
    Checked += checkLiveSets(AM, CompilerConfig(),
                             "seed " + std::to_string(Seed));
  }
  EXPECT_GE(Checked, 200u);
}

} // namespace
