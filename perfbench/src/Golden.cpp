//===- perfbench/src/Golden.cpp - Committed expected outputs --------------===//
//
// The golden files hold only deterministic facts: the Figure 5-7 tables and,
// per (program, config), the exit code, a digest of stdout, the dynamic
// counts, static IL ops and the promotion counts. Run facts come from the
// reference switch engine, so the engines the workloads time (fastpath in
// `paper`, the jit behind /run) are checked against a different one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "support/Json.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace rpcc;
using namespace rpbench;

const GoldenEntry *Golden::find(const std::string &Key) const {
  auto It = Entries.find(Key);
  return It == Entries.end() ? nullptr : &It->second;
}

std::string rpbench::outputDigest(const std::string &Output) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Output) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, H);
  return Buf;
}

bool rpbench::loadGolden(const std::string &Path, Golden &G,
                         std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  JsonValue V;
  if (!parseJson(SS.str(), V, Err))
    return false;
  const JsonValue *Entries = V.field("entries");
  if (!Entries || Entries->K != JsonValue::Object) {
    Err = Path + ": no \"entries\" object";
    return false;
  }
  for (const auto &[Key, E] : Entries->Members) {
    GoldenEntry GE;
    auto Num = [&](const char *F) -> uint64_t {
      const JsonValue *X = E.field(F);
      return X && X->K == JsonValue::Number ? static_cast<uint64_t>(X->Num)
                                            : ~uint64_t(0);
    };
    const JsonValue *Exit = E.field("exit_code");
    const JsonValue *Dig = E.field("output_fnv1a64");
    if (!Exit || Exit->K != JsonValue::Number || !Dig ||
        Dig->K != JsonValue::String) {
      Err = Path + ": malformed entry " + Key;
      return false;
    }
    GE.ExitCode = static_cast<int64_t>(Exit->Num);
    GE.OutputDigest = Dig->Str;
    GE.Total = Num("total");
    GE.Loads = Num("loads");
    GE.Stores = Num("stores");
    GE.StaticOps = Num("static_ops");
    GE.PromotedTags = Num("promoted_tags");
    GE.RewrittenOps = Num("rewritten_ops");
    G.Entries[Key] = GE;
  }
  if (const JsonValue *T = V.field("tables"))
    for (const auto &[Name, Text] : T->Members)
      G.Tables[Name] = Text.Str;
  return true;
}

namespace {

GoldenEntry referenceEntry(const std::string &Source, const Config &C,
                           std::string &Err) {
  GoldenEntry E;
  CompileOutput CO = compileProgram(Source, compilerConfig(C));
  if (!CO.Ok) {
    Err = CO.Errors;
    return E;
  }
  E.StaticOps = countStaticOps(*CO.M);
  E.PromotedTags = CO.Stats.Promo.PromotedTags;
  E.RewrittenOps = CO.Stats.Promo.RewrittenOps;
  InterpOptions IO;
  IO.Engine = InterpEngine::Switch;
  ExecResult R = interpret(*CO.M, IO);
  if (!R.Ok) {
    Err = R.Error;
    return E;
  }
  E.ExitCode = R.ExitCode;
  E.OutputDigest = outputDigest(R.Output);
  E.Total = R.Counters.Total;
  E.Loads = R.Counters.Loads;
  E.Stores = R.Counters.Stores;
  return E;
}

std::string entryJson(const GoldenEntry &E) {
  std::ostringstream OS;
  OS << "{\"exit_code\":" << E.ExitCode << ",\"output_fnv1a64\":\""
     << E.OutputDigest << "\",\"total\":" << E.Total
     << ",\"loads\":" << E.Loads << ",\"stores\":" << E.Stores
     << ",\"static_ops\":" << E.StaticOps
     << ",\"promoted_tags\":" << E.PromotedTags
     << ",\"rewritten_ops\":" << E.RewrittenOps << "}";
  return OS.str();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

} // namespace

int rpbench::writeGoldenFiles(const Args &A) {
  std::vector<Program> Progs = loadPrograms(A.Root);
  if (Progs.empty()) {
    std::fprintf(stderr, "rpbench: cannot read the suite programs\n");
    return 1;
  }
  // Every served config, which includes the paper's r16 matrix.
  std::map<std::string, GoldenEntry> All;
  std::vector<ProgramResults> Paper;
  for (const Program &P : Progs) {
    ProgramResults PR;
    PR.Name = P.Name;
    for (const Config &C : servedConfigs()) {
      std::string Err;
      GoldenEntry E = referenceEntry(P.Source, C, Err);
      if (!Err.empty()) {
        std::fprintf(stderr, "rpbench: %s/%s: %s\n", P.Name.c_str(),
                     configName(C).c_str(), Err.c_str());
        return 1;
      }
      All[P.Name + "/" + configName(C)] = E;
      if (C.Registers == 16) {
        ConfigCounts &CC = PR.R[C.PointsTo][C.Promote];
        CC.Ok = true;
        CC.Total = E.Total;
        CC.Loads = E.Loads;
        CC.Stores = E.Stores;
      }
    }
    Paper.push_back(std::move(PR));
  }

  auto Emit = [&](const std::string &Workload, bool PaperOnly) {
    std::ostringstream OS;
    uint64_t Ops = 0, Loads = 0, Stores = 0, Static = 0;
    OS << "{\n\"workload\":\"" << Workload << "\",\n";
    OS << "\"reference\":\"compileProgram + switch engine\",\n";
    if (PaperOnly) {
      OS << "\"tables\":{\n";
      OS << "\"fig5\":\"" << jsonEscape(formatPaperTable(Paper, Metric::TotalOps))
         << "\",\n";
      OS << "\"fig6\":\"" << jsonEscape(formatPaperTable(Paper, Metric::Stores))
         << "\",\n";
      OS << "\"fig7\":\"" << jsonEscape(formatPaperTable(Paper, Metric::Loads))
         << "\"},\n";
    }
    OS << "\"entries\":{\n";
    bool First = true;
    for (const auto &[Key, E] : All) {
      if (PaperOnly && Key.substr(Key.size() - 4) != "/r16")
        continue;
      OS << (First ? "" : ",\n") << "\"" << Key << "\":" << entryJson(E);
      First = false;
      if (Key.find("/with/") != std::string::npos) {
        Ops += E.Total;
        Loads += E.Loads;
        Stores += E.Stores;
      }
      Static += E.StaticOps;
    }
    OS << "\n},\n\"with_promotion_totals\":{\"dyn_ops\":" << Ops
       << ",\"dyn_loads\":" << Loads << ",\"dyn_stores\":" << Stores
       << "},\n\"static_ops_total\":" << Static << "\n}\n";
    return writeFile(A.Golden + "/" + Workload + ".json", OS.str());
  };
  if (!Emit("paper", true) || !Emit("serve", false) || !Emit("edit", false)) {
    std::fprintf(stderr, "rpbench: cannot write golden files under %s\n",
                 A.Golden.c_str());
    return 1;
  }
  return 0;
}
