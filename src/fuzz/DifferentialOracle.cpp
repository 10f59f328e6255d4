//===- fuzz/DifferentialOracle.cpp ----------------------------------------===//

#include "fuzz/DifferentialOracle.h"

#include "obs/Remark.h"
#include "served/ArtifactCache.h"

#include <sstream>

using namespace rpcc;

std::string FuzzConfig::name() const {
  std::ostringstream OS;
  OS << (Analysis == AnalysisKind::ModRef ? "modref" : "pointer");
  OS << (Promo ? "/promo" : "/nopromo");
  if (PtrPromo)
    OS << "+ptr";
  OS << (Opts ? "/opts" : "/noopts");
  OS << (Classic ? "/classic" : "/modern");
  OS << "/r" << Regs;
  return OS.str();
}

CompilerConfig FuzzConfig::toCompilerConfig() const {
  CompilerConfig Cfg;
  Cfg.Analysis = Analysis;
  Cfg.ScalarPromotion = Promo;
  Cfg.PointerPromotion = PtrPromo;
  Cfg.EnableOpts = Opts;
  Cfg.ClassicAllocator = Classic;
  Cfg.NumRegisters = Regs;
  return Cfg;
}

std::vector<FuzzConfig> rpcc::fullMatrix() {
  std::vector<FuzzConfig> M;
  for (AnalysisKind A : {AnalysisKind::ModRef, AnalysisKind::PointsTo})
    for (bool Promo : {false, true})
      for (bool Opts : {false, true})
        for (bool Classic : {false, true})
          for (unsigned Regs : {8u, 16u, 32u})
            M.push_back({A, Promo, false, Opts, Classic, Regs});
  // Section 3.3 pointer promotion rides on top of scalar promotion.
  for (AnalysisKind A : {AnalysisKind::ModRef, AnalysisKind::PointsTo})
    for (unsigned Regs : {8u, 32u})
      M.push_back({A, true, true, true, false, Regs});
  return M;
}

std::vector<FuzzConfig> rpcc::quickMatrix() {
  return {
      {AnalysisKind::ModRef, false, false, false, false, 16},
      {AnalysisKind::ModRef, true, false, true, false, 16},
      {AnalysisKind::PointsTo, false, false, true, false, 16},
      {AnalysisKind::PointsTo, true, false, true, false, 16},
      {AnalysisKind::PointsTo, true, true, true, false, 32},
      {AnalysisKind::ModRef, true, false, true, true, 8},
  };
}

std::vector<std::pair<size_t, size_t>>
rpcc::promotionPairs(const std::vector<FuzzConfig> &Matrix) {
  std::vector<std::pair<size_t, size_t>> Pairs;
  for (size_t I = 0; I != Matrix.size(); ++I) {
    const FuzzConfig &A = Matrix[I];
    if (A.Promo || A.Regs < 16)
      continue;
    for (size_t J = 0; J != Matrix.size(); ++J) {
      const FuzzConfig &B = Matrix[J];
      if (B.Promo && !B.PtrPromo && A.Analysis == B.Analysis &&
          A.PtrPromo == B.PtrPromo && A.Opts == B.Opts &&
          A.Classic == B.Classic && A.Regs == B.Regs) {
        Pairs.emplace_back(I, J);
        break;
      }
    }
  }
  return Pairs;
}

OracleResult rpcc::checkProgram(const std::string &Source,
                                const std::vector<FuzzConfig> &Matrix,
                                const InterpOptions &IO,
                                ArtifactCache *Cache) {
  OracleResult R;
  R.Loads.assign(Matrix.size(), 0);
  bool HaveBase = false;
  int64_t BaseExit = 0;
  std::string BaseOutput, BaseName;
  // Scalar promotion decides before register allocation and the scalar
  // optimizations run, from the alias analysis alone — so the promote-pass
  // remark stream must be byte-identical across every promoting cell with
  // the same analysis, whatever the register count, allocator vintage, or
  // optimization level. A difference means promotion consulted state it
  // must not depend on. Index 0 = modref, 1 = points-to.
  std::string PromoRemarks[2], PromoRemarksName[2];
  bool HavePromoRemarks[2] = {false, false};
  // Every cell's module stays live until the matrix is done, so a later
  // cell of the same suffix key (the other analysis kind, when the two
  // analyzed modules are identical) takes it from the store, not rebuilt.
  std::vector<std::shared_ptr<const Module>> Live;
  for (size_t I = 0; I != Matrix.size(); ++I) {
    const FuzzConfig &C = Matrix[I];
    RemarkEngine Re;
    CompilerConfig Cfg = C.toCompilerConfig();
    if (C.Promo) {
      Cfg.Remarks = &Re;
      Cfg.ResidualAudit = false;
    }
    ExecResult E;
    {
      ArtifactCache::Outcome How;
      CompiledSuffix Out = Cache ? Cache->compile(Source, Cfg, How)
                                 : CompiledSuffix(compileProgram(Source, Cfg));
      if (!Out.Facts.Ok) {
        E.Error = Out.Facts.Errors;
      } else {
        E = interpret(*Out.M, IO);
        Live.push_back(std::move(Out.M));
      }
    }
    if (!E.Ok) {
      R.Ok = false;
      R.FailingConfig = C.name();
      R.Message = "compile or runtime failure: " + E.Error;
      return R;
    }
    if (C.Promo) {
      size_t AI = C.Analysis == AnalysisKind::ModRef ? 0 : 1;
      std::string Stream = Re.toText("promote");
      if (!HavePromoRemarks[AI]) {
        HavePromoRemarks[AI] = true;
        PromoRemarks[AI] = std::move(Stream);
        PromoRemarksName[AI] = C.name();
      } else if (Stream != PromoRemarks[AI]) {
        R.Ok = false;
        R.FailingConfig = C.name();
        R.Message = "promotion remark stream differs from " +
                    PromoRemarksName[AI] +
                    " (promotion decisions must not depend on register "
                    "count, allocator, or optimization level)";
        return R;
      }
    }
    R.Loads[I] = E.Counters.Loads;
    if (!HaveBase) {
      HaveBase = true;
      BaseExit = E.ExitCode;
      BaseOutput = E.Output;
      BaseName = C.name();
      continue;
    }
    if (E.ExitCode != BaseExit) {
      R.Ok = false;
      R.FailingConfig = C.name();
      std::ostringstream OS;
      OS << "exit code " << E.ExitCode << " differs from " << BaseExit
         << " under " << BaseName;
      R.Message = OS.str();
      return R;
    }
    if (E.Output != BaseOutput) {
      R.Ok = false;
      R.FailingConfig = C.name();
      size_t N = 0;
      while (N < E.Output.size() && N < BaseOutput.size() &&
             E.Output[N] == BaseOutput[N])
        ++N;
      std::ostringstream OS;
      OS << "stdout diverges from " << BaseName << " at byte " << N << " ("
         << E.Output.size() << " vs " << BaseOutput.size() << " bytes)";
      R.Message = OS.str();
      return R;
    }
  }
  return R;
}
