//===- fuzz/Campaign.cpp --------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "driver/PassTiming.h"
#include "frontend/Lowering.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/FaultInjector.h"
#include "fuzz/ProgramGenerator.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "served/ArtifactCache.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace rpcc;

namespace {

InterpOptions fuzzInterpOptions(InterpEngine Engine, bool UseCaches) {
  InterpOptions IO;
  IO.Engine = Engine;
  // Generated programs are terminating by construction; a run that needs
  // more than this is a generator bug worth flagging loudly.
  IO.MaxSteps = uint64_t(1) << 26;
  // --no-compile-cache turns off the jit's native-code cache along with the
  // frontend cache, so campaigns can A/B a fully-from-scratch pipeline.
  IO.JitCodeCache = UseCaches;
  return IO;
}

/// Everything one seed produced, computed on any worker thread and reported
/// later, in seed order, on the campaign thread.
struct SeedOutcome {
  bool Ok = true;
  bool DiffOk = false;
  std::string Why;
  std::string Src;            ///< kept only for failing seeds
  std::vector<uint64_t> Loads; ///< per-cell dynamic loads when DiffOk
  /// How the seed's sandboxed child ended; Ok for in-protocol verdicts and
  /// for inline (non-sandboxed) checking.
  SandboxStatus Child = SandboxStatus::Ok;
};

/// diff oracle: every matrix cell must agree on behavior. Records per-cell
/// load counts for the corpus-level promotion check.
bool checkDiff(const std::string &Src, const std::vector<FuzzConfig> &Matrix,
               InterpEngine Engine, ArtifactCache *Cache, SeedOutcome &Out) {
  OracleResult R = checkProgram(Src, Matrix,
                              fuzzInterpOptions(Engine, Cache != nullptr), Cache);
  if (R.Ok) {
    Out.DiffOk = true;
    Out.Loads = std::move(R.Loads);
    return true;
  }
  Out.Why = "[diff] " + R.FailingConfig + ": " + R.Message;
  return false;
}

/// widen oracle: behavior must survive conservative analysis degradation.
/// The widening hook runs in the config-dependent suffix, so both runs can
/// fork one cached points-to prefix: the reference suffix sees the pristine
/// analysis, the widened suffix (which skips the store's suffix level)
/// degrades its own private fork.
bool checkWiden(uint64_t Seed, const std::string &Src, InterpEngine Engine,
                ArtifactCache *Cache, std::string &Why) {
  auto Run = [&](const CompilerConfig &Cfg) {
    if (!Cache)
      return compileAndRun(Src, Cfg, fuzzInterpOptions(Engine, false));
    ArtifactCache::Outcome How;
    CompiledSuffix Out = Cache->compile(Src, Cfg, How);
    if (!Out.Facts.Ok) {
      ExecResult R;
      R.Error = Out.Facts.Errors;
      return R;
    }
    return interpret(*Out.M, fuzzInterpOptions(Engine, true));
  };
  CompilerConfig Base;
  Base.Analysis = AnalysisKind::PointsTo;
  ExecResult Ref = Run(Base);
  if (!Ref.Ok) {
    Why = "[widen] reference run failed: " + Ref.Error;
    return false;
  }
  CompilerConfig Widened = Base;
  Widened.PostAnalysisHook = [Seed](Module &M) { widenAnalysis(M, Seed); };
  ExecResult Got = Run(Widened);
  if (!Got.Ok) {
    Why = "[widen] widened run failed: " + Got.Error;
    return false;
  }
  if (Got.ExitCode != Ref.ExitCode || Got.Output != Ref.Output) {
    std::ostringstream OS;
    OS << "[widen] behavior changed: exit " << Got.ExitCode << " vs "
       << Ref.ExitCode << ", stdout " << Got.Output.size() << " vs "
       << Ref.Output.size() << " bytes";
    Why = OS.str();
    return false;
  }
  return true;
}

/// corrupt oracle: the verifier must reject, with a diagnostic, without
/// crashing -- and the printer must render the broken IL safely too.
bool checkCorrupt(uint64_t Seed, const std::string &Src, std::string &Why) {
  Module M;
  std::string Err;
  if (!compileToIL(Src, M, Err)) {
    Why = "[corrupt] generated program failed to lower: " + Err;
    return false;
  }
  std::string PreErr;
  if (!verifyModule(M, PreErr)) {
    Why = "[corrupt] lowered IL failed verification before corruption:\n" +
          PreErr;
    return false;
  }
  std::string Desc;
  if (!corruptModule(M, Seed, Desc)) {
    Why = "[corrupt] no corruption site found";
    return false;
  }
  (void)printModule(M); // must not crash on invalid IL
  std::string PostErr;
  VerifyOptions VO;
  VO.CheckDefBeforeUse = true;
  if (verifyModule(M, PostErr, VO)) {
    Why = "[corrupt] verifier accepted corrupted IL (" + Desc + ")";
    return false;
  }
  if (PostErr.empty()) {
    Why = "[corrupt] verifier rejected without a diagnostic (" + Desc + ")";
    return false;
  }
  return true;
}

/// Runs every enabled oracle for one seed. Self-contained: the seed's
/// compiles share a private prefix store (diff and widen compile the same
/// program under many configs), and every compile forks its own module, so
/// no shared state crosses seeds or threads.
SeedOutcome checkSeed(uint64_t Seed, const CampaignOptions &Opts,
                      const std::vector<FuzzConfig> &Matrix) {
  double T0 = Opts.Trace ? timingNowMs() : 0;
  SeedOutcome Out;
  std::string Src = generateProgram(Seed);
  std::unique_ptr<ArtifactCache> Cache;
  if (Opts.UseCompileCache)
    Cache = std::make_unique<ArtifactCache>(ArtifactCache::Unbounded);
  std::string Why;
  bool Ok =
      (!Opts.DoDiff ||
       checkDiff(Src, Matrix, Opts.Engine, Cache.get(), Out)) &&
      (!Opts.DoWiden ||
       checkWiden(Seed, Src, Opts.Engine, Cache.get(), Why)) &&
      (!Opts.DoCorrupt || checkCorrupt(Seed, Src, Why));
  if (!Ok) {
    Out.Ok = false;
    if (Out.Why.empty())
      Out.Why = Why;
    Out.Src = std::move(Src);
  }
  if (Opts.Trace)
    Opts.Trace->addSpan("seed " + std::to_string(Seed), "seed", T0,
                        timingNowMs() - T0,
                        {{"verdict", Out.Ok ? "ok" : "fail"}});
  return Out;
}

// -- Sandbox plumbing --------------------------------------------------------

/// Flattens a SeedOutcome onto the sandbox result pipe. Child is parent-side
/// by construction (the child cannot classify its own death).
std::string encodeOutcome(const SeedOutcome &Out) {
  PayloadWriter W;
  W.u8(Out.Ok);
  W.u8(Out.DiffOk);
  W.str(Out.Why);
  W.str(Out.Src);
  W.u64(Out.Loads.size());
  for (uint64_t L : Out.Loads)
    W.u64(L);
  return W.take();
}

bool decodeOutcome(const std::string &Payload, SeedOutcome &Out) {
  PayloadReader R(Payload);
  Out.Ok = R.u8() != 0;
  Out.DiffOk = R.u8() != 0;
  Out.Why = R.str();
  Out.Src = R.str();
  uint64_t N = R.u64();
  if (N > Payload.size() / 8) // corrupt length: cannot possibly fit
    return false;
  Out.Loads.assign(N, 0);
  for (uint64_t &L : Out.Loads)
    L = R.u64();
  return R.complete();
}

/// The deterministic sabotage schedule for --inject-worker-faults: seeds
/// ≡ 3 (mod 20) crash, ≡ 9 hang, ≡ 15 OOM. Spread so a smoke campaign of a
/// few dozen seeds exercises every classification at least once.
WorkerFault injectedFault(const CampaignOptions &Opts, uint64_t Seed) {
  if (!Opts.InjectWorkerFaults)
    return WorkerFault::None;
  switch (Seed % 20) {
  case 3:
    return WorkerFault::Crash;
  case 9:
    return WorkerFault::Hang;
  case 15:
    return WorkerFault::Oom;
  default:
    return WorkerFault::None;
  }
}

/// Seed dispatcher: inline checking when the sandbox is off (byte-for-byte
/// the historic path), otherwise the oracles run in a forked child. A dead
/// child becomes a failing outcome with a "[sandbox]" diagnostic; its
/// program is regenerated parent-side (generation is deterministic) for the
/// log and the reproducer dir.
SeedOutcome checkSeedMaybeSandboxed(uint64_t Seed, const CampaignOptions &Opts,
                                    const std::vector<FuzzConfig> &Matrix) {
  if (!Opts.Sandbox)
    return checkSeed(Seed, Opts, Matrix);

  JobOptions JOpts;
  JOpts.Name = "seed-" + std::to_string(Seed);
  JOpts.Sandbox = true;
  JOpts.Limits = Opts.Limits;
  JOpts.Inject = injectedFault(Opts, Seed);
  JOpts.Log = Opts.Log;
  JOpts.Trace = Opts.Trace;

  // The child must not touch the shared trace collector: another worker may
  // hold its mutex at fork time. The parent-side runJob emits the span.
  CampaignOptions ChildOpts = Opts;
  ChildOpts.Trace = nullptr;
  SandboxResult R = runJob(
      [&](std::string &Payload) {
        Payload = encodeOutcome(checkSeed(Seed, ChildOpts, Matrix));
        return true;
      },
      JOpts);

  SeedOutcome Out;
  if (R.ok()) {
    if (decodeOutcome(R.Payload, Out))
      return Out;
    Out = SeedOutcome();
    Out.Child = SandboxStatus::InternalError;
    Out.Why = "[sandbox] malformed result payload";
  } else {
    Out.Child = R.Status;
    Out.Why = "[sandbox] " + R.Error;
  }
  Out.Ok = false;
  Out.Src = generateProgram(Seed);
  return Out;
}

void emit(CampaignResult &R, std::FILE *Live, const std::string &Text) {
  R.Log += Text;
  if (Live)
    std::fputs(Text.c_str(), Live);
}

/// Writes a failing seed's program to `<Dir>/seed-<N>.c`, creating the
/// directory on first use. Filesystem trouble is reported in the log, never
/// fatal — the reproducer is a convenience, the FAIL line is the record.
void writeReproducer(CampaignResult &R, std::FILE *Live,
                     const std::string &Dir, uint64_t Seed,
                     const std::string &Src) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Path = Dir + "/seed-" + std::to_string(Seed) + ".c";
  std::ofstream Out(Path);
  Out << Src;
  Out.close();
  emit(R, Live,
       Out.good() ? "rpfuzz: reproducer " + Path + "\n"
                  : "rpfuzz: failed to write reproducer " + Path + "\n");
}

/// Fail classes mirror the FAIL-line prefixes the oracle/sandbox attach to
/// SeedOutcome::Why, so the counters partition exactly like the log.
Counter &fuzzFailCounter(const std::string &Why) {
  auto &R = MetricsRegistry::global();
  auto Make = [&R](const char *Class) {
    return R.counter("fuzz.fails", {{"class", Class}},
                     MetricStability::Stable, "ops",
                     "Failing seeds per failure class.");
  };
  static Counter Diff = Make("diff");
  static Counter Widen = Make("widen");
  static Counter Corrupt = Make("corrupt");
  static Counter Sandbox = Make("sandbox");
  static Counter Other = Make("other");
  if (Why.rfind("[diff] ", 0) == 0)
    return Diff;
  if (Why.rfind("[widen] ", 0) == 0)
    return Widen;
  if (Why.rfind("[corrupt] ", 0) == 0)
    return Corrupt;
  if (Why.rfind("[sandbox] ", 0) == 0)
    return Sandbox;
  return Other;
}

} // namespace

CampaignResult rpcc::runCampaign(const CampaignOptions &Opts,
                                 std::FILE *Live) {
  Counter SeedsDone = MetricsRegistry::global().counter(
      "fuzz.seeds", {}, MetricStability::Stable, "ops",
      "Seeds fully checked (heartbeat rates derive seeds/sec from this).");
  std::vector<FuzzConfig> Matrix = Opts.Quick ? quickMatrix() : fullMatrix();
  CampaignResult R;
  std::vector<uint64_t> LoadTotals(Matrix.size(), 0);
  uint64_t Printed = 0;

  // Seeds are checked in blocks (parallel, any order) and reported in seed
  // order, so the log is byte-identical for any Jobs. Serial runs use a
  // block of one, preserving the old check-then-report streaming cadence.
  uint64_t BlockSize = Opts.Jobs <= 1 ? 1 : uint64_t(Opts.Jobs) * 8;
  std::vector<SeedOutcome> Block;
  for (uint64_t Base = 0; Base < Opts.Runs; Base += BlockSize) {
    uint64_t N = std::min(BlockSize, Opts.Runs - Base);
    Block.assign(N, SeedOutcome());
    parallelFor(Opts.Jobs, N, [&](size_t I) {
      Block[I] = checkSeedMaybeSandboxed(Opts.Seed0 + Base + I, Opts, Matrix);
    });

    for (uint64_t I = 0; I != N; ++I) {
      uint64_t K = Base + I;
      uint64_t Seed = Opts.Seed0 + K;
      SeedOutcome &Out = Block[I];
      SeedsDone.inc();
      if (Out.DiffOk)
        for (size_t Cell = 0; Cell != Out.Loads.size(); ++Cell)
          LoadTotals[Cell] += Out.Loads[Cell];
      if (!Out.Ok) {
        fuzzFailCounter(Out.Why).inc();
        ++R.Failures;
        R.Crashed += Out.Child == SandboxStatus::Crash;
        R.OomKilled += Out.Child == SandboxStatus::Oom;
        R.TimedOut += Out.Child == SandboxStatus::Timeout;
        std::ostringstream OS;
        OS << "FAIL seed=" << Seed << " " << Out.Why << "\n";
        if (Printed < Opts.MaxPrintedPrograms) {
          ++Printed;
          OS << "---- failing program (seed " << Seed << ") ----\n"
             << Out.Src << "---- end program ----\n";
        }
        emit(R, Live, OS.str());
        if (!Opts.ReproducerDir.empty())
          writeReproducer(R, Live, Opts.ReproducerDir, Seed, Out.Src);
      }
      if (Opts.ProgressInterval && (K + 1) % Opts.ProgressInterval == 0) {
        std::ostringstream OS;
        OS << "rpfuzz: " << (K + 1) << "/" << Opts.Runs << " seeds, "
           << R.Failures << " failure(s)\n";
        emit(R, Live, OS.str());
      }
    }
  }

  // Corpus-level count sanity: a single program may legally load more with
  // promotion (landing pads, spills), but across the whole corpus promotion
  // must not add loads under otherwise-identical configuration.
  if (Opts.DoDiff && R.Failures == 0) {
    for (auto [Without, With] : promotionPairs(Matrix)) {
      if (LoadTotals[With] > LoadTotals[Without]) {
        ++R.Failures;
        std::ostringstream OS;
        OS << "FAIL corpus load counts: " << Matrix[With].name() << " ran "
           << LoadTotals[With] << " loads vs " << LoadTotals[Without]
           << " under " << Matrix[Without].name() << "\n";
        emit(R, Live, OS.str());
      }
    }
  }
  std::ostringstream OS;
  if (R.Failures) {
    OS << "rpfuzz: " << R.Failures << " failing seed(s)";
    // Abnormal children get their own accounting: the whole point of the
    // sandbox is that these are distinguishable from wrong-answer seeds.
    if (R.Crashed || R.OomKilled || R.TimedOut)
      OS << " (" << R.Crashed << " crashed, " << R.OomKilled << " oom, "
         << R.TimedOut << " timed out)";
    OS << "\n";
  } else {
    OS << "rpfuzz: " << Opts.Runs << " seeds clean\n";
  }
  emit(R, Live, OS.str());
  return R;
}
