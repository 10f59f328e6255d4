//===- perfbench/src/Served.cpp - The `serve` and `edit` workloads --------===//
//
// Both drive a real rpserved (--workers=2) over two keep-alive connections
// in a closed loop: each connection sends its next request only when the
// previous reply has arrived. The harness, the daemon and its sandbox
// children share one CPU (see main.cpp). Every request body is built
// during set-up, so the timed phase only sends, waits and stores the
// replies; the golden check runs after the phase.
//
//  serve: each cycle posts every (program, config) of the served grid three
//         times to /compile and once to /run with the jit engine, in a
//         seeded order. The prefixes are primed during set-up, so every
//         request is a cache hit: steady-state suffix work, plus the
//         sandbox fork and jit on /run.
//  edit:  each cycle posts, for every (program, config), a fresh edit of
//         the program to /compile (a consistent rename of one global), and
//         re-posts the request two ops back at a seeded fifth of the
//         positions. Fresh edits miss the artifact cache and run the
//         frontend and alias analysis; the small --cache-mb keeps the LRU
//         evicting. After the phase, each (program, promoted config) runs
//         once through /run to show the edits kept the programs' meaning.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Replica.h"

#include "driver/PassTiming.h"
#include "ir/Module.h"
#include "served/ArtifactCache.h"
#include "served/Http.h"
#include "served/HttpClient.h"
#include "support/Json.h"

#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <poll.h>
#include <set>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace rpcc;
using namespace rpbench;

namespace {

constexpr unsigned Connections = 2;
constexpr unsigned SetupReps = 3;
/// Ops per second of each timed phase on the reference host, on one CPU;
/// sizes the fixed op count from --seconds.
constexpr double ServeOpsPerSec = 260;
constexpr double EditOpsPerSec = 460;
/// serve: three /compile and one /run per (program, config).
constexpr unsigned ServeCompilesPerRun = 3;
/// edit: one re-post per four fresh edits (a fifth of all ops).
constexpr unsigned EditFreshPerRepost = 4;
/// edit's artifact-cache budget: a handful of artifacts, so the LRU evicts
/// throughout while a request two ops back is still resident.
constexpr unsigned EditCacheMb = 1;

//===----------------------------------------------------------------------===//
// The daemon process
//===----------------------------------------------------------------------===//

class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (OutFd >= 0)
      ::close(OutFd);
  }

  /// Starts rpserved on an ephemeral port and waits for its
  /// "listening on HOST:PORT" line.
  bool start(const std::string &Path, const std::vector<std::string> &Flags,
             std::string &Err) {
    int P[2];
    if (::pipe(P) != 0) {
      Err = "pipe failed";
      return false;
    }
    std::vector<std::string> Argv = {Path, "--port=0"};
    Argv.insert(Argv.end(), Flags.begin(), Flags.end());
    std::vector<char *> CArgv;
    for (std::string &S : Argv)
      CArgv.push_back(S.data());
    CArgv.push_back(nullptr);
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      ::close(P[0]);
      ::close(P[1]);
      return false;
    }
    if (Pid == 0) {
      // The daemon must not outlive the harness, however the harness ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(P[1], 1);
      ::close(P[0]);
      ::close(P[1]);
      ::execv(CArgv[0], CArgv.data());
      _exit(127);
    }
    ::close(P[1]);
    OutFd = P[0];
    std::string Line;
    for (;;) {
      pollfd PF{OutFd, POLLIN, 0};
      char C;
      if (::poll(&PF, 1, 10000) != 1 || ::read(OutFd, &C, 1) != 1) {
        Err = "rpserved did not report a port";
        return false;
      }
      if (C != '\n') {
        Line += C;
        continue;
      }
      size_t At = Line.find("listening on ");
      size_t Colon = Line.rfind(':');
      if (At != std::string::npos && Colon != std::string::npos) {
        Port = static_cast<uint16_t>(std::atoi(Line.c_str() + Colon + 1));
        return Port != 0;
      }
      Line.clear();
    }
  }

  /// SIGTERM, then the graceful drain; true when it exits 0.
  bool stop() {
    if (Pid <= 0)
      return true;
    ::kill(Pid, SIGTERM);
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
    return WIFEXITED(St) && WEXITSTATUS(St) == 0;
  }

  uint16_t port() const { return Port; }

  /// User+system CPU of the daemon and of the sandbox children it reaped.
  double cpuMs() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
    std::string S((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
    size_t Paren = S.rfind(')');
    if (Paren == std::string::npos)
      return 0;
    std::istringstream F(S.substr(Paren + 2));
    std::string Tok;
    double Ticks = 0;
    // Fields after the command: state is field 3; utime..cstime are 14-17.
    for (int Field = 3; Field <= 17 && (F >> Tok); ++Field)
      if (Field >= 14)
        Ticks += std::atof(Tok.c_str());
    return Ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// The daemon's peak resident set (VmHWM), in MB.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::atof(Line.c_str() + 6) / 1024.0;
    return 0;
  }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
};

//===----------------------------------------------------------------------===//
// Ops
//===----------------------------------------------------------------------===//

struct Op {
  bool Run = false; ///< POST /run (jit) instead of /compile
  size_t Prog = 0;
  Config Cfg;
  std::string Body; ///< request body, the posted source included
  std::string key(const std::vector<Program> &Progs) const {
    return Progs[Prog].Name + "/" + configName(Cfg);
  }
};

std::string requestBody(const std::string &Source, const Config &C, bool Run) {
  std::string B = "{\"source\":\"" + jsonEscape(Source) + "\"";
  B += C.PointsTo ? ",\"analysis\":\"points-to\"" : ",\"analysis\":\"modref\"";
  B += C.Promote ? ",\"promote\":true" : ",\"promote\":false";
  B += ",\"registers\":" + std::to_string(C.Registers);
  if (Run)
    B += ",\"engine\":\"jit\"";
  return B + "}";
}

Op makeOp(size_t Prog, const Config &C, bool Run, const std::string &Source) {
  Op O;
  O.Run = Run;
  O.Prog = Prog;
  O.Cfg = C;
  O.Body = requestBody(Source, C, Run);
  return O;
}

/// The bytes rpcc::HttpClient sends for one POST, for the replayed parse.
std::string requestBytes(const Op &O) {
  return std::string("POST ") + (O.Run ? "/run" : "/compile") +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(O.Body.size()) + "\r\n\r\n" + O.Body;
}

bool identStart(char C) { return std::isalpha(static_cast<unsigned char>(C)) || C == '_'; }
bool identChar(char C) { return std::isalnum(static_cast<unsigned char>(C)) || C == '_'; }

/// Renames every identifier token \p From to \p To, leaving comments,
/// string and character literals alone. A consistent rename of a global
/// (and of anything else spelled the same) keeps the program's meaning.
std::string renameIdent(const std::string &S, const std::string &From,
                        const std::string &To) {
  std::string Out;
  Out.reserve(S.size() + 64);
  size_t I = 0;
  while (I < S.size()) {
    char C = S[I];
    if (C == '/' && I + 1 < S.size() && (S[I + 1] == '/' || S[I + 1] == '*')) {
      size_t End = S[I + 1] == '/' ? S.find('\n', I) : S.find("*/", I + 2);
      End = End == std::string::npos ? S.size()
                                     : End + (S[I + 1] == '/' ? 0 : 2);
      Out.append(S, I, End - I);
      I = End;
    } else if (C == '"' || C == '\'') {
      size_t J = I + 1;
      while (J < S.size() && S[J] != C)
        J += S[J] == '\\' ? 2 : 1;
      J = std::min(J + 1, S.size());
      Out.append(S, I, J - I);
      I = J;
    } else if (identStart(C)) {
      size_t J = I;
      while (J < S.size() && identChar(S[J]))
        ++J;
      std::string Tok = S.substr(I, J - I);
      Out += Tok == From ? To : Tok;
      I = J;
    } else if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t J = I; // a number, including suffixes like 1e5f or 0x1F
      while (J < S.size() && identChar(S[J]))
        ++J;
      Out.append(S, I, J - I);
      I = J;
    } else {
      Out += C;
      ++I;
    }
  }
  return Out;
}

/// Names of the program's file-scope variables, as the frontend sees them.
std::vector<std::string> globalNames(const std::string &Source) {
  std::vector<std::string> Out;
  FrontendArtifact FA = runFrontend(Source);
  if (!FA.Ok)
    return Out;
  for (const Tag &T : FA.M->tags())
    if (T.Kind == TagKind::Global && !T.Name.empty() && identStart(T.Name[0]) &&
        renameIdent(Source, T.Name, T.Name + "_") != Source)
      Out.push_back(T.Name);
  return Out;
}

struct Plan {
  std::vector<Op> Warmup; ///< untimed, sent during set-up
  std::vector<Op> Timed;
  std::vector<Op> Tail;   ///< edit: the meaning check after the phase
};

Plan servePlan(const std::vector<Program> &Progs, uint64_t Seed, uint64_t N) {
  Plan P;
  std::vector<Config> Cfgs = servedConfigs();
  for (size_t Pr = 0; Pr != Progs.size(); ++Pr)
    for (const Config &C : Cfgs)
      P.Warmup.push_back(makeOp(Pr, C, false, Progs[Pr].Source));
  for (size_t Pr = 0; Pr != Progs.size(); ++Pr)
    P.Warmup.push_back(makeOp(Pr, Cfgs.back(), true, Progs[Pr].Source));
  // One cycle: every (program, config) as three compiles and one run.
  const size_t PerPair = ServeCompilesPerRun + 1;
  const size_t Cycle = Progs.size() * Cfgs.size() * PerPair;
  std::vector<Op> Proto;
  for (size_t Slot = 0; Slot != Cycle; ++Slot) {
    size_t Pair = Slot / PerPair;
    size_t Pr = Pair / Cfgs.size();
    Proto.push_back(makeOp(Pr, Cfgs[Pair % Cfgs.size()],
                           Slot % PerPair == ServeCompilesPerRun,
                           Progs[Pr].Source));
  }
  for (size_t Idx : seededCycles(Seed, Cycle, N))
    P.Timed.push_back(Proto[Idx]);
  return P;
}

Plan editPlan(const std::vector<Program> &Progs, uint64_t Seed, uint64_t N) {
  Plan P;
  std::vector<Config> Cfgs = servedConfigs();
  std::vector<std::vector<std::string>> Globals;
  for (const Program &Pr : Progs)
    Globals.push_back(globalNames(Pr.Source));
  std::mt19937_64 Rng(Seed ^ 0xED17ull);
  uint64_t Serial = 0;
  struct Edit {
    size_t Prog;
    Config Cfg;
    std::string Source;
  };
  std::map<std::string, Edit> LastEdit; ///< latest fresh edit per pair
  auto Fresh = [&](size_t Pr, const Config &C) {
    const std::vector<std::string> &G = Globals[Pr];
    std::string Source = Progs[Pr].Source;
    if (!G.empty()) {
      const std::string &From = G[Rng() % G.size()];
      Source = renameIdent(Source, From,
                           From + "_e" + std::to_string(Seed) + "_" +
                               std::to_string(Serial++));
    }
    Op O = makeOp(Pr, C, false, Source);
    LastEdit[O.key(Progs)] = {Pr, C, std::move(Source)};
    return O;
  };
  for (size_t Pr = 0; Pr != Progs.size(); ++Pr)
    for (const Config &C : Cfgs)
      P.Warmup.push_back(Fresh(Pr, C));

  // One cycle: a fresh edit per (program, config), plus one re-post per
  // EditFreshPerRepost of them at seeded positions.
  const size_t Pairs = Progs.size() * Cfgs.size();
  const size_t Cycle = Pairs + Pairs / EditFreshPerRepost;
  std::vector<size_t> Order = seededCycles(Seed, Pairs, (N / Cycle) * Pairs);
  std::vector<size_t> Slots = seededCycles(Seed + 1, Cycle, N);
  std::vector<const Op *> History;
  for (const Op &W : P.Warmup)
    History.push_back(&W);
  P.Timed.reserve(N);
  size_t NextFresh = 0;
  for (uint64_t I = 0; I != N; ++I) {
    if (Slots[I] < Pairs / EditFreshPerRepost) {
      P.Timed.push_back(*History[History.size() - 2]);
    } else {
      size_t Pair = Order[NextFresh++];
      P.Timed.push_back(Fresh(Pair / Cfgs.size(), Cfgs[Pair % Cfgs.size()]));
    }
    History.push_back(&P.Timed.back());
  }
  // The meaning check: the last fresh edit of each (program, promoted
  // config), executed once.
  for (const auto &[Key, E] : LastEdit)
    if (E.Cfg.Promote)
      P.Tail.push_back(makeOp(E.Prog, E.Cfg, true, E.Source));
  return P;
}

//===----------------------------------------------------------------------===//
// Replies and the golden check
//===----------------------------------------------------------------------===//

struct Reply {
  bool Transport = false; ///< connect/send/receive failed
  int Status = 0;
  std::string Body;
  double Start = 0, Ms = 0;
};

struct Facts {
  int64_t ExitCode = 0;
  std::string Digest;
  uint64_t Total = 0, Loads = 0, Stores = 0;
  uint64_t StaticOps = 0, PromotedTags = 0, RewrittenOps = 0;
};

uint64_t u64Field(const JsonValue &V, const char *Name) {
  const JsonValue *F = V.field(Name);
  return F && F->K == JsonValue::Number ? static_cast<uint64_t>(F->Num)
                                        : ~uint64_t(0);
}

/// Checks one reply against golden; "" when it matches. Fills \p F.
std::string checkReply(const Golden &G, const std::string &Key, const Op &O,
                       const Reply &Rp, Facts &F) {
  if (Rp.Transport)
    return Key + ": transport error";
  if (Rp.Status != 200)
    return Key + ": HTTP " + std::to_string(Rp.Status);
  JsonValue V;
  std::string Err;
  if (!parseJson(Rp.Body, V, Err) || V.K != JsonValue::Object)
    return Key + ": malformed reply";
  std::string Status = V.strOr("status", "", Err);
  if (Status != "ok")
    return Key + ": status '" + Status + "'";
  const GoldenEntry *E = G.find(Key);
  if (!E)
    return Key + ": no golden entry";
  if (!O.Run) {
    F.StaticOps = u64Field(V, "static_ops");
    F.PromotedTags = u64Field(V, "promoted_tags");
    F.RewrittenOps = u64Field(V, "rewritten_ops");
    if (F.StaticOps != E->StaticOps || F.PromotedTags != E->PromotedTags ||
        F.RewrittenOps != E->RewrittenOps)
      return Key + ": compile reply differs from golden";
    return "";
  }
  const JsonValue *Ops = V.field("ops");
  F.ExitCode = static_cast<int64_t>(V.numOr("exit_code", -1, Err));
  F.Digest = outputDigest(V.strOr("output", "", Err));
  if (Ops) {
    F.Total = u64Field(*Ops, "total");
    F.Loads = u64Field(*Ops, "loads");
    F.Stores = u64Field(*Ops, "stores");
  }
  if (!Err.empty() || F.ExitCode != E->ExitCode || F.Digest != E->OutputDigest ||
      F.Total != E->Total || F.Loads != E->Loads || F.Stores != E->Stores)
    return Key + ": run reply differs from golden";
  return "";
}

/// Sends \p Ops over \p Conns keep-alive connections, each taking the next
/// unsent op when its previous reply arrives.
std::vector<Reply> drive(uint16_t Port, const std::vector<Op> &Ops,
                         unsigned Conns) {
  std::vector<Reply> Replies(Ops.size());
  std::atomic<size_t> Next{0};
  auto Client = [&] {
    HttpClient C;
    if (!C.connect("127.0.0.1", Port)) {
      for (size_t I; (I = Next.fetch_add(1)) < Ops.size();)
        Replies[I].Transport = true;
      return;
    }
    for (size_t I; (I = Next.fetch_add(1)) < Ops.size();) {
      const Op &O = Ops[I];
      HttpClientResponse Resp;
      double T0 = timingNowMs();
      Status S = C.request("POST", O.Run ? "/run" : "/compile", O.Body, Resp);
      Replies[I].Start = T0;
      Replies[I].Ms = timingNowMs() - T0;
      Replies[I].Transport = !S;
      Replies[I].Status = Resp.Status;
      Replies[I].Body = std::move(Resp.Body);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Conns; ++T)
    Threads.emplace_back(Client);
  for (std::thread &T : Threads)
    T.join();
  return Replies;
}

uint64_t daemonEvictions(uint16_t Port) {
  HttpClient C;
  HttpClientResponse Resp;
  JsonValue V;
  std::string Err;
  if (!C.connect("127.0.0.1", Port) || !C.request("GET", "/healthz", "", Resp) ||
      !parseJson(Resp.Body, V, Err))
    return 0;
  const JsonValue *Cache = V.field("cache");
  return Cache ? u64Field(*Cache, "evictions") : 0;
}

//===----------------------------------------------------------------------===//
// The traced replay
//===----------------------------------------------------------------------===//

struct Replay {
  const std::vector<Program> &Progs;
  ArtifactCache Cache;
  SpanLog L;
  LayerCounts C;
  std::set<std::string> Checked; ///< (program, config) pairs compared
  std::string Failure;

  Replay(const std::vector<Program> &Progs, size_t Budget)
      : Progs(Progs), Cache(Budget) {}

  /// One request, as rpserved's handlers process it: HTTP parse, JSON
  /// decode (twice for /run, as handleRun does), the artifact-cache lookup,
  /// then the suffix and, for /run, the sandboxed execution.
  void request(const Op &O, uint64_t Id, const Golden &G) {
    Scoped Root(L, "op", Id);
    std::string Bytes = requestBytes(O);
    HttpParser::State St;
    HttpLimits Limits;
    HttpParser Parser(Limits);
    {
      Scoped S(L, "served.http_parse", Id);
      St = Parser.feed(Bytes.data(), Bytes.size());
    }
    JsonValue V;
    std::string Err;
    bool Parsed;
    {
      Scoped S(L, "served.json_decode", Id);
      Parsed = parseJson(Parser.request().Body, V, Err);
      if (O.Run)
        Parsed = Parsed && parseJson(Parser.request().Body, V, Err);
    }
    std::string Source = V.strOr("source", "", Err);
    if (St != HttpParser::State::Complete || !Parsed || Source.empty()) {
      Failure = "replayed request did not parse";
      return;
    }

    AnalysisKind Kind =
        O.Cfg.PointsTo ? AnalysisKind::PointsTo : AnalysisKind::ModRef;
    size_t Idx = O.Cfg.PointsTo ? 1 : 0;
    std::shared_ptr<ServedArtifact> Before =
        Cache.peek(ArtifactCache::contentKey(Source));
    bool HadFrontend = Before != nullptr;
    bool HadAnalysis = Before && Before->AM[Idx].M != nullptr;
    ArtifactCache::Outcome Out;
    double T0 = timingNowMs();
    std::shared_ptr<ServedArtifact> Art = Cache.get(Source, Kind, Out);
    double T1 = timingNowMs();
    // A miss builds the prefix inside get(). The replica builds it again,
    // pass by pass, and its measurement of that work is taken out of the
    // lookup's span, so the prefix is charged to its layers exactly once.
    double Prefix = 0;
    if (!HadFrontend || !HadAnalysis) {
      double P0 = timingNowMs();
      if (!HadFrontend) {
        std::unique_ptr<Module> FM = replicaFrontend(Source, L, Id, C);
        if (FM)
          replicaAnalyze(*FM, O.Cfg.PointsTo, L, Id);
      } else {
        replicaAnalyze(*Art->FA.M, O.Cfg.PointsTo, L, Id);
      }
      Prefix = timingNowMs() - P0;
    }
    L.add("served.cache_get", T0, std::max(T0, T1 - Prefix), Id);
    if (!Art->AM[Idx].Ok) {
      Failure = "replayed prefix failed: " + Art->AM[Idx].Errors;
      return;
    }

    CompileStats Stats;
    std::unique_ptr<Module> SM =
        replicaSuffix(*Art->AM[Idx].M, O.Cfg, L, Id, C, Stats);
    std::string Key = O.key(Progs);
    const GoldenEntry *E = G.find(Key);
    if (!SM || !E || countStaticOps(*SM) != E->StaticOps ||
        Stats.Promo.PromotedTags != E->PromotedTags ||
        Stats.Promo.RewrittenOps != E->RewrittenOps) {
      Failure = Key + ": replica compile differs from golden";
      return;
    }
    if (Checked.insert(Key).second) {
      std::string Diff = compareWithPipeline(*SM, Stats, Art->AM[Idx], O.Cfg);
      if (!Diff.empty()) {
        Failure = Key + ": " + Diff;
        return;
      }
    }
    if (!O.Run)
      return;
    ExecResult R;
    std::string RunErr;
    if (!replicaSandboxedRun(*SM, L, Id, C, R, RunErr)) {
      Failure = Key + ": " + RunErr;
      return;
    }
    if (!R.Ok || R.ExitCode != E->ExitCode ||
        outputDigest(R.Output) != E->OutputDigest ||
        R.Counters.Total != E->Total || R.Counters.Loads != E->Loads ||
        R.Counters.Stores != E->Stores)
      Failure = Key + ": replica run differs from golden";
  }
};

} // namespace

int rpbench::runServed(const Args &A, Result &R) {
  const bool Edit = A.Workload == "edit";
  std::vector<std::string> Flags = {"--workers=2"};
  if (Edit)
    Flags.push_back("--cache-mb=" + std::to_string(EditCacheMb));

  std::vector<Program> Progs;
  Golden G;
  Plan P;
  uint64_t N = 0;
  size_t Cycle = 0;
  std::unique_ptr<Daemon> D;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    // Only the last set-up's daemon serves the timed phase.
    if (D && !D->stop()) {
      std::fprintf(stderr, "rpbench: rpserved did not drain cleanly\n");
      R.Correct = false;
    }
    double T0 = timingNowMs();
    Progs = loadPrograms(A.Root);
    G = Golden();
    std::string Err;
    if (Progs.empty() ||
        !loadGolden(A.Golden + "/" + A.Workload + ".json", G, Err)) {
      std::fprintf(stderr, "rpbench: set-up failed: %s\n",
                   Progs.empty() ? "cannot read the suite programs"
                                 : Err.c_str());
      return 1;
    }
    size_t Pairs = Progs.size() * servedConfigs().size();
    Cycle = Edit ? Pairs + Pairs / EditFreshPerRepost
                 : Pairs * (ServeCompilesPerRun + 1);
    N = opCount(phaseSeconds(A), Edit ? EditOpsPerSec : ServeOpsPerSec, Cycle, 100);
    P = Edit ? editPlan(Progs, A.Seed, N) : servePlan(Progs, A.Seed, N);
    D = std::make_unique<Daemon>();
    if (!D->start(A.Daemon, Flags, Err)) {
      std::fprintf(stderr, "rpbench: %s\n", Err.c_str());
      return 1;
    }
    // Prime the daemon with one untimed pass over every (program, config),
    // checked like the timed ops (serve: the unedited programs, so every
    // prefix is resident; edit: a first fresh edit of each).
    std::vector<Reply> Warm = drive(D->port(), P.Warmup, Connections);
    for (size_t I = 0; I != Warm.size(); ++I) {
      Facts F;
      std::string Diff = checkReply(G, P.Warmup[I].key(Progs), P.Warmup[I],
                                    Warm[I], F);
      if (!Diff.empty()) {
        std::fprintf(stderr, "rpbench: warm-up: %s\n", Diff.c_str());
        R.Correct = false;
      }
    }
    SetupS.push_back((timingNowMs() - T0) / 1000.0);
  }

  R.Info.push_back({"probe_before_ms", fmt(memoryProbeMs())});
  StealMeter Steal;
  uint64_t Evict0 = daemonEvictions(D->port());
  double Cpu0 = D->cpuMs();
  double T0 = timingNowMs();
  std::vector<Reply> Replies = drive(D->port(), P.Timed, Connections);
  R.Info.push_back({"phase_s", fmt((timingNowMs() - T0) / 1000.0)});
  double CpuMs = D->cpuMs() - Cpu0;
  uint64_t Evictions = daemonEvictions(D->port()) - Evict0;
  double RssMb = D->peakRssMb();
  R.Info.push_back({"host_steal_frac", fmt(Steal.frac())});
  R.Info.push_back({"probe_after_ms", fmt(memoryProbeMs())});
  std::vector<Reply> TailReplies = drive(D->port(), P.Tail, 1);
  if (!D->stop()) {
    std::fprintf(stderr, "rpbench: rpserved did not drain cleanly\n");
    R.Correct = false;
  }

  if (A.CorruptOp >= 0 && static_cast<uint64_t>(A.CorruptOp) < N)
    Replies[A.CorruptOp].Body = "{\"status\":\"ok\"}";

  // The golden check, and the measured facts of every distinct pair.
  uint64_t Ok = 0, Hits = 0;
  std::vector<double> Lat;
  OpTimes Times;
  std::map<std::string, Facts> Compiled, Ran;
  auto Check = [&](const Op &O, const Reply &Rp) {
    Facts F;
    std::string Key = O.key(Progs);
    std::string Diff = checkReply(G, Key, O, Rp, F);
    if (!Diff.empty()) {
      std::fprintf(stderr, "rpbench: %s\n", Diff.c_str());
      return false;
    }
    (O.Run ? Ran : Compiled).emplace(Key, F);
    return true;
  };
  for (uint64_t I = 0; I != N; ++I) {
    Lat.push_back(Replies[I].Ms);
    Times.add(Replies[I].Start, Replies[I].Start + Replies[I].Ms);
    Ok += Check(P.Timed[I], Replies[I]);
    JsonValue V;
    std::string Err;
    if (parseJson(Replies[I].Body, V, Err)) {
      std::string Cached = V.strOr("cached", "", Err);
      Hits += Cached == "hit" || Cached == "coalesced";
    }
  }
  for (size_t I = 0; I != P.Tail.size(); ++I)
    if (!Check(P.Tail[I], TailReplies[I]))
      R.Correct = false;

  R.Attempted = N;
  R.Failed = N - Ok;
  if (R.Failed)
    R.Correct = false;
  uint64_t DynOps = 0, DynLoads = 0, DynStores = 0, StaticOps = 0, Runs = 0;
  for (const auto &[Key, F] : Ran)
    if (Key.find("/with/") != std::string::npos) {
      DynOps += F.Total;
      DynLoads += F.Loads;
      DynStores += F.Stores;
      ++Runs;
    }
  for (const auto &[Key, F] : Compiled)
    StaticOps += F.StaticOps;

  if (!A.Trace) {
    R.Info.push_back({"block_rates", blockRateSpread(Times, Cycle)});
    R.add("setup_s", "s", median(SetupS), SetupS.size());
    R.add("ops_per_s", "1/s", medianBlockRate(Times, Cycle), N);
    R.add("p50_ms", "ms", medianBlockPercentile(Times, Cycle, 0.5), N);
    R.add("p90_ms", "ms", medianBlockPercentile(Times, Cycle, 0.9), N);
    R.add("cpu_ms_per_op", "ms", CpuMs / N, N);
    R.add("peak_rss_mb", "MB", RssMb, 1);
    R.add("ok_frac", "frac", static_cast<double>(Ok) / N, N);
    R.add("dyn_ops", "count", DynOps, Runs);
    R.add("dyn_loads", "count", DynLoads, Runs);
    R.add("dyn_stores", "count", DynStores, Runs);
    R.add("static_ops", "count", StaticOps, Compiled.size());
    return 0;
  }

  // Traced run: replay every timed op in order, in-process, with spans.
  Replay Rp(Progs, Edit ? size_t(EditCacheMb) << 20 : size_t(64) << 20);
  for (const Op &W : P.Warmup) {
    JsonValue V;
    std::string Err;
    ArtifactCache::Outcome Out;
    if (parseJson(W.Body, V, Err))
      Rp.Cache.get(V.strOr("source", "", Err),
                   W.Cfg.PointsTo ? AnalysisKind::PointsTo
                                  : AnalysisKind::ModRef,
                   Out);
  }
  for (uint64_t I = 0; I != N && Rp.Failure.empty(); ++I)
    Rp.request(P.Timed[I], I, G);
  if (!Rp.Failure.empty()) {
    std::fprintf(stderr, "rpbench: traced replica: %s\n", Rp.Failure.c_str());
    R.Correct = false;
  }

  LayerReport LR;
  LR.Ops = N;
  LR.Logs = {&Rp.L};
  LR.Counts = Rp.C;
  LR.Requests = N;
  LR.CacheHitFrac = static_cast<double>(Hits) / N;
  LR.CacheEvictions = Evictions;
  std::map<uint64_t, double> Layer = selfTimePerOp(LR.Logs, unchargedSpans());
  double Wait = 0, Replayed = 0;
  for (uint64_t I = 0; I != N; ++I) {
    Wait += Replies[I].Ms - Layer[I];
    Replayed += Layer[I];
  }
  LR.WaitMs = Wait / N;
  addLayerMetrics(LR, R);
  // Tracing overhead: the traced handler work (every replayed layer but the
  // HTTP parse and JSON decode, which rpserved's wall_ms leaves out) against
  // the daemon's own untraced wall_ms for the same requests.
  std::map<std::string, double> Self = selfTimes(LR.Logs);
  double Handler = Replayed - Self["served.http_parse"] -
                   Self["served.json_decode"];
  double DaemonMs = 0;
  for (const Reply &Rpl : Replies) {
    JsonValue V;
    std::string Err;
    if (parseJson(Rpl.Body, V, Err))
      DaemonMs += V.numOr("wall_ms", 0, Err);
  }
  R.Info.push_back({"replayed_layer_ms", fmt(Replayed / N)});
  R.Info.push_back({"untraced_daemon_wall_ms", fmt(DaemonMs / N)});
  R.Info.push_back({"client_latency_ms", fmt(median(Lat))});
  R.Info.push_back({"tracing_overhead", fmt(Handler / DaemonMs - 1)});
  std::string Path = A.OutDir + "/trace-" + A.Workload + ".json";
  if (writeChromeTrace(Path, LR.Logs))
    R.Info.push_back({"spans", Path});
  return 0;
}
