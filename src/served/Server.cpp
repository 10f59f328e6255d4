//===- served/Server.cpp - The rpserved daemon core -----------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "served/Server.h"

#include "driver/JobRunner.h"
#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "obs/Metrics.h"
#include "obs/Remark.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rpcc;

namespace {

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Request metrics, labeled by endpoint. Latencies and which connection got
/// which error are scheduling accidents, hence Volatile.
struct ServedMetrics {
  Counter Requests(const std::string &Endpoint) {
    return MetricsRegistry::global().counter(
        "served.requests", {{"endpoint", Endpoint}}, MetricStability::Volatile,
        "ops", "Requests answered, by endpoint.");
  }
  Counter HttpErrors;
  Histogram RequestUs;
  ServedMetrics() {
    auto &R = MetricsRegistry::global();
    HttpErrors = R.counter("served.http_errors", {}, MetricStability::Volatile,
                           "ops",
                           "Protocol-level rejections (4xx/5xx before any "
                           "handler ran).");
    RequestUs = R.histogram("served.request_us", {}, MetricStability::Volatile,
                            "us", "Wall latency of answered requests.");
  }
};

ServedMetrics &servedMetrics() {
  static ServedMetrics M;
  return M;
}

//===----------------------------------------------------------------------===//
// Socket helpers
//===----------------------------------------------------------------------===//

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

//===----------------------------------------------------------------------===//
// Request body decoding
//===----------------------------------------------------------------------===//

/// The fields shared by /compile and /run bodies, with defaults matching
/// the rpcc CLI.
struct CompileRequest {
  std::string Source;
  AnalysisKind Analysis = AnalysisKind::ModRef;
  bool Promote = true;
  bool PointerPromotion = false;
  bool EnableOpts = true;
  unsigned Registers = 16;
  std::string Error; ///< non-empty = reject with 400
};

/// Applies the compiling endpoints' rules to the analysis name and the
/// register count; sets R.Error on a bad value.
void setAnalysisAndRegisters(CompileRequest &R, const std::string &Analysis,
                             double Regs) {
  if (Analysis == "modref")
    R.Analysis = AnalysisKind::ModRef;
  else if (Analysis == "points-to")
    R.Analysis = AnalysisKind::PointsTo;
  else {
    R.Error = "field 'analysis' must be \"modref\" or \"points-to\"";
    return;
  }
  if (Regs < 4 || Regs > 1024 || Regs != std::floor(Regs)) {
    R.Error = "field 'registers' must be an integer in [4, 1024]";
    return;
  }
  R.Registers = static_cast<unsigned>(Regs);
}

CompileRequest parseCompileRequest(const std::string &Body) {
  CompileRequest R;
  JsonValue V;
  std::string Err;
  if (!parseJson(Body, V, Err)) {
    R.Error = "malformed JSON body: " + Err;
    return R;
  }
  if (V.K != JsonValue::Object) {
    R.Error = "request body must be a JSON object";
    return R;
  }
  R.Source = V.strOr("source", "", Err);
  std::string Analysis = V.strOr("analysis", "modref", Err);
  R.Promote = V.boolOr("promote", true, Err);
  R.PointerPromotion = V.boolOr("pointer_promotion", false, Err);
  R.EnableOpts = V.boolOr("opts", true, Err);
  double Regs = V.numOr("registers", 16, Err);
  if (!Err.empty()) {
    R.Error = Err;
    return R;
  }
  if (R.Source.empty()) {
    R.Error = "missing required field 'source'";
    return R;
  }
  setAnalysisAndRegisters(R, Analysis, Regs);
  return R;
}

/// The /remarks query as a compile request: the same fields, defaults and
/// rules as a /compile body, with booleans spelled 0/1 or false/true.
CompileRequest parseRemarksQuery(const HttpRequest &Req) {
  CompileRequest R;
  auto Bool = [&](const char *Name, bool Default) {
    std::string V = Req.queryParam(Name);
    if (V.empty())
      return Default;
    if (V == "1" || V == "true")
      return true;
    if (V != "0" && V != "false")
      R.Error = std::string("field '") + Name + "' must be 0, 1, false or true";
    return false;
  };
  R.Promote = Bool("promote", true);
  R.PointerPromotion = Bool("pointer_promotion", false);
  R.EnableOpts = Bool("opts", true);
  if (!R.Error.empty())
    return R;
  std::string Analysis = Req.queryParam("analysis");
  std::string RegsStr = Req.queryParam("registers");
  double Regs = 16;
  if (!RegsStr.empty()) {
    char *End = nullptr;
    Regs = std::strtod(RegsStr.c_str(), &End);
    if (*End)
      Regs = -1; // not a number: fails the range check
  }
  setAnalysisAndRegisters(R, Analysis.empty() ? "modref" : Analysis, Regs);
  return R;
}

CompilerConfig configFor(const CompileRequest &R) {
  CompilerConfig Cfg;
  Cfg.Analysis = R.Analysis;
  Cfg.ScalarPromotion = R.Promote;
  Cfg.PointerPromotion = R.PointerPromotion;
  Cfg.EnableOpts = R.EnableOpts;
  Cfg.NumRegisters = R.Registers;
  return Cfg;
}

const char *analysisName(AnalysisKind K) {
  return K == AnalysisKind::PointsTo ? "points-to" : "modref";
}

const char *cachedName(const ArtifactCache::Outcome &O) {
  if (O.Hit)
    return "hit";
  if (O.Coalesced)
    return "coalesced";
  if (O.Bypass)
    return "bypass";
  return "miss";
}

//===----------------------------------------------------------------------===//
// Response envelopes
//===----------------------------------------------------------------------===//
// Every JSON endpoint answers with one object carrying at least
// {"status": ...}; semantic failures (compile errors, sandbox verdicts)
// are HTTP 200 — the protocol worked, the program did not. 4xx is reserved
// for requests the server could not act on.

std::string jsonError(const std::string &Message) {
  return "{\"status\":\"error\",\"error\":\"" + jsonEscape(Message) + "\"}\n";
}

std::string httpJson(int Status, const std::string &Body, bool KeepAlive) {
  return httpResponse(Status, "application/json", Body, KeepAlive);
}

/// The /compile body: status, artifact provenance and the compiled
/// module's static figures.
std::string compileBody(const CompileRequest &R, const SuffixFacts &F,
                        const ArtifactCache::Outcome &How, double WallMs) {
  std::string B = "{\"status\":";
  if (F.Ok) {
    B += "\"ok\",\"key\":\"" + How.Key + "\"";
    B += ",\"cached\":\"" + std::string(cachedName(How)) + "\"";
    B += ",\"analysis\":\"" + std::string(analysisName(R.Analysis)) + "\"";
    B += ",\"static_ops\":" + std::to_string(F.StaticOps);
    B += ",\"promoted_tags\":" + std::to_string(F.Stats.Promo.PromotedTags);
    B += ",\"rewritten_ops\":" + std::to_string(F.Stats.Promo.RewrittenOps);
  } else {
    B += "\"error\",\"key\":\"" + How.Key + "\"";
    B += ",\"cached\":\"" + std::string(cachedName(How)) + "\"";
    B += ",\"error\":\"" + jsonEscape(F.Errors) + "\"";
  }
  char Wall[32];
  std::snprintf(Wall, sizeof(Wall), "%.3f", WallMs);
  B += ",\"wall_ms\":";
  B += Wall;
  B += "}\n";
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O) : Opts(std::move(O)), Cache(Opts.CacheBytes) {
  servedMetrics();
}

Server::~Server() {
  if (Pool)
    Pool->wait();
  for (auto &KV : Conns)
    ::close(KV.second->Fd);
  Conns.clear();
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (WakeR >= 0)
    ::close(WakeR);
  if (WakeW >= 0)
    ::close(WakeW);
}

Status Server::start() {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Status::error(std::string("socket: ") + std::strerror(errno));
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1)
    return Status::error("bad --host address: " + Opts.Host);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return Status::error(std::string("bind: ") + std::strerror(errno));
  if (::listen(ListenFd, 128) != 0)
    return Status::error(std::string("listen: ") + std::strerror(errno));
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return Status::error(std::string("getsockname: ") + std::strerror(errno));
  BoundPort = ntohs(Addr.sin_port);
  if (!setNonBlocking(ListenFd))
    return Status::error("could not make the listen socket non-blocking");

  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return Status::error(std::string("pipe: ") + std::strerror(errno));
  WakeR = Pipe[0];
  WakeW = Pipe[1];
  setNonBlocking(WakeR);
  setNonBlocking(WakeW);

  Pool = std::make_unique<ThreadPool>(Opts.Workers);
  StartMs = timingNowMs();
  return Status::ok();
}

void Server::requestShutdown() {
  // Async-signal-safe: one write. The loop reads 'S' and starts draining.
  // The pipe being full is fine — the loop is awake anyway.
  char S = 'S';
  [[maybe_unused]] ssize_t N = ::write(WakeW, &S, 1);
}

//===----------------------------------------------------------------------===//
// Connection plumbing (event-loop thread only, except complete())
//===----------------------------------------------------------------------===//

void Server::queueResponse(Conn &C, std::string Bytes, bool CloseAfter) {
  C.Out += Bytes;
  if (CloseAfter)
    C.CloseAfterWrite = true;
  C.LastActivityMs = timingNowMs();
}

void Server::closeConn(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  ::close(It->second->Fd);
  Conns.erase(It);
}

bool Server::flushWrites(uint64_t Id, Conn &C) {
  while (C.OutPos < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                       MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      C.LastActivityMs = timingNowMs();
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true; // wait for POLLOUT
    closeConn(Id); // peer is gone; drop the rest
    return false;
  }
  if (C.OutPos == C.Out.size() && !C.Out.empty()) {
    C.Out.clear();
    C.OutPos = 0;
    if (C.CloseAfterWrite) {
      closeConn(Id);
      return false;
    }
    // Response done: the buffered next pipelined request (if any) can
    // dispatch now.
    pumpParser(Id, C);
    return Conns.count(Id) != 0;
  }
  return true;
}

void Server::pumpParser(uint64_t Id, Conn &C) {
  // Dispatch as many buffered requests as the one-in-flight-per-connection
  // rule allows: stop as soon as a worker owns the request (Busy) or a
  // response is queued (Out non-empty — in-order pipelining means the next
  // request waits for the write).
  while (Conns.count(Id) && !C.Busy && C.Out.empty()) {
    HttpParser::State St = C.Parser.state();
    if (St == HttpParser::State::NeedMore)
      return;
    dispatch(Id, C); // consumes request(); workers get a copy
    if (!Conns.count(Id) || St == HttpParser::State::Error)
      return; // a protocol error ends the connection; nothing to reset
    C.Parser.reset();
  }
}

void Server::complete(uint64_t Id, std::string Response, bool CloseAfter) {
  {
    std::lock_guard<std::mutex> L(DoneMu);
    Done.emplace_back(Id, std::move(Response), CloseAfter);
  }
  char W = 'W';
  [[maybe_unused]] ssize_t N = ::write(WakeW, &W, 1);
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

void Server::dispatch(uint64_t Id, Conn &C) {
  ServedMetrics &SM = servedMetrics();

  if (C.Parser.state() == HttpParser::State::Error) {
    SM.HttpErrors.inc();
    int Status = C.Parser.errorStatus();
    queueResponse(C,
                  httpJson(Status, jsonError(C.Parser.errorReason()), false),
                  /*CloseAfter=*/true);
    return;
  }

  const HttpRequest &Req = C.Parser.request();
  bool KeepAlive = Req.KeepAlive;

  // Cheap, never-blocking endpoints answer inline on the loop thread.
  if (Req.Path == "/metrics" || Req.Path == "/healthz") {
    if (Req.Method != "GET") {
      SM.HttpErrors.inc();
      queueResponse(C, httpJson(405, jsonError("use GET"), KeepAlive),
                    !KeepAlive);
      return;
    }
    uint64_t T0 = metricsNowUs();
    std::string Body =
        Req.Path == "/metrics" ? handleMetrics(Req) : handleHealthz(Req);
    SM.RequestUs.observe(metricsNowUs() - T0);
    Served.fetch_add(1, std::memory_order_relaxed);
    queueResponse(C, Body, !KeepAlive);
    return;
  }

  // /remarks is a GET, but it runs the full optimization pipeline — it
  // goes to the pool with the POST endpoints rather than stalling the
  // loop thread for its duration.
  if (Req.Path == "/compile" || Req.Path == "/run" || Req.Path == "/suite" ||
      Req.Path == "/remarks") {
    const char *Method = Req.Path == "/remarks" ? "GET" : "POST";
    if (Req.Method != Method) {
      SM.HttpErrors.inc();
      queueResponse(
          C, httpJson(405, jsonError(std::string("use ") + Method), KeepAlive),
          !KeepAlive);
      return;
    }
    C.Busy = true;
    // The worker owns only value copies; the Conn may die before it runs.
    HttpRequest ReqCopy = Req;
    Pool->submit([this, Id, ReqCopy = std::move(ReqCopy), KeepAlive] {
      ServedMetrics &M = servedMetrics();
      uint64_t T0 = metricsNowUs();
      std::string Response;
      // A handler that throws (e.g. std::bad_alloc on a hostile source)
      // must not unwind through the pool thread; answer 500 and keep the
      // daemon serving.
      try {
        if (ReqCopy.Path == "/compile")
          Response = handleCompile(ReqCopy);
        else if (ReqCopy.Path == "/run")
          Response = handleRun(ReqCopy);
        else if (ReqCopy.Path == "/suite")
          Response = handleSuite(ReqCopy);
        else
          Response = handleRemarks(ReqCopy);
      } catch (const std::exception &E) {
        Response = httpJson(
            500, jsonError(std::string("internal error: ") + E.what()),
            KeepAlive);
      } catch (...) {
        Response = httpJson(500, jsonError("internal error"), KeepAlive);
      }
      M.RequestUs.observe(metricsNowUs() - T0);
      Served.fetch_add(1, std::memory_order_relaxed);
      complete(Id, std::move(Response), !KeepAlive);
    });
    return;
  }

  SM.HttpErrors.inc();
  queueResponse(C, httpJson(404, jsonError("no such endpoint"), KeepAlive),
                !KeepAlive);
}

//===----------------------------------------------------------------------===//
// Handlers
//===----------------------------------------------------------------------===//

std::string Server::handleCompile(const HttpRequest &Req) {
  servedMetrics().Requests("compile").inc();
  CompileRequest R = parseCompileRequest(Req.Body);
  if (!R.Error.empty())
    return httpJson(400, jsonError(R.Error), Req.KeepAlive);

  // Once the key's suffix slot is built, the reply comes from its facts:
  // no fork, no pass.
  double T0 = timingNowMs();
  ArtifactCache::Outcome How;
  SuffixFacts F = Cache.facts(R.Source, configFor(R), How);
  return httpJson(200, compileBody(R, F, How, timingNowMs() - T0),
                  Req.KeepAlive);
}

std::string Server::handleRun(const HttpRequest &Req) {
  servedMetrics().Requests("run").inc();
  CompileRequest R = parseCompileRequest(Req.Body);
  if (!R.Error.empty())
    return httpJson(400, jsonError(R.Error), Req.KeepAlive);

  // /run-only fields: engine, fault injection, step budget.
  JsonValue V;
  std::string JErr;
  parseJson(Req.Body, V, JErr); // already validated above
  std::string EngineName = V.strOr("engine", "", JErr);
  std::string InjectName = V.strOr("inject", "none", JErr);
  double MaxSteps = V.numOr("max_steps", 0, JErr);
  if (!JErr.empty())
    return httpJson(400, jsonError(JErr), Req.KeepAlive);
  // The >= 0 comparison also rejects NaN; 2^63 is exact in a double, and
  // anything at or above it would make the uint64_t cast undefined.
  if (!(MaxSteps >= 0) || MaxSteps != std::floor(MaxSteps) ||
      MaxSteps >= 9223372036854775808.0)
    return httpJson(
        400, jsonError("field 'max_steps' must be an integer in [0, 2^63)"),
        Req.KeepAlive);

  InterpOptions IO;
  IO.Engine = Opts.Engine;
  if (!EngineName.empty() && !parseInterpEngine(EngineName, IO.Engine))
    return httpJson(400, jsonError("unknown engine: " + EngineName),
                    Req.KeepAlive);
  if (IO.Engine == InterpEngine::Jit && !jitSupported())
    IO.Engine = InterpEngine::FastPath;
  if (MaxSteps > 0)
    IO.MaxSteps = static_cast<uint64_t>(MaxSteps);
  // The sandbox wall deadline is the authoritative budget; give the
  // interpreter a slightly tighter one so a pure compute loop usually
  // traps in-protocol instead of being SIGKILLed.
  if (Opts.RunLimits.WallSeconds > 0)
    IO.WallDeadlineMs = Opts.RunLimits.WallSeconds * 1000.0 * 0.8;

  WorkerFault Fault = WorkerFault::None;
  if (!parseWorkerFault(InjectName, Fault))
    return httpJson(400, jsonError("unknown inject fault: " + InjectName),
                    Req.KeepAlive);

  double T0 = timingNowMs();

  // Compile in the parent through the store, then execute in a sandboxed
  // child: the child inherits the compiled module copy-on-write and the
  // worst it can do is produce a classified verdict. A key whose facts
  // record an error answers from them; otherwise the store hands over the
  // live module, or rebuilds it.
  ArtifactCache::Outcome How;
  CompiledSuffix CO = Cache.compile(R.Source, configFor(R), How);
  const std::string &Key = How.Key;
  const char *Cached = cachedName(How);
  if (!CO.Facts.Ok) {
    std::string B = "{\"status\":\"error\",\"key\":\"" + Key +
                    "\",\"cached\":\"" + Cached + "\",\"error\":\"" +
                    jsonEscape(CO.Facts.Errors) + "\"}\n";
    return httpJson(200, B, Req.KeepAlive);
  }

  const Module &M = *CO.M;
  JobOptions JO;
  JO.Name = "run/" + Key.substr(0, 8);
  JO.Sandbox = true;
  JO.Limits = Opts.RunLimits;
  JO.Inject = Fault;
  SandboxResult SR = runJob(
      [&M, &IO](std::string &Payload) {
        ExecResult ER = interpret(M, IO);
        PayloadWriter W;
        W.u8(ER.Ok ? 1 : 0);
        W.str(ER.Error);
        W.i64(ER.ExitCode);
        W.str(ER.Output);
        W.u64(ER.Counters.Total);
        W.u64(ER.Counters.Loads);
        W.u64(ER.Counters.Stores);
        Payload = W.take();
        return true;
      },
      JO);

  std::string B = "{\"status\":\"" + std::string(sandboxStatusName(SR.Status)) +
                  "\",\"key\":\"" + Key + "\",\"cached\":\"" + Cached + "\"";
  if (SR.ok()) {
    PayloadReader Rd(SR.Payload);
    bool RunOk = Rd.u8() != 0;
    std::string RunErr = Rd.str();
    int64_t ExitCode = Rd.i64();
    std::string Output = Rd.str();
    uint64_t Total = Rd.u64(), Loads = Rd.u64(), Stores = Rd.u64();
    if (!Rd.complete()) {
      B = "{\"status\":\"internal-error\",\"key\":\"" + Key +
          "\",\"cached\":\"" + Cached +
          "\",\"error\":\"malformed child payload\"";
    } else if (!RunOk) {
      // Runtime fault inside the interpreter (null deref, step budget):
      // in-protocol, reported as a trap-like error.
      B = "{\"status\":\"trap\",\"key\":\"" + Key + "\",\"cached\":\"" +
          Cached + "\",\"error\":\"" + jsonEscape(RunErr) + "\"";
    } else {
      B += ",\"exit_code\":" + std::to_string(ExitCode);
      B += ",\"output\":\"" + jsonEscape(Output) + "\"";
      B += ",\"ops\":{\"total\":" + std::to_string(Total) +
           ",\"loads\":" + std::to_string(Loads) +
           ",\"stores\":" + std::to_string(Stores) + "}";
    }
  } else {
    B += ",\"error\":\"" + jsonEscape(SR.Error) + "\"";
    if (SR.Signal)
      B += ",\"signal\":" + std::to_string(SR.Signal);
  }
  char Wall[32];
  std::snprintf(Wall, sizeof(Wall), "%.3f", timingNowMs() - T0);
  B += ",\"wall_ms\":";
  B += Wall;
  B += "}\n";
  return httpJson(200, B, Req.KeepAlive);
}

std::string Server::handleSuite(const HttpRequest &Req) {
  servedMetrics().Requests("suite").inc();
  JsonValue V;
  std::string Err;
  if (!parseJson(Req.Body, V, Err))
    return httpJson(400, jsonError("malformed JSON body: " + Err),
                    Req.KeepAlive);
  if (V.K != JsonValue::Object)
    return httpJson(400, jsonError("request body must be a JSON object"),
                    Req.KeepAlive);
  const JsonValue *Programs = V.field("programs");
  if (!Programs || Programs->K != JsonValue::Array || Programs->Items.empty())
    return httpJson(400,
                    jsonError("field 'programs' must be a non-empty array"),
                    Req.KeepAlive);
  double Regs = V.numOr("registers", 16, Err);
  bool PtrPromo = V.boolOr("pointer_promotion", false, Err);
  if (!Err.empty())
    return httpJson(400, jsonError(Err), Req.KeepAlive);
  if (Regs < 4 || Regs > 1024 || Regs != std::floor(Regs))
    return httpJson(400,
                    jsonError("field 'registers' must be an integer in "
                              "[4, 1024]"),
                    Req.KeepAlive);

  // Each item is either a repo benchmark name ("clean") or an inline
  // {"name":..., "source":...} object.
  std::vector<std::pair<std::string, std::string>> Sources;
  for (const JsonValue &P : Programs->Items) {
    if (P.K == JsonValue::String) {
      // A name indexes the on-disk benchmark corpus, so only the exact
      // known set may reach the filesystem — anything else (notably '../'
      // traversal out of RPCC_PROGRAMS_DIR) is rejected before a path is
      // ever formed.
      const std::vector<std::string> &Known = benchProgramNames();
      if (std::find(Known.begin(), Known.end(), P.Str) == Known.end())
        return httpJson(400,
                        jsonError("unknown benchmark program: " + P.Str),
                        Req.KeepAlive);
      std::string Src;
      Status S = loadBenchProgram(P.Str, Src);
      if (!S)
        return httpJson(400, jsonError(S.message()), Req.KeepAlive);
      Sources.emplace_back(P.Str, std::move(Src));
    } else if (P.K == JsonValue::Object) {
      std::string PErr;
      std::string Name = P.strOr("name", "", PErr);
      std::string Src = P.strOr("source", "", PErr);
      if (!PErr.empty() || Name.empty() || Src.empty())
        return httpJson(
            400,
            jsonError("program entries need string 'name' and 'source'"),
            Req.KeepAlive);
      Sources.emplace_back(std::move(Name), std::move(Src));
    } else {
      return httpJson(400,
                      jsonError("program entries must be names or objects"),
                      Req.KeepAlive);
    }
  }

  SuiteOptions SO;
  SO.NumRegisters = static_cast<unsigned>(Regs);
  SO.PointerPromotion = PtrPromo;
  SO.Jobs = 1; // already on a pool worker
  SO.Sandbox = true;
  SO.Limits = Opts.RunLimits;
  SO.Interp.Engine = Opts.Engine;
  if (SO.Interp.Engine == InterpEngine::Jit && !jitSupported())
    SO.Interp.Engine = InterpEngine::FastPath;

  double T0 = timingNowMs();
  std::string B = "{\"status\":\"ok\",\"programs\":[";
  bool FirstProgram = true;
  for (const auto &NS : Sources) {
    ProgramResults PR = runAllConfigs(NS.first, NS.second, SO);
    if (!FirstProgram)
      B += ",";
    FirstProgram = false;
    B += "{\"name\":\"" + jsonEscape(PR.Name) + "\",\"cells\":[";
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P) {
        const ConfigCounts &CC = PR.R[A][P];
        if (A || P)
          B += ",";
        B += "{\"cell\":\"" + suiteCellName(A, P) + "\"";
        B += ",\"ok\":" + std::string(CC.Ok ? "true" : "false");
        B += ",\"child\":\"" +
             std::string(sandboxStatusName(CC.Child)) + "\"";
        if (CC.Ok) {
          B += ",\"total\":" + std::to_string(CC.Total);
          B += ",\"loads\":" + std::to_string(CC.Loads);
          B += ",\"stores\":" + std::to_string(CC.Stores);
          B += ",\"exit_code\":" + std::to_string(CC.ExitCode);
        } else {
          B += ",\"error\":\"" + jsonEscape(CC.Error) + "\"";
        }
        B += "}";
      }
    B += "]}";
  }
  char Wall[32];
  std::snprintf(Wall, sizeof(Wall), "%.3f", timingNowMs() - T0);
  B += "],\"wall_ms\":";
  B += Wall;
  B += "}\n";
  return httpJson(200, B, Req.KeepAlive);
}

std::string Server::handleRemarks(const HttpRequest &Req) {
  servedMetrics().Requests("remarks").inc();
  std::string Key = Req.queryParam("key");
  if (Key.empty())
    return httpJson(400, jsonError("missing ?key= query parameter"),
                    Req.KeepAlive);
  CompileRequest R = parseRemarksQuery(Req);
  if (!R.Error.empty())
    return httpJson(400, jsonError(R.Error), Req.KeepAlive);

  std::shared_ptr<ServedArtifact> Art = Cache.peek(Key);
  if (!Art)
    return httpJson(404, jsonError("no cached artifact for key " + Key),
                    Req.KeepAlive);
  // peek() does not build analyses; only report on what a /compile already
  // published (a kind still being built is not there yet).
  const AnalyzedModule *AM = Art->analyzed(R.Analysis);
  if (!AM || !AM->Ok)
    return httpJson(404,
                    jsonError("artifact has no successful " +
                              std::string(analysisName(R.Analysis)) +
                              " analysis"),
                    Req.KeepAlive);

  // A compile with remarks skips the suffix level: it runs privately.
  CompilerConfig Cfg = configFor(R);
  RemarkEngine RE;
  Cfg.Remarks = &RE;
  CompileOutput CO = compileSuffix(*AM, Cfg);
  if (!CO.Ok)
    return httpJson(200, jsonError(CO.Errors), Req.KeepAlive);
  return httpResponse(200, "application/x-ndjson",
                      RE.toJsonLines({{"key", Key}}), Req.KeepAlive);
}

std::string Server::handleMetrics(const HttpRequest &Req) {
  servedMetrics().Requests("metrics").inc();
  return httpResponse(200, "text/plain; version=0.0.4",
                      metricsToProm(MetricsRegistry::global().snapshot()),
                      Req.KeepAlive);
}

std::string Server::handleHealthz(const HttpRequest &Req) {
  servedMetrics().Requests("healthz").inc();
  char Up[32];
  std::snprintf(Up, sizeof(Up), "%.0f", timingNowMs() - StartMs);
  std::string B = "{\"status\":\"ok\",\"uptime_ms\":";
  B += Up;
  B += ",\"connections\":" + std::to_string(Conns.size());
  B += ",\"requests\":" + std::to_string(requestsServed());
  B += ",\"cache\":{\"entries\":" + std::to_string(Cache.entries());
  B += ",\"bytes\":" + std::to_string(Cache.bytes());
  B += ",\"hits\":" + std::to_string(Cache.hits());
  B += ",\"misses\":" + std::to_string(Cache.misses());
  B += ",\"evictions\":" + std::to_string(Cache.evictions());
  B += ",\"coalesced\":" + std::to_string(Cache.coalesced()) + "}}\n";
  return httpJson(200, B, Req.KeepAlive);
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

int Server::run() {
  bool Draining = false;
  double DrainDeadline = 0;

  for (;;) {
    // Assemble the poll set: wake pipe, listen socket (unless draining or
    // full), and every connection that wants reads or writes.
    std::vector<pollfd> Fds;
    std::vector<uint64_t> Ids; // parallel to Fds from index 1 or 2
    Fds.push_back({WakeR, POLLIN, 0});
    bool Accepting = !Draining && Conns.size() < Opts.MaxConnections;
    if (Accepting)
      Fds.push_back({ListenFd, POLLIN, 0});
    for (auto &KV : Conns) {
      Conn &C = *KV.second;
      short Events = 0;
      if (!C.Out.empty())
        Events |= POLLOUT;
      else if (!C.Busy)
        Events |= POLLIN;
      if (!Events)
        continue; // busy worker: ignore the socket until the response
      Fds.push_back({C.Fd, Events, 0});
      Ids.push_back(KV.first);
    }

    // Timeout: the earliest idle/drain deadline.
    double Now = timingNowMs();
    double NextDeadline = Draining ? DrainDeadline : Now + 60000.0;
    if (!Draining && Opts.IdleTimeoutSecs > 0)
      for (auto &KV : Conns)
        if (!KV.second->Busy)
          NextDeadline =
              std::min(NextDeadline, KV.second->LastActivityMs +
                                         Opts.IdleTimeoutSecs * 1000.0);
    double LeftMs = NextDeadline - Now;
    int Timeout = LeftMs <= 0 ? 0 : sandboxPollTimeoutMs(LeftMs);

    int NReady = ::poll(Fds.data(), Fds.size(), Timeout);
    if (NReady < 0 && errno != EINTR)
      return 1;

    // Self-pipe: worker completions and/or shutdown.
    if (Fds[0].revents & POLLIN) {
      char Buf[256];
      ssize_t N;
      while ((N = ::read(WakeR, Buf, sizeof(Buf))) > 0)
        for (ssize_t I = 0; I != N; ++I)
          if (Buf[I] == 'S')
            ShutdownFlag.store(true, std::memory_order_relaxed);
    }
    if (ShutdownFlag.load(std::memory_order_relaxed) && !Draining) {
      Draining = true;
      DrainDeadline = timingNowMs() + Opts.DrainSecs * 1000.0;
      if (ListenFd >= 0) {
        ::close(ListenFd);
        ListenFd = -1;
      }
    }

    // Drain finished work onto connections.
    for (;;) {
      std::tuple<uint64_t, std::string, bool> Item;
      {
        std::lock_guard<std::mutex> L(DoneMu);
        if (Done.empty())
          break;
        Item = std::move(Done.front());
        Done.pop_front();
      }
      auto It = Conns.find(std::get<0>(Item));
      if (It == Conns.end())
        continue; // client left before the answer was ready
      Conn &C = *It->second;
      C.Busy = false;
      queueResponse(C, std::move(std::get<1>(Item)), std::get<2>(Item));
      flushWrites(std::get<0>(Item), C);
    }

    // New connections.
    if (Accepting && Fds[1].revents & POLLIN) {
      for (;;) {
        int Fd = ::accept(ListenFd, nullptr, nullptr);
        if (Fd < 0)
          break;
        if (Conns.size() >= Opts.MaxConnections) {
          // Over the cap: answer 503 and close (blocking send is fine for
          // one small response on a fresh socket).
          std::string R = httpJson(503, jsonError("server at capacity"),
                                   false);
          ::send(Fd, R.data(), R.size(), MSG_NOSIGNAL);
          ::close(Fd);
          continue;
        }
        setNonBlocking(Fd);
        int One = 1;
        ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
        auto C = std::make_unique<Conn>(Opts.Limits);
        C->Fd = Fd;
        C->LastActivityMs = timingNowMs();
        Conns.emplace(NextId++, std::move(C));
      }
    }

    // Connection I/O.
    size_t Base = Accepting ? 2 : 1;
    for (size_t I = Base; I < Fds.size(); ++I) {
      uint64_t Id = Ids[I - Base];
      auto It = Conns.find(Id);
      if (It == Conns.end())
        continue;
      Conn &C = *It->second;
      if (Fds[I].revents & POLLOUT) {
        if (!flushWrites(Id, C))
          continue;
      }
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR)) {
        char Buf[16384];
        for (;;) {
          ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
          if (N > 0) {
            C.LastActivityMs = timingNowMs();
            C.Parser.feed(Buf, static_cast<size_t>(N));
            if (C.Parser.state() != HttpParser::State::NeedMore)
              break;
            continue;
          }
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          closeConn(Id); // EOF or hard error
          break;
        }
        if (!Conns.count(Id))
          continue;
        pumpParser(Id, C);
        if (Conns.count(Id))
          flushWrites(Id, C);
      }
    }

    // Idle deadlines (slow-loris and quiet keep-alives).
    if (!Draining && Opts.IdleTimeoutSecs > 0) {
      Now = timingNowMs();
      std::vector<uint64_t> Dead, Stale;
      for (auto &KV : Conns) {
        Conn &C = *KV.second;
        if (C.Busy || !C.Out.empty())
          continue;
        if (Now - C.LastActivityMs < Opts.IdleTimeoutSecs * 1000.0)
          continue;
        (C.Parser.idle() ? Dead : Stale).push_back(KV.first);
      }
      for (uint64_t Id : Dead)
        closeConn(Id); // between requests: close without ceremony
      for (uint64_t Id : Stale) {
        // Mid-request drip feed: tell the client why, then close.
        Conn &C = *Conns[Id];
        servedMetrics().HttpErrors.inc();
        queueResponse(C, httpJson(408, jsonError("request timed out"), false),
                      true);
        flushWrites(Id, C);
      }
    }

    if (Draining) {
      bool BusyWork = false;
      for (auto &KV : Conns)
        if (KV.second->Busy || !KV.second->Out.empty())
          BusyWork = true;
      {
        std::lock_guard<std::mutex> L(DoneMu);
        if (!Done.empty())
          BusyWork = true;
      }
      if (!BusyWork) {
        Pool->wait(); // no queued work is possible once nothing is Busy
        for (auto &KV : Conns)
          ::close(KV.second->Fd);
        Conns.clear();
        return 0;
      }
      if (timingNowMs() >= DrainDeadline) {
        for (auto &KV : Conns)
          ::close(KV.second->Fd);
        Conns.clear();
        return 1; // abandoned in-flight work at the deadline
      }
    }
  }
}
