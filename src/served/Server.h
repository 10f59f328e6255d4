//===- served/Server.h - The rpserved daemon core ---------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-as-a-service event loop: one poll(2)-driven thread owns every
/// socket, a ThreadPool runs the compile/execute work, and a self-pipe
/// carries worker completions and the (async-signal-safe) shutdown request
/// back into poll. No connection ever blocks the loop — reads are
/// non-blocking and parsed incrementally (served/Http.h), writes buffer and
/// drain under POLLOUT, and slow clients hit an idle deadline instead of
/// holding a worker.
///
/// Endpoints (all bodies and responses are JSON; see docs/SERVING.md):
///
///   POST /compile  compile source through the staged pipeline, sharing the
///                  frontend+analysis prefix via the coalescing LRU
///                  ArtifactCache
///   POST /run      compile (cached) then execute in a sandboxed child —
///                  a crashing, hanging, or OOMing program becomes a
///                  classified JSON reply, never a dead daemon
///   POST /suite    the paper's 2x2 configuration matrix over one or more
///                  programs, cells sandboxed
///   GET  /remarks  optimization remarks for a cached artifact, re-deriving
///                  the suffix with a RemarkEngine attached
///   GET  /metrics  Prometheus text exposition of the process registry
///   GET  /healthz  liveness plus cache occupancy
///
/// Graceful shutdown: requestShutdown() (callable from a signal handler)
/// makes the loop close the listen socket, finish every in-flight request
/// and response write under ServerOptions::DrainSecs, then return 0. The
/// deadline converts a wedged client into a bounded delay, not a hung
/// daemon.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SERVED_SERVER_H
#define RPCC_SERVED_SERVER_H

#include "served/ArtifactCache.h"
#include "served/Http.h"
#include "support/Sandbox.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include "interp/Interpreter.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

namespace rpcc {

struct ServerOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0; ///< 0 = ephemeral; boundPort() reports the real one
  /// Artifact cache byte budget (--cache-mb).
  size_t CacheBytes = 64u << 20;
  /// Worker threads for request bodies; the event loop itself is one more.
  unsigned Workers = 4;
  /// Close connections that sit idle this long; a connection with a
  /// partial request gets 408, a quiet keep-alive closes silently.
  double IdleTimeoutSecs = 30.0;
  /// Graceful-shutdown deadline: in-flight work past it is abandoned.
  double DrainSecs = 5.0;
  /// Most sockets held open at once; accepts beyond it wait in the backlog.
  unsigned MaxConnections = 256;
  HttpLimits Limits;
  /// Resource caps for the sandboxed /run and /suite children.
  SandboxLimits RunLimits;
  /// Execute-engine for /run when the request does not choose one.
  InterpEngine Engine = DefaultInterpEngine;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens. On success boundPort() is the real port (useful
  /// with Port = 0).
  Status start();

  uint16_t boundPort() const { return BoundPort; }

  /// Runs the event loop until requestShutdown(), then drains. Returns 0
  /// after a clean drain, 1 when the drain deadline abandoned work.
  int run();

  /// Flags the loop to drain and exit. Async-signal-safe (one write(2) to
  /// the self-pipe); safe to call from any thread, any number of times.
  void requestShutdown();

  ArtifactCache &cache() { return Cache; }

  /// Requests fully answered so far (tests poll this).
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

private:
  struct Conn {
    int Fd = -1;
    HttpParser Parser;
    std::string Out;      ///< pending response bytes
    size_t OutPos = 0;
    bool Busy = false;    ///< a worker owns the current request
    bool CloseAfterWrite = false;
    double LastActivityMs = 0;
    Conn(HttpLimits L) : Parser(L) {}
  };

  /// Routes one complete request. Cheap GETs answer inline; compile work
  /// goes to the pool and completes through the self-pipe.
  void dispatch(uint64_t Id, Conn &C);

  /// Queues \p Response on connection \p Id (worker thread side).
  void complete(uint64_t Id, std::string Response, bool CloseAfter);

  void queueResponse(Conn &C, std::string Bytes, bool CloseAfter);
  void closeConn(uint64_t Id);
  bool flushWrites(uint64_t Id, Conn &C); ///< false when the conn died
  void pumpParser(uint64_t Id, Conn &C);  ///< dispatch/reset until NeedMore

  // Request handlers, run on pool workers (or inline). Each returns the
  // full HTTP response bytes.
  std::string handleCompile(const HttpRequest &Req);
  std::string handleRun(const HttpRequest &Req);
  std::string handleSuite(const HttpRequest &Req);
  std::string handleRemarks(const HttpRequest &Req);
  std::string handleMetrics(const HttpRequest &Req);
  std::string handleHealthz(const HttpRequest &Req);

  ServerOptions Opts;
  ArtifactCache Cache;
  std::unique_ptr<ThreadPool> Pool;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  int WakeR = -1, WakeW = -1; ///< self-pipe: 'W' completion, 'S' shutdown
  double StartMs = 0;

  uint64_t NextId = 1;
  std::map<uint64_t, std::unique_ptr<Conn>> Conns;

  std::mutex DoneMu;
  std::deque<std::tuple<uint64_t, std::string, bool>> Done;

  std::atomic<uint64_t> Served{0};
  std::atomic<bool> ShutdownFlag{false};
};

} // namespace rpcc

#endif // RPCC_SERVED_SERVER_H
