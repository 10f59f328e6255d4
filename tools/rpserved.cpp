//===- tools/rpserved.cpp - Compile-as-a-service daemon -------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rpserved entry point: parse flags, bind, print the one line scripts
/// wait for ("rpserved: listening on HOST:PORT"), install the signal
/// handlers, run the event loop, flush metrics, exit 0 on a clean drain.
/// Everything interesting lives in src/served/Server.h — this file only
/// owns process concerns (flags, signals, exit codes), per the repo rule
/// that only tools/ may decide when the process dies.
///
//===----------------------------------------------------------------------===//

#include "served/Server.h"

#include "driver/PassTiming.h"
#include "interp/Interpreter.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include <csignal>

using namespace rpcc;

namespace {

void printUsage() {
  std::fputs(
      "usage: rpserved [options]\n"
      "\n"
      "Compile-as-a-service daemon: POST MiniC source, get JSON back.\n"
      "Endpoints: POST /compile /run /suite, GET /remarks /metrics /healthz\n"
      "(see docs/SERVING.md for bodies and envelopes).\n"
      "\n"
      "options:\n"
      "  --host=ADDR          bind address (default 127.0.0.1)\n"
      "  --port=N             TCP port; 0 picks an ephemeral port and\n"
      "                       prints it (default 0)\n"
      "  --cache-mb=N         bound on the estimated resident MB of\n"
      "                       cached prefixes (default 64)\n"
      "  --workers=N          request worker threads (default 4)\n"
      "  --max-connections=N  open-socket cap (default 256)\n"
      "  --idle-timeout=SECS  close idle/slow connections (default 30)\n"
      "  --drain=SECS         graceful-shutdown deadline (default 5)\n"
      "  --max-body-mb=N      reject request bodies over N MB (default 4)\n"
      "  --sandbox-wall=SECS  wall cap for /run and /suite children\n"
      "                       (default 10)\n"
      "  --sandbox-mem=MB     memory cap for /run and /suite children\n"
      "                       (default 512)\n"
      "  --engine=E           default execute engine: switch | fastpath |\n"
      "                       jit (default fastpath)\n"
      "  --metrics-json=FILE  write the metrics JSON snapshot on exit\n"
      "  --heartbeat=SECS     progress line on stderr every SECS\n"
      "  --help               this text\n"
      "\n"
      "SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight\n"
      "requests under --drain, flush --metrics-json, exit 0.\n"
      "\n"
      "exit codes: 0 clean drain, 1 drain deadline abandoned work,\n"
      "2 usage error, 3 bad option value, 4 could not bind\n",
      stderr);
}

bool parseUnsigned(const char *S, unsigned &Out) {
  if (!*S)
    return false;
  uint64_t V = 0;
  for (; *S; ++S) {
    if (*S < '0' || *S > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(*S - '0');
    if (V > 0xFFFFFFFFull)
      return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

int matchValueFlag(int argc, char **argv, int &I, const char *Name,
                   std::string &Val) {
  const char *A = argv[I];
  size_t N = std::strlen(Name);
  if (std::strncmp(A, Name, N) != 0)
    return 0;
  if (A[N] == '=') {
    Val = A + N + 1;
    return Val.empty() ? -1 : 1;
  }
  if (A[N] == '\0') {
    if (I + 1 >= argc)
      return -1;
    Val = argv[++I];
    return 1;
  }
  return 0;
}

/// The one Server the signal handlers reach. Handlers only call
/// requestShutdown(), which is a single write(2).
Server *GlobalServer = nullptr;

void onSignal(int) {
  if (GlobalServer)
    GlobalServer->requestShutdown();
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  Opts.Port = 0;
  unsigned CacheMb = 64, BodyMb = 4, WallSecs = 10, MemMb = 512;
  unsigned HeartbeatSecs = 0;
  std::string MetricsJsonFile;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    std::string Val;
    int VF;
    auto BadValue = [&](const char *Flag) {
      std::fprintf(stderr, "rpserved: bad value for %s\n", Flag);
      return 3;
    };
    if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      printUsage();
      return 0;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--host", Val)) != 0) {
      if (VF < 0)
        return BadValue("--host");
      Opts.Host = Val;
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--port", Val)) != 0) {
      unsigned Port;
      if (VF < 0 || !parseUnsigned(Val.c_str(), Port) || Port > 65535)
        return BadValue("--port");
      Opts.Port = static_cast<uint16_t>(Port);
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--cache-mb", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), CacheMb) || CacheMb == 0)
        return BadValue("--cache-mb");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--workers", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), Opts.Workers) ||
          Opts.Workers == 0 || Opts.Workers > 256)
        return BadValue("--workers");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--max-connections", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), Opts.MaxConnections) ||
          Opts.MaxConnections == 0)
        return BadValue("--max-connections");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--idle-timeout", Val)) != 0) {
      unsigned Secs;
      if (VF < 0 || !parseUnsigned(Val.c_str(), Secs))
        return BadValue("--idle-timeout");
      Opts.IdleTimeoutSecs = Secs; // 0 disables
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--drain", Val)) != 0) {
      unsigned Secs;
      if (VF < 0 || !parseUnsigned(Val.c_str(), Secs) || Secs == 0)
        return BadValue("--drain");
      Opts.DrainSecs = Secs;
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--max-body-mb", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), BodyMb) || BodyMb == 0 ||
          BodyMb > 1024)
        return BadValue("--max-body-mb");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--sandbox-wall", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), WallSecs) || WallSecs == 0)
        return BadValue("--sandbox-wall");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--sandbox-mem", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), MemMb) || MemMb == 0)
        return BadValue("--sandbox-mem");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--engine", Val)) != 0) {
      if (VF < 0 || !parseInterpEngine(Val, Opts.Engine))
        return BadValue("--engine");
      if (Opts.Engine == InterpEngine::Jit && !jitSupported()) {
        std::fprintf(stderr,
                     "rpserved: --engine=jit is unsupported in this build\n");
        return 3;
      }
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--metrics-json", Val)) != 0) {
      if (VF < 0)
        return BadValue("--metrics-json");
      MetricsJsonFile = Val;
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--heartbeat", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), HeartbeatSecs) ||
          HeartbeatSecs == 0)
        return BadValue("--heartbeat");
      continue;
    }
    std::fprintf(stderr, "rpserved: unknown option '%s'\n", A);
    printUsage();
    return 2;
  }

  Opts.CacheBytes = static_cast<size_t>(CacheMb) << 20;
  Opts.Limits.MaxBodyBytes = static_cast<size_t>(BodyMb) << 20;
  Opts.RunLimits.WallSeconds = WallSecs;
  Opts.RunLimits.MemoryBytes = static_cast<uint64_t>(MemMb) << 20;

  double StartMs = timingNowMs();
  Server Srv(Opts);
  Status S = Srv.start();
  if (!S) {
    std::fprintf(stderr, "rpserved: %s\n", S.message().c_str());
    return 4;
  }

  GlobalServer = &Srv;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);

  // The line scripts (ServedSmoke.cmake, rploadgen callers) wait for; the
  // flush matters — the port is ephemeral by default.
  std::printf("rpserved: listening on %s:%u\n", Opts.Host.c_str(),
              static_cast<unsigned>(Srv.boundPort()));
  std::fflush(stdout);

  std::unique_ptr<Heartbeat> HB;
  if (HeartbeatSecs > 0)
    HB = std::make_unique<Heartbeat>(HeartbeatSecs, "rpserved");

  int Rc = Srv.run();
  if (HB)
    HB->stop();
  GlobalServer = nullptr;

  if (!MetricsJsonFile.empty()) {
    std::string Json = metricsToJson(MetricsRegistry::global().snapshot(),
                                     timingNowMs() - StartMs);
    std::ofstream Out(MetricsJsonFile, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "rpserved: cannot write %s\n",
                   MetricsJsonFile.c_str());
      return 4;
    }
    Out << Json;
  }

  std::fprintf(stderr, "rpserved: drained, served %llu requests\n",
               static_cast<unsigned long long>(Srv.requestsServed()));
  return Rc;
}
