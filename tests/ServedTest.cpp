//===- tests/ServedTest.cpp - Serving stack unit + socket tests -----------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
// Three layers of the rpserved stack, cheapest first: the HttpParser state
// machine against hostile and split byte streams, the prefix store
// (ArtifactCache) under concurrency, and the full Server over real loopback
// sockets — including slow-loris idle timeouts, pipelined keep-alive, and
// graceful drain with a request still in flight. The fork-audit regressions
// at the end pin the properties a long-lived forking daemon depends on:
// crash classification must stay exact while other threads fork
// concurrently (the result-pipe write end must not leak into sibling
// children), and the process-wide metrics registry must stay usable inside
// a sandboxed child.
//
//===----------------------------------------------------------------------===//

#include "served/ArtifactCache.h"
#include "served/Http.h"
#include "served/HttpClient.h"
#include "served/Server.h"

#include "driver/JobRunner.h"
#include "driver/SuiteRunner.h"
#include "interp/Interpreter.h"
#include "obs/Metrics.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include "gtest/gtest.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

// The byte-charge test reads glibc's heap counters; a sanitizer that owns
// malloc leaves them meaningless.
#if defined(__GLIBC__) && !defined(RPCC_SANITIZER_BUILD) &&                  \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define RPCC_HAVE_MALLINFO2 1
#endif

using namespace rpcc;

namespace {

//===----------------------------------------------------------------------===//
// HttpParser
//===----------------------------------------------------------------------===//

HttpParser::State feedAll(HttpParser &P, const std::string &Bytes) {
  return P.feed(Bytes.data(), Bytes.size());
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser P;
  EXPECT_TRUE(P.idle());
  ASSERT_EQ(feedAll(P, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpParser::State::Complete);
  EXPECT_EQ(P.request().Method, "GET");
  EXPECT_EQ(P.request().Path, "/healthz");
  EXPECT_TRUE(P.request().KeepAlive);
}

TEST(HttpParserTest, ByteAtATimeParsesIdentically) {
  std::string Req = "POST /compile HTTP/1.1\r\nContent-Length: 4\r\n"
                    "Connection: close\r\n\r\nbody";
  HttpParser P;
  for (size_t I = 0; I != Req.size(); ++I) {
    HttpParser::State St = P.feed(&Req[I], 1);
    if (I + 1 < Req.size()) {
      ASSERT_EQ(St, HttpParser::State::NeedMore) << "at byte " << I;
    }
    EXPECT_FALSE(P.idle()); // a partial request is not an idle connection
  }
  ASSERT_EQ(P.state(), HttpParser::State::Complete);
  EXPECT_EQ(P.request().Body, "body");
  EXPECT_FALSE(P.request().KeepAlive);
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  HttpParser P;
  ASSERT_EQ(feedAll(P, "BANANA\r\n\r\n"), HttpParser::State::Error);
  EXPECT_EQ(P.errorStatus(), 400);
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  HttpParser P;
  ASSERT_EQ(feedAll(P, "GET / HTTP/2.0\r\n\r\n"), HttpParser::State::Error);
  EXPECT_EQ(P.errorStatus(), 505);
}

TEST(HttpParserTest, PostWithoutLengthIs411) {
  HttpParser P;
  ASSERT_EQ(feedAll(P, "POST /compile HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpParser::State::Error);
  EXPECT_EQ(P.errorStatus(), 411);
}

TEST(HttpParserTest, OversizedDeclaredBodyIs413BeforeAnyBodyByte) {
  HttpLimits L;
  L.MaxBodyBytes = 16;
  HttpParser P(L);
  // The rejection must come from the declaration alone — no body follows.
  ASSERT_EQ(feedAll(P, "POST /compile HTTP/1.1\r\nContent-Length: 17\r\n\r\n"),
            HttpParser::State::Error);
  EXPECT_EQ(P.errorStatus(), 413);
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpLimits L;
  L.MaxHeaderBytes = 128;
  HttpParser P(L);
  std::string Req = "GET / HTTP/1.1\r\nX-Pad: " + std::string(256, 'a');
  ASSERT_EQ(feedAll(P, Req), HttpParser::State::Error);
  EXPECT_EQ(P.errorStatus(), 431);
}

TEST(HttpParserTest, TransferEncodingIs501) {
  HttpParser P;
  ASSERT_EQ(feedAll(P, "POST /compile HTTP/1.1\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n"),
            HttpParser::State::Error);
  EXPECT_EQ(P.errorStatus(), 501);
}

TEST(HttpParserTest, QueryParamsSplitFromPath) {
  HttpParser P;
  ASSERT_EQ(feedAll(P, "GET /remarks?key=ab12&analysis=points-to "
                       "HTTP/1.1\r\n\r\n"),
            HttpParser::State::Complete);
  EXPECT_EQ(P.request().Path, "/remarks");
  EXPECT_EQ(P.request().queryParam("key"), "ab12");
  EXPECT_EQ(P.request().queryParam("analysis"), "points-to");
  EXPECT_EQ(P.request().queryParam("absent"), "");
}

TEST(HttpParserTest, PipelinedRequestsSurviveReset) {
  HttpParser P;
  ASSERT_EQ(feedAll(P, "GET /healthz HTTP/1.1\r\n\r\n"
                       "GET /metrics HTTP/1.1\r\n\r\n"),
            HttpParser::State::Complete);
  EXPECT_EQ(P.request().Path, "/healthz");
  // reset() must re-parse the buffered second request to completion.
  ASSERT_EQ(P.reset(), HttpParser::State::Complete);
  EXPECT_EQ(P.request().Path, "/metrics");
  EXPECT_EQ(P.reset(), HttpParser::State::NeedMore);
  EXPECT_TRUE(P.idle());
}

TEST(JsonParseTest, RejectsEscapedNul) {
  // A \u0000 escape would decode to an embedded NUL that truncates C-string
  // uses downstream (the /suite path-traversal probe); it is a parse error.
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("{\"name\":\"a\\u0000b\"}", V, Err));
  EXPECT_NE(Err.find("u0000"), std::string::npos);
  // Other BMP escapes still decode.
  ASSERT_TRUE(parseJson("{\"name\":\"a\\u0041b\"}", V, Err)) << Err;
  EXPECT_EQ(V.strOr("name", "", Err), "aAb");
}

//===----------------------------------------------------------------------===//
// ArtifactCache
//===----------------------------------------------------------------------===//

const char *kProgram = "int g;\n"
                       "int main() { g = 41; g = g + 1; return g; }\n";
const char *kOtherProgram = "int main() { return 7; }\n";
const char *kBrokenProgram = "int main() { return undeclared_name; }\n";

TEST(ArtifactCacheTest, MissThenHitSharesOneArtifact) {
  ArtifactCache Cache(64u << 20);
  ArtifactCache::Outcome O1, O2;
  auto A1 = Cache.get(kProgram, AnalysisKind::ModRef, O1);
  auto A2 = Cache.get(kProgram, AnalysisKind::ModRef, O2);
  ASSERT_TRUE(A1 && A2);
  EXPECT_TRUE(O1.Miss);
  EXPECT_TRUE(O2.Hit);
  EXPECT_EQ(A1.get(), A2.get());
  EXPECT_TRUE(A1->FA.Ok);
  EXPECT_TRUE(A1->AM[0].Ok);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_GT(Cache.bytes(), 0u);
}

TEST(ArtifactCacheTest, SecondAnalysisKindBuildsLazilyOnTheSameEntry) {
  ArtifactCache Cache(64u << 20);
  ArtifactCache::Outcome O;
  auto A1 = Cache.get(kProgram, AnalysisKind::ModRef, O);
  size_t BytesAfterFirst = Cache.bytes();
  auto A2 = Cache.get(kProgram, AnalysisKind::PointsTo, O);
  // Same artifact, but this call ran the points-to analysis: a miss.
  EXPECT_TRUE(O.Miss);
  EXPECT_EQ(A1.get(), A2.get());
  EXPECT_TRUE(A2->AM[1].Ok);
  EXPECT_EQ(Cache.entries(), 1u);
  // The second analyzed module recharges the entry.
  EXPECT_GE(Cache.bytes(), BytesAfterFirst);
}

TEST(ArtifactCacheTest, CompileErrorsAreCachedToo) {
  ArtifactCache Cache(64u << 20);
  ArtifactCache::Outcome O1, O2;
  auto A1 = Cache.get(kBrokenProgram, AnalysisKind::ModRef, O1);
  auto A2 = Cache.get(kBrokenProgram, AnalysisKind::ModRef, O2);
  ASSERT_TRUE(A1);
  EXPECT_FALSE(A1->FA.Ok);
  EXPECT_FALSE(A1->AM[0].Ok);
  EXPECT_TRUE(O1.Miss);
  EXPECT_TRUE(O2.Hit); // the deterministic error is served from cache
  EXPECT_EQ(A1.get(), A2.get());
}

TEST(ArtifactCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // A 1-byte budget cannot hold any completed entry, so every insert
  // evicts everything except the entry being inserted (Keep).
  ArtifactCache Cache(1);
  ArtifactCache::Outcome O;
  auto A = Cache.get(kProgram, AnalysisKind::ModRef, O);
  EXPECT_EQ(Cache.entries(), 1u); // Keep is never evicted on its own insert
  Cache.get(kOtherProgram, AnalysisKind::ModRef, O);
  EXPECT_TRUE(O.Miss);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_GE(Cache.evictions(), 1u);
  // The evicted artifact is still alive through our shared_ptr.
  EXPECT_TRUE(A->FA.Ok);
  // ... and re-requesting it is a miss, not a hit.
  Cache.get(kProgram, AnalysisKind::ModRef, O);
  EXPECT_TRUE(O.Miss);
}

TEST(ArtifactCacheTest, PeekNeitherCountsNorCreates) {
  ArtifactCache Cache(64u << 20);
  std::string Key = ArtifactCache::contentKey(kProgram);
  EXPECT_EQ(Cache.peek(Key), nullptr);
  ArtifactCache::Outcome O;
  auto A = Cache.get(kProgram, AnalysisKind::ModRef, O);
  EXPECT_EQ(Cache.peek(Key).get(), A.get());
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(ArtifactCacheTest, ConcurrentGetsCoalesceToOneBuild) {
  ArtifactCache Cache(64u << 20);
  constexpr unsigned N = 8;
  std::vector<std::thread> Threads;
  std::vector<std::shared_ptr<ServedArtifact>> Arts(N);
  std::atomic<unsigned> Misses{0}, Coalesced{0}, Hits{0};
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      ArtifactCache::Outcome O;
      Arts[I] = Cache.get(kProgram, AnalysisKind::PointsTo, O);
      if (O.Miss)
        Misses.fetch_add(1);
      if (O.Coalesced)
        Coalesced.fetch_add(1);
      if (O.Hit)
        Hits.fetch_add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  // Exactly one thread built; everyone else coalesced onto it or hit the
  // published entry, and all share the same artifact.
  EXPECT_EQ(Misses.load(), 1u);
  EXPECT_EQ(Misses.load() + Coalesced.load() + Hits.load(), N);
  for (unsigned I = 1; I != N; ++I)
    EXPECT_EQ(Arts[I].get(), Arts[0].get());
  EXPECT_EQ(Cache.entries(), 1u);
}

TEST(ArtifactCacheTest, ConcurrentGetsOfBothKindsMissOncePerAnalysis) {
  // Half the callers want each analysis. The builder runs the frontend and
  // its own analysis; exactly one other caller runs the second analysis.
  // Both are misses, whoever waited first; everyone else built nothing.
  ArtifactCache Cache(64u << 20);
  constexpr unsigned N = 8;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Misses{0}, Others{0};
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      ArtifactCache::Outcome O;
      Cache.get(kProgram,
                I % 2 ? AnalysisKind::PointsTo : AnalysisKind::ModRef, O);
      EXPECT_EQ(O.Hit + O.Miss + O.Coalesced + O.Bypass, 1);
      (O.Miss ? Misses : Others).fetch_add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Misses.load(), 2u);
  EXPECT_EQ(Others.load(), N - 2);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(ArtifactCacheTest, ByteChargeMatchesMeasuredAllocation) {
#ifndef RPCC_HAVE_MALLINFO2
  GTEST_SKIP() << "needs glibc's mallinfo2 and an uninstrumented malloc";
#else
  // The 14 benchmark programs' prefixes (frontend plus both analyses),
  // built on this thread: the budget's estimate must track what the heap
  // really holds for them.
  std::vector<std::string> Sources;
  for (const std::string &Name : benchProgramNames())
    Sources.push_back(loadBenchProgram(Name));
  auto HeapInUse = [] {
    struct mallinfo2 MI = mallinfo2();
    return static_cast<double>(MI.uordblks + MI.hblkhd);
  };
  ArtifactCache Cache(ArtifactCache::Unbounded);
  ArtifactCache::Outcome O;
  Cache.get(kProgram, AnalysisKind::ModRef, O); // one-time registrations
  double Charged0 = static_cast<double>(Cache.bytes());
  double Heap0 = HeapInUse();
  for (const std::string &Src : Sources) {
    Cache.get(Src, AnalysisKind::ModRef, O);
    Cache.get(Src, AnalysisKind::PointsTo, O);
  }
  double Allocated = HeapInUse() - Heap0;
  double Charged = static_cast<double>(Cache.bytes()) - Charged0;
  ASSERT_GT(Allocated, 0);
  EXPECT_GE(Charged / Allocated, 0.5)
      << "charged " << Charged << " B for " << Allocated << " B allocated";
  EXPECT_LE(Charged / Allocated, 2.0)
      << "charged " << Charged << " B for " << Allocated << " B allocated";
#endif
}

TEST(ArtifactCacheTest, DestroyedStoreWithdrawsItsGauges) {
  auto Gauges = [] {
    std::vector<MetricSample> S = MetricsRegistry::global().snapshot();
    return std::make_pair(metricsValue(S, "cache.bytes"),
                          metricsValue(S, "cache.entries"));
  };
  auto Before = Gauges();
  {
    ArtifactCache Cache(64u << 20);
    ArtifactCache::Outcome O;
    Cache.get(kProgram, AnalysisKind::ModRef, O);
    Cache.get(kOtherProgram, AnalysisKind::PointsTo, O);
    auto During = Gauges();
    EXPECT_EQ(During.first - Before.first,
              static_cast<int64_t>(Cache.bytes()));
    EXPECT_EQ(During.second - Before.second, 2);
  }
  EXPECT_EQ(Gauges(), Before);
}

//===----------------------------------------------------------------------===//
// Server over real sockets
//===----------------------------------------------------------------------===//

/// Starts an in-process Server on an ephemeral port and runs its event
/// loop on a background thread; the destructor drains it and checks the
/// clean-exit code.
class ServedSocketTest : public ::testing::Test {
protected:
  void startServer(ServerOptions SO) {
    Srv = std::make_unique<Server>(std::move(SO));
    Status St = Srv->start();
    ASSERT_TRUE(St) << St.message();
    Loop = std::thread([this] { ExitCode = Srv->run(); });
  }

  void drain() {
    if (!Loop.joinable())
      return;
    Srv->requestShutdown();
    Loop.join();
    EXPECT_EQ(ExitCode, 0);
  }

  void TearDown() override { drain(); }

  Status connectClient(HttpClient &C) {
    return C.connect("127.0.0.1", Srv->boundPort());
  }

  static std::string compileBody(const std::string &Source) {
    return "{\"source\":\"" + jsonEscape(Source) + "\"}";
  }

  std::unique_ptr<Server> Srv;
  std::thread Loop;
  int ExitCode = -1;
};

TEST_F(ServedSocketTest, HealthzCompileAndCacheProvenance) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));

  HttpClientResponse R;
  ASSERT_TRUE(C.request("GET", "/healthz", "", R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"ok\""), std::string::npos);

  ASSERT_TRUE(C.request("POST", "/compile", compileBody(kProgram), R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(R.Body.find("\"cached\":\"miss\""), std::string::npos);

  ASSERT_TRUE(C.request("POST", "/compile", compileBody(kProgram), R));
  EXPECT_NE(R.Body.find("\"cached\":\"hit\""), std::string::npos);

  // A compile error is an HTTP 200 with an error envelope — the protocol
  // worked, the program did not.
  ASSERT_TRUE(C.request("POST", "/compile", compileBody(kBrokenProgram), R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"error\""), std::string::npos);
}

// The frontend runs in-process on a worker thread, so source nesting is an
// attack on the daemon's stack: it must end in an error envelope, and the
// daemon must still answer afterwards.
TEST_F(ServedSocketTest, DeeplyNestedSourceIsAnErrorEnvelope) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  const std::string Src = "int main(){return " + std::string(20000, '(') +
                          "1" + std::string(20000, ')') + ";}";
  HttpClientResponse R;
  ASSERT_TRUE(C.request("POST", "/compile", compileBody(Src), R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(R.Body.find("nesting too deep"), std::string::npos) << R.Body;
  ASSERT_TRUE(C.request("GET", "/healthz", "", R));
  EXPECT_EQ(R.Status, 200);
}

// Literals past what their type holds are diagnosed by the lexer; a
// conversion that threw would surface as an HTTP 500 internal error.
TEST_F(ServedSocketTest, OutOfRangeLiteralsAreErrorEnvelopes) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  const std::pair<const char *, const char *> Cases[] = {
      {"int main(){return 99999999999999999999;}",
       "integer literal out of range"},
      {"int main(){float f; f = 1e999; return 0;}",
       "floating literal out of range"},
  };
  HttpClientResponse R;
  for (const auto &[Src, Diag] : Cases) {
    ASSERT_TRUE(C.request("POST", "/compile", compileBody(Src), R));
    EXPECT_EQ(R.Status, 200) << Src;
    EXPECT_NE(R.Body.find("\"status\":\"error\""), std::string::npos)
        << R.Body;
    EXPECT_NE(R.Body.find(Diag), std::string::npos) << R.Body;
  }
  ASSERT_TRUE(C.request("GET", "/healthz", "", R));
  EXPECT_EQ(R.Status, 200);
}

TEST_F(ServedSocketTest, RoutingErrors) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  ASSERT_TRUE(C.request("GET", "/nope", "", R));
  EXPECT_EQ(R.Status, 404);
  ASSERT_TRUE(C.request("POST", "/metrics", "{}", R));
  EXPECT_EQ(R.Status, 405);
  ASSERT_TRUE(C.request("GET", "/compile", "", R));
  EXPECT_EQ(R.Status, 405);
  ASSERT_TRUE(C.request("POST", "/compile", "{not json", R));
  EXPECT_EQ(R.Status, 400);
}

TEST_F(ServedSocketTest, SuiteRejectsNamesOutsideTheBenchmarkCorpus) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  // A name is only ever an index into benchProgramNames(); a traversal
  // probe must be rejected before any filesystem path is formed.
  ASSERT_TRUE(C.request("POST", "/suite",
                        "{\"programs\":[\"../../../../etc/passwd\"]}", R));
  EXPECT_EQ(R.Status, 400);
  ASSERT_TRUE(C.request("POST", "/suite", "{\"programs\":[\"nonesuch\"]}", R));
  EXPECT_EQ(R.Status, 400);
  // An embedded-NUL probe dies earlier, at the JSON layer.
  ASSERT_TRUE(
      C.request("POST", "/suite", "{\"programs\":[\"clean\\u0000\"]}", R));
  EXPECT_EQ(R.Status, 400);
}

TEST_F(ServedSocketTest, RunRejectsOutOfRangeMaxSteps) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  std::string Prog = "int main() { return 0; }\n";
  // Values the uint64_t cast cannot represent are a 400, not UB.
  ASSERT_TRUE(C.request("POST", "/run",
                        "{\"source\":\"" + jsonEscape(Prog) +
                            "\",\"max_steps\":1e300}",
                        R));
  EXPECT_EQ(R.Status, 400);
  ASSERT_TRUE(C.request("POST", "/run",
                        "{\"source\":\"" + jsonEscape(Prog) +
                            "\",\"max_steps\":1.5}",
                        R));
  EXPECT_EQ(R.Status, 400);
  ASSERT_TRUE(C.request("POST", "/run",
                        "{\"source\":\"" + jsonEscape(Prog) +
                            "\",\"max_steps\":100000}",
                        R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(ServedSocketTest, RemarksForCachedKeyAndMethodDiscipline) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  ASSERT_TRUE(C.request("POST", "/compile", compileBody(kProgram), R));
  ASSERT_EQ(R.Status, 200);
  // /remarks now runs on the worker pool; it must still serve the cached
  // artifact and keep 404/405 discipline.
  std::string Key = ArtifactCache::contentKey(kProgram);
  ASSERT_TRUE(C.request("GET", "/remarks?key=" + Key, "", R));
  EXPECT_EQ(R.Status, 200);
  ASSERT_TRUE(C.request("POST", "/remarks?key=" + Key, "{}", R));
  EXPECT_EQ(R.Status, 405);
  ASSERT_TRUE(C.request("GET", "/remarks?key=deadbeef", "", R));
  EXPECT_EQ(R.Status, 404);
}

TEST_F(ServedSocketTest, MalformedRequestLineGets400AndClose) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  ASSERT_TRUE(C.raw("BANANA\r\n\r\n", R));
  EXPECT_EQ(R.Status, 400);
  EXPECT_TRUE(R.Closed);
}

TEST_F(ServedSocketTest, OversizedBodyGets413) {
  ServerOptions SO;
  SO.Limits.MaxBodyBytes = 1024;
  startServer(SO);
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  ASSERT_TRUE(C.request("POST", "/compile", std::string(2048, 'x'), R));
  EXPECT_EQ(R.Status, 413);
}

TEST_F(ServedSocketTest, SlowLorisGets408AfterIdleTimeout) {
  ServerOptions SO;
  SO.IdleTimeoutSecs = 0.3;
  startServer(SO);
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  // A partial request line, then silence: the server must answer 408 and
  // close rather than hold the parser state forever.
  ASSERT_TRUE(C.raw("GET /heal", R));
  EXPECT_EQ(R.Status, 408);
  EXPECT_TRUE(R.Closed);
}

TEST_F(ServedSocketTest, PipelinedKeepAliveAnswersInOrder) {
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R1, R2;
  // Both requests in one write; responses must come back in order on the
  // same connection.
  ASSERT_TRUE(C.raw("GET /healthz HTTP/1.1\r\n\r\n"
                    "GET /metrics HTTP/1.1\r\n\r\n",
                    R1));
  EXPECT_EQ(R1.Status, 200);
  EXPECT_NE(R1.Body.find("\"status\":\"ok\""), std::string::npos);
  ASSERT_TRUE(C.raw("", R2));
  EXPECT_EQ(R2.Status, 200);
  EXPECT_NE(R2.Body.find("rpcc_"), std::string::npos);
}

TEST_F(ServedSocketTest, RunExecutesInSandboxAndClassifiesFaults) {
  ServerOptions SO;
  SO.RunLimits.WallSeconds = 2.0;
  startServer(SO);
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  std::string Prog = "int main() { print_int(42); return 0; }\n";
  ASSERT_TRUE(C.request("POST", "/run", compileBody(Prog), R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(R.Body.find("\"exit_code\":0"), std::string::npos);
  EXPECT_NE(R.Body.find("42"), std::string::npos);

  // An injected crash in the child comes back as a classified envelope;
  // the daemon itself must keep serving afterwards.
  std::string Body = "{\"source\":\"" + jsonEscape(Prog) +
                     "\",\"inject\":\"crash\"}";
  ASSERT_TRUE(C.request("POST", "/run", Body, R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"crash\""), std::string::npos);
  ASSERT_TRUE(C.request("GET", "/healthz", "", R));
  EXPECT_EQ(R.Status, 200);
}

TEST_F(ServedSocketTest, GracefulDrainFinishesInflightRequests) {
  ServerOptions SO;
  SO.RunLimits.WallSeconds = 1.0;
  SO.DrainSecs = 10.0;
  startServer(SO);

  // A request that takes ~1s (injected hang, killed by the sandbox wall),
  // with shutdown requested while it is still in flight: the drain must
  // deliver the response and run() must still exit 0.
  std::string Body = "{\"source\":\"int main() { return 0; }\\n\","
                     "\"inject\":\"hang\"}";
  HttpClientResponse R;
  Status ReqStatus = Status::ok();
  std::thread Client([&] {
    HttpClient C;
    Status S = connectClient(C);
    if (!S) {
      ReqStatus = S;
      return;
    }
    ReqStatus = C.request("POST", "/run", Body, R);
  });
  // Give the request time to reach a worker, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Srv->requestShutdown();
  Loop.join();
  Client.join();
  EXPECT_EQ(ExitCode, 0);
  ASSERT_TRUE(ReqStatus) << ReqStatus.message();
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"status\":\"timeout\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fork-audit regressions
//===----------------------------------------------------------------------===//

TEST(ForkAuditTest, CrashClassificationIsExactUnderConcurrentForks) {
  // Regression for the result-pipe fd leak: when several threads fork
  // sandboxed children concurrently, a child forked inside another
  // thread's pipe()/fork() window used to inherit that pipe's write end,
  // so a crashed sibling's EOF was delayed until the (hanging) child died
  // and the crash was misclassified as a wall-deadline timeout. With the
  // fork window serialized, classification is exact even with hangs
  // saturating the wall clock.
  constexpr unsigned NCrash = 4, NHang = 4;
  std::vector<std::thread> Threads;
  std::vector<SandboxStatus> CrashStatus(NCrash);
  std::vector<SandboxStatus> HangStatus(NHang);
  auto Job = [](std::string &) { return true; };
  for (unsigned I = 0; I != NCrash + NHang; ++I)
    Threads.emplace_back([&, I] {
      JobOptions JO;
      JO.Name = "forkaudit";
      JO.Sandbox = true;
      JO.Limits.WallSeconds = 2.0;
      JO.Inject = I < NCrash ? WorkerFault::Crash : WorkerFault::Hang;
      SandboxResult R = runJob(Job, JO);
      if (I < NCrash)
        CrashStatus[I] = R.Status;
      else
        HangStatus[I - NCrash] = R.Status;
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned I = 0; I != NCrash; ++I)
    EXPECT_EQ(CrashStatus[I], SandboxStatus::Crash) << "crash job " << I;
  for (unsigned I = 0; I != NHang; ++I)
    EXPECT_EQ(HangStatus[I], SandboxStatus::Timeout) << "hang job " << I;
}

TEST(ForkAuditTest, MetricsRegistryUsableInsideSandboxedChild) {
  // The process-wide registry must survive fork: a child that registers
  // and bumps metrics (every handler does, via servedMetrics()) must not
  // deadlock on a lock the fork snapshotted mid-held or crash on shared
  // state.
  JobOptions JO;
  JO.Name = "forkaudit-metrics";
  JO.Sandbox = true;
  JO.Limits.WallSeconds = 5.0;
  SandboxResult R = runJob(
      [](std::string &Payload) {
        Counter C = MetricsRegistry::global().counter(
            "test.forked_child", {}, MetricStability::Volatile, "ops",
            "fork-audit probe");
        C.inc();
        std::vector<MetricSample> S = MetricsRegistry::global().snapshot();
        Payload = std::to_string(S.size());
        return !S.empty();
      },
      JO);
  ASSERT_EQ(R.Status, SandboxStatus::Ok) << R.Error;
  EXPECT_FALSE(R.Payload.empty());
}

TEST(ForkAuditTest, JitCodeCacheWarmedInParentServesForkedChildren) {
  if (!jitSupported())
    GTEST_SKIP() << "no jit on this host/build";
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::PointsTo;
  CompileOutput CO = compileProgram(
      "int main() { print_int(7); return 0; }\n", Cfg);
  ASSERT_TRUE(CO.Ok) << CO.Errors;
  const Module &M = *CO.M;

  InterpOptions IO;
  IO.Engine = InterpEngine::Jit;
  // Warm the process-wide jit code cache in the parent...
  ExecResult Warm = interpret(M, IO);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;

  // ... then execute the same module in sandboxed children concurrently;
  // each must produce the same output whether it hits the inherited cache
  // or compiles privately.
  constexpr unsigned N = 4;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&] {
      JobOptions JO;
      JO.Name = "forkaudit-jit";
      JO.Sandbox = true;
      JO.Limits.WallSeconds = 5.0;
      SandboxResult R = runJob(
          [&M, &IO](std::string &Payload) {
            ExecResult ER = interpret(M, IO);
            Payload = ER.Output;
            return ER.Ok;
          },
          JO);
      if (R.Status != SandboxStatus::Ok || R.Payload != Warm.Output)
        Failures.fetch_add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

} // namespace
