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
#include "obs/Remark.h"
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
// The suffix level
//===----------------------------------------------------------------------===//

/// Population of the compile.suffix_us histogram: suffixes that ran.
uint64_t suffixRuns() {
  uint64_t Count = 0, Sum = 0;
  metricsHistTotals(MetricsRegistry::global().snapshot(), "compile.suffix_us",
                    Count, Sum);
  return Count;
}

TEST(SuffixLevelTest, IdentityClassesFollowTheAnalyzedModules) {
  // Points-to shares modref's slots exactly where the two analyzed modules
  // are identical: every benchmark program but bc and fft. Where they
  // differ, the points-to cell must get points-to's own module.
  const std::set<std::string> Separate = {"bc", "fft"};
  for (const std::string &Name : benchProgramNames()) {
    std::string Src = loadBenchProgram(Name);
    ArtifactCache Cache(ArtifactCache::Unbounded);
    for (bool Promote : {false, true}) {
      CompilerConfig Mod;
      Mod.ScalarPromotion = Promote;
      CompilerConfig Pt = Mod;
      Pt.Analysis = AnalysisKind::PointsTo;
      ArtifactCache::Outcome O;
      CompiledSuffix A = Cache.compile(Src, Mod, O);
      CompiledSuffix B = Cache.compile(Src, Pt, O);
      ASSERT_TRUE(A.Facts.Ok && B.Facts.Ok) << Name;
      CompileOutput Ref = compileProgram(Src, Pt);
      ASSERT_TRUE(Ref.Ok) << Name;
      EXPECT_TRUE(identicalModules(*B.M, *Ref.M)) << Name;
      if (Separate.count(Name)) {
        EXPECT_NE(A.M, B.M) << Name;
        EXPECT_FALSE(identicalModules(*A.M, *B.M)) << Name;
      } else {
        EXPECT_EQ(A.M, B.M) << Name;
      }
    }
  }
}

TEST(SuffixLevelTest, FactsMatchTheMonolithicPipeline) {
  // The 14 programs x the served grid (registers 8 and 16 x analysis x
  // promotion), asked twice: the first call builds each slot (or reuses
  // the other kind's), the second reads the facts alone.
  ArtifactCache Cache(ArtifactCache::Unbounded);
  for (const std::string &Name : benchProgramNames()) {
    std::string Src = loadBenchProgram(Name);
    for (unsigned Regs : {8u, 16u})
      for (AnalysisKind Kind : {AnalysisKind::ModRef, AnalysisKind::PointsTo})
        for (bool Promote : {false, true}) {
          CompilerConfig Cfg;
          Cfg.Analysis = Kind;
          Cfg.ScalarPromotion = Promote;
          Cfg.NumRegisters = Regs;
          CompileOutput Ref = compileProgram(Src, Cfg);
          ASSERT_TRUE(Ref.Ok) << Name;
          for (int Rep = 0; Rep != 2; ++Rep) {
            ArtifactCache::Outcome O;
            SuffixFacts F = Cache.facts(Src, Cfg, O);
            std::string Where = Name + " r" + std::to_string(Regs) +
                                (Kind == AnalysisKind::PointsTo ? " pt" : "") +
                                (Promote ? " promote" : "");
            ASSERT_TRUE(F.Ok) << Where << ": " << F.Errors;
            EXPECT_EQ(F.StaticOps, countStaticOps(*Ref.M)) << Where;
            const CompileStats &A = F.Stats, &B = Ref.Stats;
            EXPECT_EQ(A.Promo.PromotedTags, B.Promo.PromotedTags) << Where;
            EXPECT_EQ(A.Promo.RewrittenOps, B.Promo.RewrittenOps) << Where;
            EXPECT_EQ(A.Promo.LoadsInserted, B.Promo.LoadsInserted) << Where;
            EXPECT_EQ(A.Promo.StoresInserted, B.Promo.StoresInserted)
                << Where;
            EXPECT_EQ(A.RegAlloc.Rounds, B.RegAlloc.Rounds) << Where;
            EXPECT_EQ(A.RegAlloc.SpilledRegs, B.RegAlloc.SpilledRegs) << Where;
            EXPECT_EQ(A.RegAlloc.CoalescedCopies, B.RegAlloc.CoalescedCopies)
                << Where;
          }
        }
  }
  // 14 programs x 8 configs x 2 calls; 64 distinct suffix keys built.
  EXPECT_EQ(Cache.suffixHits(), 14u * 8 * 2 - 64);
}

TEST(SuffixLevelTest, ConcurrentCompilesOfOneKeyBuildOneSuffix) {
  ArtifactCache Cache(64u << 20);
  constexpr unsigned N = 8;
  uint64_t Runs0 = suffixRuns();
  std::atomic<unsigned> Ready{0};
  std::vector<CompiledSuffix> Got(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      Ready.fetch_add(1);
      while (Ready.load() != N)
        std::this_thread::yield();
      ArtifactCache::Outcome O;
      Got[I] = Cache.compile(kProgram, CompilerConfig(), O);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(suffixRuns() - Runs0, 1u);
  EXPECT_EQ(Cache.suffixHits(), N - 1);
  for (unsigned I = 0; I != N; ++I) {
    ASSERT_TRUE(Got[I].Facts.Ok) << Got[I].Facts.Errors;
    EXPECT_EQ(Got[I].M, Got[0].M);
  }
}

TEST(SuffixLevelTest, EvictionDropsTheArtifactsSlots) {
  // A budget that holds kProgram's prefix and one slot, and not a second
  // artifact beside it.
  size_t OneEntry;
  {
    ArtifactCache Probe(ArtifactCache::Unbounded);
    ArtifactCache::Outcome O;
    Probe.facts(kProgram, CompilerConfig(), O);
    OneEntry = Probe.bytes();
  }
  ArtifactCache Cache(OneEntry);
  ArtifactCache::Outcome O;
  uint64_t Runs0 = suffixRuns();
  EXPECT_TRUE(Cache.facts(kProgram, CompilerConfig(), O).Ok);
  EXPECT_TRUE(Cache.facts(kProgram, CompilerConfig(), O).Ok);
  EXPECT_EQ(suffixRuns() - Runs0, 1u);
  EXPECT_EQ(Cache.suffixHits(), 1u);
  EXPECT_TRUE(Cache.facts(kOtherProgram, CompilerConfig(), O).Ok);
  EXPECT_GE(Cache.evictions(), 1u);
  // kProgram's artifact, slot included, is gone: its suffix runs again.
  EXPECT_TRUE(Cache.facts(kProgram, CompilerConfig(), O).Ok);
  EXPECT_TRUE(O.Miss);
  EXPECT_EQ(suffixRuns() - Runs0, 3u);
  EXPECT_EQ(Cache.suffixHits(), 1u);
  EXPECT_LE(Cache.bytes(), OneEntry);
}

TEST(SuffixLevelTest, BudgetedSweepStaysWithinItsBudget) {
  // A client sweeping the register count makes a new key per call. Room
  // for ten slots beyond the prefix: ten keys get slots, every other call
  // compiles privately, and the store never passes its budget.
  size_t Prefix, OneSlot;
  {
    ArtifactCache Probe(ArtifactCache::Unbounded);
    ArtifactCache::Outcome O;
    Probe.get(kProgram, AnalysisKind::ModRef, O);
    Prefix = Probe.bytes();
    Probe.facts(kProgram, CompilerConfig(), O);
    OneSlot = Probe.bytes() - Prefix;
  }
  ASSERT_GT(OneSlot, 0u);
  const size_t Budget = Prefix + 10 * OneSlot;
  ArtifactCache Cache(Budget);
  for (int Pass = 0; Pass != 2; ++Pass)
    for (unsigned Regs = 4; Regs != 60; ++Regs) {
      CompilerConfig Cfg;
      Cfg.NumRegisters = Regs;
      ArtifactCache::Outcome O;
      SuffixFacts F = Cache.facts(kProgram, Cfg, O);
      EXPECT_TRUE(F.Ok) << F.Errors;
      EXPECT_EQ(F.StaticOps, countStaticOps(*compileProgram(kProgram, Cfg).M))
          << "registers=" << Regs;
      EXPECT_LE(Cache.bytes(), Budget) << "registers=" << Regs;
    }
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.suffixHits(), 10u);
}

TEST(SuffixLevelTest, RemarksAndHooksNeitherReadNorFillASlot) {
  // A loop over a global, so the promotion pass has something to remark.
  const char *kProgram = "int g;\n"
                         "int main() { int i;\n"
                         "  for (i = 0; i < 10; i++) g = g + i;\n"
                         "  return g; }\n";
  ArtifactCache Cache(ArtifactCache::Unbounded);
  ArtifactCache::Outcome O;
  uint64_t Runs0 = suffixRuns();
  RemarkEngine Re;
  CompilerConfig WithRemarks;
  WithRemarks.Remarks = &Re;
  CompilerConfig WithHook;
  WithHook.PostAnalysisHook = [](Module &) {};

  CompiledSuffix R1 = Cache.compile(kProgram, WithRemarks, O);
  // Nothing was filled: the plain call builds the slot.
  CompiledSuffix Plain = Cache.compile(kProgram, CompilerConfig(), O);
  EXPECT_EQ(suffixRuns() - Runs0, 2u);
  EXPECT_EQ(Cache.suffixHits(), 0u);
  // Nothing is read: with the slot's module live, both still compile.
  CompiledSuffix R2 = Cache.compile(kProgram, WithRemarks, O);
  CompiledSuffix H = Cache.compile(kProgram, WithHook, O);
  EXPECT_EQ(suffixRuns() - Runs0, 4u);
  EXPECT_EQ(Cache.suffixHits(), 0u);
  EXPECT_NE(R2.M, Plain.M);
  EXPECT_NE(H.M, Plain.M);
  EXPECT_FALSE(Re.toJsonLines({}).empty());
  // The slot itself still answers plain calls.
  EXPECT_EQ(Cache.compile(kProgram, CompilerConfig(), O).M, Plain.M);
  EXPECT_EQ(Cache.suffixHits(), 1u);
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

TEST_F(ServedSocketTest, RemarksHonourTheSuffixOptions) {
  // The remark stream depends on every suffix option (water's modref
  // stream has 130, 90 and 71 lines at K = 4, 8 and 16), so /remarks takes
  // /compile's options, defaults and validation.
  startServer(ServerOptions());
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  std::string Src = loadBenchProgram("water");
  std::string Key = ArtifactCache::contentKey(Src);
  ASSERT_TRUE(C.request("POST", "/compile",
                        "{\"source\":\"" + jsonEscape(Src) +
                            "\",\"registers\":8}",
                        R));
  ASSERT_EQ(R.Status, 200);
  AnalyzedModule AM =
      analyzeFrontend(runFrontend(Src), AnalysisKind::ModRef);
  auto Stream = [&](unsigned Regs, bool Opts, bool Ptr) {
    CompilerConfig Cfg;
    Cfg.NumRegisters = Regs;
    Cfg.EnableOpts = Opts;
    Cfg.PointerPromotion = Ptr;
    RemarkEngine RE;
    Cfg.Remarks = &RE;
    EXPECT_TRUE(compileSuffix(AM, Cfg).Ok);
    return RE.toJsonLines({{"key", Key}});
  };
  EXPECT_NE(Stream(8, true, false), Stream(16, true, false));
  struct {
    const char *Query;
    unsigned Regs;
    bool Opts, Ptr;
  } Cases[] = {{"", 16, true, false},
               {"&registers=8", 8, true, false},
               {"&opts=0", 16, false, false},
               {"&pointer_promotion=1", 16, true, true},
               {"&registers=4&opts=false&promote=true", 4, false, false}};
  for (const auto &Case : Cases) {
    ASSERT_TRUE(C.request("GET", "/remarks?key=" + Key + Case.Query, "", R));
    EXPECT_EQ(R.Status, 200) << Case.Query;
    EXPECT_EQ(R.Body, Stream(Case.Regs, Case.Opts, Case.Ptr)) << Case.Query;
  }
  for (const char *Bad : {"&registers=3", "&registers=1025", "&registers=8.5",
                          "&registers=abc", "&opts=maybe",
                          "&analysis=steensgaard"}) {
    ASSERT_TRUE(C.request("GET", "/remarks?key=" + Key + Bad, "", R));
    EXPECT_EQ(R.Status, 400) << Bad;
  }
}

TEST_F(ServedSocketTest, RemarksReadOnlyAPublishedAnalysis) {
  // /remarks for a kind that a concurrent /compile is still building must
  // not read the analyzed module mid-construction: it answers 404 until
  // the kind is published, then 200. The tsan CI job checks the reads.
  startServer(ServerOptions());
  std::string Src = loadBenchProgram("go");
  std::string Key = ArtifactCache::contentKey(Src);
  HttpClient C;
  ASSERT_TRUE(connectClient(C));
  HttpClientResponse R;
  ASSERT_TRUE(C.request("POST", "/compile", compileBody(Src), R));
  ASSERT_EQ(R.Status, 200);

  std::thread Compile([&] {
    HttpClient C2;
    HttpClientResponse R2;
    ASSERT_TRUE(C2.connect("127.0.0.1", Srv->boundPort()));
    ASSERT_TRUE(C2.request("POST", "/compile",
                           "{\"source\":\"" + jsonEscape(Src) +
                               "\",\"analysis\":\"points-to\"}",
                           R2));
    EXPECT_EQ(R2.Status, 200);
  });
  int Status = 0;
  for (int I = 0; I != 10000 && Status != 200; ++I) {
    ASSERT_TRUE(
        C.request("GET", "/remarks?key=" + Key + "&analysis=points-to", "", R));
    Status = R.Status;
    EXPECT_TRUE(Status == 200 || Status == 404) << Status;
  }
  Compile.join();
  EXPECT_EQ(Status, 200);
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
