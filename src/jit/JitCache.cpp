//===- jit/JitCache.cpp - Process-wide cache of compiled programs ---------===//
//
// Maps the *content* of a decoded module to its lazily-compiled JitProgram,
// so repeated executions of byte-identical programs — a suite program run
// again in the same process (one suite run already interprets cells with
// identical modules once), fuzz reruns, A/B legs — share machine code and
// stop paying emission cost. The key hashes everything the emitter can
// bake into code or branch on at compile time: every function's instruction
// stream and pools, the frame/register geometry, the global image *size*
// (addresses and bounds checks embed it), and the profiled flag (profiling
// changes emission). The global image *content* is deliberately excluded:
// emitted code reads the image through a JitRT cell at run time, so two
// Machines with different initialized data can share code safely.
//
// A cache hit is observationally identical to a fresh compile by
// construction — everything behavior-relevant is in the key — which is what
// --no-compile-cache exists to verify (it bypasses the cache, never changes
// results).
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "obs/Metrics.h"

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

using namespace rpcc;

namespace {

std::atomic<uint64_t> CacheHits{0};

#if RPCC_JIT_AVAILABLE

/// Two independent FNV-64 streams over the same bytes. A single 64-bit hash
/// as the whole key would make a collision silently execute the wrong
/// machine code; 128 independent bits push that out of reach, in the same
/// spirit as the prefix store's two-lane content key. The streams mix a
/// word at a time rather than a byte at a time: the key is recomputed on
/// every jit-engine run (the decoded module is rebuilt per run, so there is
/// nothing to memoize against), and a byte-serial multiply chain over the
/// whole instruction stream would dominate the wall time of short programs.
/// Each word is diffused before the multiply (xor-shift of the high bits)
/// so single-bit differences still avalanche across word lanes. Long runs
/// go through two interleaved lanes, each a full pair of streams, which
/// halves the serial multiply chain; the second lane folds back in as two
/// words.
struct Hash2 {
  uint64_t A = 0xcbf29ce484222325ull;
  uint64_t B = 0x84222325bd1e9955ull;

  static void mix(uint64_t &A, uint64_t &B, uint64_t W) {
    W ^= W >> 33;
    A = (A ^ W) * 0xff51afd7ed558ccdull;
    B = (B ^ W) * 0xc4ceb9fe1a85ec53ull;
  }
  void word(uint64_t W) { mix(A, B, W); }
  void bytes(const void *P, size_t N) {
    const uint8_t *C = static_cast<const uint8_t *>(P);
    uint64_t W, W2;
    if (N >= 16) {
      uint64_t A2 = ~A, B2 = ~B;
      for (; N >= 16; C += 16, N -= 16) {
        std::memcpy(&W, C, 8);
        std::memcpy(&W2, C + 8, 8);
        mix(A, B, W);
        mix(A2, B2, W2);
      }
      word(A2);
      word(B2);
    }
    if (N >= 8) {
      std::memcpy(&W, C, 8);
      word(W);
      C += 8;
      N -= 8;
    }
    if (N) {
      W = 0;
      std::memcpy(&W, C, N);
      word(W | (uint64_t(N) << 56));
    }
  }
  void u64(uint64_t V) { word(V); }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
};

std::pair<uint64_t, uint64_t> keyOf(const DecodedModule &DM,
                                    uint64_t GlobalSize, bool Profiled) {
  Hash2 H;
  // Version salt: bump when emission changes so stale processes (none today
  // — the cache is in-process — but the salt also separates this emitter
  // generation in any future on-disk variant) never mix streams.
  H.u64(0x52504A4954'0004ull); // "RPJIT" v4
  H.u64(GlobalSize);
  H.u64(Profiled);
  H.u64(DM.Funcs.size());
  for (const DecodedFunction &F : DM.Funcs) {
    // DecodedInst is a 32-byte standard-layout POD with no padding gaps
    // (static_asserted in Decode.h), so its raw bytes are a stable identity
    // for everything a template reads: opcodes, operands, immediates,
    // flags, branch targets.
    H.u64(F.Insts.size());
    H.bytes(F.Insts.data(), F.Insts.size() * sizeof(DecodedInst));
    H.u64(F.ProfSlots.size());
    H.bytes(F.ProfSlots.data(), F.ProfSlots.size() * sizeof(uint32_t));
    H.u64(F.ArgPool.size());
    H.bytes(F.ArgPool.data(), F.ArgPool.size() * sizeof(Reg));
    H.u64(F.FaultMsgs.size());
    for (const std::string &S : F.FaultMsgs)
      H.str(S);
    H.u64(F.ParamRegs.size());
    H.bytes(F.ParamRegs.data(), F.ParamRegs.size() * sizeof(Reg));
    H.u64(F.BlockStarts.size());
    H.bytes(F.BlockStarts.data(), F.BlockStarts.size() * sizeof(uint32_t));
    H.u64(F.NumRegs);
    H.u64(F.FrameSize);
    H.u64(F.Id);
    H.u64(static_cast<uint64_t>(F.Builtin));
    H.u64(F.HasBody);
  }
  return {H.A, H.B};
}

struct CacheState {
  std::mutex Mu;
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<JitProgram>> Map;
  /// Insertion order for FIFO eviction. The cap only bounds memory for
  /// pathological churn (a long fuzz campaign of distinct programs); the
  /// evicted program stays alive while any Machine still holds it.
  std::deque<std::pair<uint64_t, uint64_t>> Order;
};

CacheState &cache() {
  static CacheState S;
  return S;
}

constexpr size_t CacheCap = 256;

Counter &cacheHitCounter() {
  // Scheduling decides which concurrent run populates an entry and which
  // one hits, and FIFO eviction under churn makes totals order-dependent —
  // a hit/miss split, Volatile like the compile cache's.
  static Counter C = MetricsRegistry::global().counter(
      "jit.cache_hits", {}, MetricStability::Volatile, "ops",
      "Native-code cache hits (program-level, keyed on decoded stream).");
  return C;
}

#endif // RPCC_JIT_AVAILABLE

} // namespace

uint64_t rpcc::jitCacheHits() {
  return CacheHits.load(std::memory_order_relaxed);
}

std::shared_ptr<JitProgram> rpcc::jitProgramFor(const DecodedModule &DM,
                                                uint64_t GlobalSize,
                                                bool Profiled, bool UseCache) {
#if RPCC_JIT_AVAILABLE
  if (!UseCache)
    return std::make_shared<JitProgram>(DM.Funcs.size(), GlobalSize, Profiled);
  const auto Key = keyOf(DM, GlobalSize, Profiled);
  CacheState &S = cache();
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    CacheHits.fetch_add(1, std::memory_order_relaxed);
    cacheHitCounter().inc();
    return It->second;
  }
  auto P = std::make_shared<JitProgram>(DM.Funcs.size(), GlobalSize, Profiled);
  S.Map.emplace(Key, P);
  S.Order.push_back(Key);
  while (S.Order.size() > CacheCap) {
    S.Map.erase(S.Order.front());
    S.Order.pop_front();
  }
  return P;
#else
  (void)DM;
  (void)GlobalSize;
  (void)Profiled;
  (void)UseCache;
  return nullptr;
#endif
}
