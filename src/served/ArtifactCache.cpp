//===- served/ArtifactCache.cpp - The content-keyed stage store -----------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "served/ArtifactCache.h"

#include "driver/PassTiming.h"
#include "obs/Metrics.h"

#include <cassert>

using namespace rpcc;

namespace {

/// The store's metric handles, registered once. Prefix outcome splits are
/// Volatile: which of N racing callers pays the miss is a scheduling
/// accident. Suffix hits are Stable: a key builds once, so in the suite and
/// the fuzzer (which keep their modules live) the count is deterministic.
/// The stage latencies (compile.*_us) are observed by the stages
/// themselves (driver/Compiler.cpp).
struct StoreMetrics {
  Counter Hits, Misses, Coalesced, Bypass, Evictions, SuffixHits;
  Gauge Bytes, Entries, Inflight;
  StoreMetrics() {
    auto &R = MetricsRegistry::global();
    auto Ops = [&](const char *Name, const char *Help) {
      return R.counter(Name, {}, MetricStability::Volatile, "ops", Help);
    };
    Hits = Ops("cache.hits", "Prefix store calls that built nothing.");
    Misses = Ops("cache.misses",
                 "Prefix store calls that ran the frontend or an analysis.");
    Coalesced = Ops("cache.coalesced",
                    "Calls that waited on another call's frontend build.");
    Bypass = Ops("cache.bypass",
                 "Content-key collisions compiled privately, uncached.");
    Evictions = Ops("cache.evictions",
                    "Whole artifacts evicted to respect the byte budget.");
    SuffixHits = R.counter("cache.suffix_hits", {}, MetricStability::Stable,
                           "ops",
                           "Compiles answered from a suffix slot (facts or a "
                           "live module) without running the suffix.");
    Bytes = R.gauge("cache.bytes", {}, MetricStability::Volatile, "bytes",
                    "Estimated resident bytes of cached prefixes and "
                    "suffix slots.");
    Entries = R.gauge("cache.entries", {}, MetricStability::Volatile, "ops",
                      "Artifacts resident in prefix stores.");
    Inflight = R.gauge("cache.inflight", {}, MetricStability::Volatile,
                       "ops", "Frontend builds currently in flight.");
  }
};

StoreMetrics &storeMetrics() {
  static StoreMetrics M;
  return M;
}

size_t kindIndex(AnalysisKind Kind) {
  return Kind == AnalysisKind::PointsTo ? 1 : 0;
}

/// Estimated resident footprint of one artifact stage: the module's static
/// op count times a per-op constant covering the instruction, its operand
/// vectors, and its share of the blocks, functions, tag tables and layout
/// the module holds. Calibrated against glibc's heap counters: the 14
/// benchmark programs' prefixes (14,286 ops over the frontend and both
/// analyzed modules) hold 4.15 MB, 286 B per op once the sources and entry
/// overheads are taken out. ServedTest's ByteChargeMatchesMeasuredAllocation
/// keeps the estimate within 2x of that measurement.
constexpr size_t kBytesPerOp = 288;
constexpr size_t kEntryOverhead = 512;
/// One suffix slot: its key, facts, lock and weak module handle, plus the
/// map node and allocator header around them. The module it shares is
/// never charged: the store does not own it.
constexpr size_t kSlotBytes =
    sizeof(std::pair<const std::pair<size_t, SuffixOptions>, SuffixSlot>) +
    64;

size_t moduleBytes(const std::unique_ptr<Module> &M) {
  return M ? static_cast<size_t>(countStaticOps(*M)) * kBytesPerOp : 0;
}

size_t artifactBytes(const ServedArtifact &Art) {
  size_t N = kEntryOverhead + Art.Source.size() + Art.FA.Errors.size() +
             moduleBytes(Art.FA.M);
  for (const AnalyzedModule &AM : Art.AM)
    N += AM.Errors.size() + moduleBytes(AM.M);
  return N;
}

/// Names a suffix key in trace labels ("promote/r16", "no-promote/no-opts/
/// classic/r8"): a slot build is labelled by what it builds, not by the
/// caller that happened to build it.
std::string suffixLabel(const SuffixOptions &S) {
  std::string L = S.ScalarPromotion ? "promote" : "no-promote";
  if (S.PointerPromotion)
    L += "+ptr";
  if (!S.EnableOpts)
    L += "/no-opts";
  if (S.ClassicAllocator)
    L += "/classic";
  L += S.RegisterAllocation ? "/r" + std::to_string(S.NumRegisters)
                            : "/no-regalloc";
  if (S.Promo.StoreOnlyIfModified)
    L += "/store-if-modified";
  if (S.Promo.MaxPromotedPerLoop)
    L += "/cap" + std::to_string(S.Promo.MaxPromotedPerLoop);
  return L;
}

} // namespace

CompiledSuffix::CompiledSuffix(CompileOutput &&CO) {
  Facts.Ok = CO.Ok;
  Facts.Errors = std::move(CO.Errors);
  Facts.Stats = CO.Stats;
  if (CO.Ok && CO.M) {
    Facts.StaticOps = countStaticOps(*CO.M);
    M = std::move(CO.M);
  }
  Timing = std::move(CO.Timing);
}

const AnalyzedModule *ServedArtifact::analyzed(AnalysisKind Kind) const {
  size_t Idx = kindIndex(Kind);
  return Published[Idx].load(std::memory_order_acquire) ? &AM[Idx] : nullptr;
}

std::string ArtifactCache::contentKey(const std::string &Source) {
  // Two independent FNV-1a lanes (different offset bases, the second lane
  // also folds in the length) give a 128-bit key. Collisions are handled —
  // get() compares sources — so the hash only needs to be uniform, not
  // cryptographic.
  uint64_t A = 1469598103934665603ull;
  uint64_t B = 0x9ae16a3b2f90404full ^ (0x9ddfea08eb382d69ull *
                                        (uint64_t)Source.size());
  for (unsigned char C : Source) {
    A = (A ^ C) * 1099511628211ull;
    B = (B ^ (C + 0x9eu)) * 1099511628211ull;
  }
  static const char *Hex = "0123456789abcdef";
  std::string Key(32, '0');
  for (int I = 0; I != 16; ++I) {
    Key[15 - I] = Hex[(A >> (I * 4)) & 0xF];
    Key[31 - I] = Hex[(B >> (I * 4)) & 0xF];
  }
  return Key;
}

ArtifactCache::ArtifactCache(size_t BudgetBytes) : Budget(BudgetBytes) {
  storeMetrics(); // register gauges before the first scrape
}

ArtifactCache::~ArtifactCache() {
  StoreMetrics &SM = storeMetrics();
  SM.Bytes.add(-PubBytes);
  SM.Entries.add(-PubEntries);
  SM.Inflight.add(-PubInflight);
}

size_t ArtifactCache::bytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return BytesUsed;
}

size_t ArtifactCache::entries() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

std::shared_ptr<ServedArtifact> ArtifactCache::peek(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key);
  return It == Map.end() ? nullptr : It->second.Art;
}

void ArtifactCache::evictOverBudgetLocked(const std::string &Keep) {
  while (BytesUsed > Budget && !Lru.empty()) {
    const std::string &Victim = Lru.back();
    if (Victim == Keep)
      break; // never evict the entry this request needs
    auto It = Map.find(Victim);
    assert(It != Map.end() && "LRU list out of sync with map");
    size_t Charged = It->second.Art->Charged.load(std::memory_order_relaxed);
    BytesUsed -= Charged < BytesUsed ? Charged : BytesUsed;
    Map.erase(It);
    Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
    storeMetrics().Evictions.inc();
  }
  publishGaugesLocked();
}

void ArtifactCache::publishGaugesLocked() {
  StoreMetrics &SM = storeMetrics();
  int64_t B = static_cast<int64_t>(BytesUsed);
  int64_t E = static_cast<int64_t>(Map.size());
  int64_t I = static_cast<int64_t>(Building.size());
  SM.Bytes.add(B - PubBytes);
  SM.Entries.add(E - PubEntries);
  SM.Inflight.add(I - PubInflight);
  PubBytes = B;
  PubEntries = E;
  PubInflight = I;
}

void ArtifactCache::count(const Outcome &Out) {
  StoreMetrics &SM = storeMetrics();
  if (Out.Miss) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    SM.Misses.inc();
  } else if (Out.Coalesced) {
    Coalesced.fetch_add(1, std::memory_order_relaxed);
    SM.Coalesced.inc();
  } else if (Out.Bypass) {
    SM.Bypass.inc();
  } else {
    Hits.fetch_add(1, std::memory_order_relaxed);
    SM.Hits.inc();
  }
}

void ArtifactCache::chargeLocked(const std::shared_ptr<ServedArtifact> &Art,
                                 size_t Bytes) {
  Art->Charged.fetch_add(Bytes, std::memory_order_relaxed);
  // Identity check, not just key presence: a collision-bypass artifact
  // shares its key with a different resident entry, and its private growth
  // must not be charged to (and never released from) the cache budget.
  auto It = Map.find(Art->Key);
  if (It == Map.end() || It->second.Art != Art)
    return;
  BytesUsed += Bytes;
  evictOverBudgetLocked(Art->Key);
}

bool ArtifactCache::ensureAnalyzed(const std::shared_ptr<ServedArtifact> &Art,
                                   AnalysisKind Kind,
                                   const StageOptions &Stages) {
  size_t Idx = kindIndex(Kind);
  bool Ran = false;
  std::call_once(Art->AnalyzedOnce[Idx], [&] {
    Ran = true;
    AnalyzedModule &AM = Art->AM[Idx];
    if (Art->FA.Ok) {
      StageOptions SO = Stages;
      if (SO.Trace)
        SO.TraceLabel += Idx ? "/points-to" : "/modref";
      AM = analyzeFrontend(Art->FA, Kind, SO);
    } else {
      // Frontend already failed; stamp the analysis stage with the same
      // errors so callers can consult AM[Kind] uniformly.
      AM.Ok = false;
      AM.Errors = Art->FA.Errors;
    }
    // The identity class. Only a second kind finds the other published: a
    // published artifact holds its builder's analysis complete, so this
    // never compares against a module under construction, at any --jobs.
    size_t Other = 1 - Idx;
    if (AM.Ok && Art->Published[Other].load(std::memory_order_acquire) &&
        Art->AM[Other].Ok && identicalModules(*Art->AM[Other].M, *AM.M))
      Art->SlotClass[Idx] = Art->SlotClass[Other];
    Art->Published[Idx].store(true, std::memory_order_release);
    // Charge the stage that just materialized (the second analysis kind
    // typically arrives after insertion).
    std::lock_guard<std::mutex> L(Mu);
    chargeLocked(Art, AM.Errors.size() + moduleBytes(AM.M));
  });
  return Ran;
}

std::shared_ptr<ServedArtifact>
ArtifactCache::get(const std::string &Source, AnalysisKind Kind,
                   Outcome &Out, const StageOptions &Stages) {
  Out = Outcome();
  Out.Key = contentKey(Source);
  const std::string &Key = Out.Key;

  std::shared_ptr<ServedArtifact> Art;
  std::shared_ptr<Inflight> Inf;
  bool Builder = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      // A resident entry with other bytes is a 128-bit collision: leave it
      // undisturbed and compile privately below.
      if (It->second.Art->Source == Source) {
        Lru.splice(Lru.begin(), Lru, It->second.LruIt); // now MRU
        Art = It->second.Art;
      } else {
        Out.Bypass = true;
      }
    } else if (auto BIt = Building.find(Key); BIt != Building.end()) {
      Inf = BIt->second;
    } else {
      Inf = std::make_shared<Inflight>();
      Building.emplace(Key, Inf);
      Builder = true;
      publishGaugesLocked();
    }
  }

  if (Inf && !Builder) {
    // Coalesce: wait for the builder's publication.
    std::unique_lock<std::mutex> L(Inf->Mu);
    Inf->Cv.wait(L, [&] { return Inf->Done; });
    Art = Inf->Art;
    L.unlock();
    if (Art->Source == Source) {
      Out.Coalesced = true;
    } else {
      Art = nullptr; // collided with the in-flight build's source
      Out.Bypass = true;
    }
  }

  if (Art) {
    // The frontend is built; this call still runs its analysis when no
    // earlier call asked for that kind, and then it is a miss.
    if (ensureAnalyzed(Art, Kind, Stages)) {
      Out.Coalesced = false;
      Out.Miss = true;
    } else if (!Out.Coalesced) {
      Out.Hit = true;
    }
    count(Out);
    return Art;
  }

  Out.Miss = !Out.Bypass;
  count(Out);
  Art = std::make_shared<ServedArtifact>();
  Art->Key = Key;
  Art->Source = Source;
  if (Out.Bypass) {
    Art->FA = runFrontend(Art->Source, Stages);
    ensureAnalyzed(Art, Kind, Stages);
    return Art;
  }

  // Builder path: compile outside the cache lock, publish, insert.
  // If anything below throws (e.g. std::bad_alloc on a hostile source),
  // the Building slot must still be freed and Done published, or every
  // coalesced waiter blocks on the Cv forever and the key is permanently
  // wedged. The guard turns such an exception into an uncached failed
  // artifact; the success path disarms it after publishing the real one.
  struct BuildGuard {
    ArtifactCache *C;
    const std::string &Key;
    std::shared_ptr<Inflight> Inf;
    std::shared_ptr<ServedArtifact> Art;
    bool Armed = true;
    ~BuildGuard() {
      if (!Armed)
        return;
      Art->FA.Ok = false;
      if (Art->FA.Errors.empty())
        Art->FA.Errors = "internal error: artifact build failed";
      {
        std::lock_guard<std::mutex> L(C->Mu);
        C->Building.erase(Key);
        C->publishGaugesLocked();
      }
      {
        std::lock_guard<std::mutex> L(Inf->Mu);
        Inf->Done = true;
        Inf->Art = Art;
      }
      Inf->Cv.notify_all();
    }
  } Guard{this, Key, Inf, Art};

  Art->FA = runFrontend(Art->Source, Stages);
  ensureAnalyzed(Art, Kind, Stages);
  Art->Charged.store(artifactBytes(*Art), std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> L(Mu);
    // The collision re-check under the lock is unnecessary: only this
    // thread owns the Building slot for Key, and hits never insert.
    Lru.push_front(Key);
    try {
      Map[Key] = MapEntry{Art, Lru.begin()};
    } catch (...) {
      Lru.pop_front(); // keep the LRU list in sync with the map
      throw;           // the guard publishes the failure
    }
    BytesUsed += Art->Charged.load(std::memory_order_relaxed);
    Building.erase(Key);
    evictOverBudgetLocked(Key);
  }
  Guard.Armed = false;
  {
    std::lock_guard<std::mutex> L(Inf->Mu);
    Inf->Done = true;
    Inf->Art = Art;
  }
  Inf->Cv.notify_all();
  return Art;
}

SuffixSlot *ArtifactCache::slotFor(const std::shared_ptr<ServedArtifact> &Art,
                                   AnalysisKind Kind,
                                   const SuffixOptions &Key) {
  std::lock_guard<std::mutex> L(Art->SlotsMu);
  std::pair<size_t, SuffixOptions> SlotKey(Art->SlotClass[kindIndex(Kind)],
                                           Key);
  auto It = Art->Slots.find(SlotKey);
  if (It != Art->Slots.end())
    return &It->second;
  {
    std::lock_guard<std::mutex> SL(Mu);
    auto MIt = Map.find(Art->Key);
    if (MIt == Map.end() || MIt->second.Art != Art || BytesUsed > Budget ||
        Budget - BytesUsed < kSlotBytes)
      return nullptr;
    Art->Charged.fetch_add(kSlotBytes, std::memory_order_relaxed);
    BytesUsed += kSlotBytes;
    publishGaugesLocked();
  }
  return &Art->Slots.try_emplace(SlotKey).first->second;
}

CompiledSuffix ArtifactCache::compileVia(const std::string &Source,
                                         const CompilerConfig &Cfg,
                                         Outcome &Out,
                                         const StageOptions &Stages,
                                         bool NeedModule) {
  std::shared_ptr<ServedArtifact> Art = get(Source, Cfg.Analysis, Out, Stages);
  const AnalyzedModule &AM = Art->AM[kindIndex(Cfg.Analysis)];
  CompiledSuffix R;
  auto Stamped = [&]() -> CompiledSuffix {
    (Out.Miss || Out.Bypass ? R.Timing.CacheMisses : R.Timing.CacheHits) = 1;
    if (!NeedModule)
      R.M.reset();
    return std::move(R);
  };
  auto Hit = [&](const SuffixSlot &Slot) {
    SuffixHits.fetch_add(1, std::memory_order_relaxed);
    storeMetrics().SuffixHits.inc();
    R.Facts = Slot.Facts;
  };
  // A failed prefix has no suffix to run or share: its errors are the
  // compile's.
  if (!AM.Ok) {
    R.Facts.Errors = AM.Errors;
    return Stamped();
  }
  // Remarks and the fuzzer's hook are not functions of the key.
  SuffixSlot *Slot = Cfg.Remarks || Cfg.PostAnalysisHook
                         ? nullptr
                         : slotFor(Art, Cfg.Analysis, Cfg);
  if (!Slot) {
    R = CompiledSuffix(compileSuffix(AM, Cfg));
    return Stamped();
  }
  // Facts never change once built, so a call that needs only them (or
  // whose key failed) reads them without waiting on a rebuild.
  auto FactsSuffice = [&] { return !NeedModule || !Slot->Facts.Ok; };
  if (Slot->Built.load(std::memory_order_acquire) && FactsSuffice()) {
    Hit(*Slot);
    return Stamped();
  }
  std::lock_guard<std::mutex> L(Slot->BuildMu);
  bool Built = Slot->Built.load(std::memory_order_relaxed);
  std::shared_ptr<const Module> Live = Built ? Slot->Live.lock() : nullptr;
  if (Built && (FactsSuffice() || Live)) {
    Hit(*Slot);
    R.M = std::move(Live);
    return Stamped();
  }
  // The key's first build, or a rebuild of a module no caller holds.
  CompilerConfig SC = Cfg;
  if (SC.Trace)
    SC.TraceLabel = (Stages.TraceLabel.empty() ? "" : Stages.TraceLabel + "/") +
                    suffixLabel(Cfg);
  R = CompiledSuffix(compileSuffix(AM, SC));
  if (!Built) {
    Slot->Facts = R.Facts;
    Slot->Built.store(true, std::memory_order_release);
  }
  Slot->Live = R.M;
  return Stamped();
}

CompiledSuffix ArtifactCache::compile(const std::string &Source,
                                      const CompilerConfig &Cfg, Outcome &Out,
                                      const StageOptions &Stages) {
  return compileVia(Source, Cfg, Out, Stages, /*NeedModule=*/true);
}

SuffixFacts ArtifactCache::facts(const std::string &Source,
                                 const CompilerConfig &Cfg, Outcome &Out) {
  return compileVia(Source, Cfg, Out, {}, /*NeedModule=*/false).Facts;
}
