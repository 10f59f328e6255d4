//===- served/ArtifactCache.h - The content-keyed prefix store --*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store of compiled program prefixes, keyed by *content* (a hash of
/// the source bytes) rather than by name. The paper's configurations differ
/// only after alias analysis, so the frontend runs once per source and each
/// analysis once per (source, kind); every compile then forks the analyzed
/// module with Module::clone() and runs its suffix on the fork. Three
/// callers compile through it: the suite (runSuite/runAllConfigs, one store
/// per call, unbounded), the fuzzer (one store per seed, unbounded) and the
/// rpserved handlers (one store per daemon, bounded by --cache-mb).
///
///  - **Request coalescing.** Concurrent calls for a source not yet cached
///    attach to the one in-flight build (a Building-map entry with a
///    condition variable) instead of racing N frontends for the same
///    program. The winner builds the frontend and its analysis, everyone
///    else blocks until publication and shares the result.
///
///  - **LRU with a byte budget.** Completed artifacts are charged an
///    estimate of their resident footprint (source + IL ops across the
///    frontend and analyzed modules) and live on an LRU list; inserting
///    past the budget evicts whole least-recently-used entries. Evicted
///    artifacts die when their last in-flight user drops the shared_ptr —
///    eviction never invalidates a handle.
///
/// Artifacts are immutable after each stage builds (*fork, never share*):
/// callers fork the analyzed module per compile and never mutate the cached
/// copy. The second analysis kind is built lazily on first demand, coalesced
/// by a per-artifact once-flag.
///
/// A 128-bit content hash keys the map, but a hit additionally compares
/// the stored source bytes — on the (theoretical) collision the call is
/// compiled privately and never cached, so a collision can degrade
/// performance but never serve the wrong program.
///
/// One outcome rule for every caller: a call that ran the frontend or an
/// analysis is a miss; one that waited on another call's frontend build is
/// coalesced; a content-key collision is a bypass; any other call is a hit.
///
/// Thread-safe throughout; metrics: cache.{hits,misses,coalesced,bypass,
/// evictions}, the gauges cache.{bytes,entries,inflight}, and the stage
/// latencies compile.{frontend,analysis,suffix}_us.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SERVED_ARTIFACTCACHE_H
#define RPCC_SERVED_ARTIFACTCACHE_H

#include "driver/Compiler.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace rpcc {

/// One program's cached prefix: the frontend artifact plus lazily built
/// analyzed modules (index 0 = ModRef, 1 = PointsTo). Stages are immutable
/// once built; consumers fork with Module::clone().
struct ServedArtifact {
  std::string Key;    ///< 32-hex content hash
  std::string Source; ///< exact bytes, for collision rejection
  FrontendArtifact FA;
  std::once_flag AnalyzedOnce[2];
  AnalyzedModule AM[2];
  /// Bytes currently charged against the cache budget for this artifact.
  std::atomic<size_t> Charged{0};
};

class ArtifactCache {
public:
  /// How one call was satisfied; exactly one of Hit/Miss/Coalesced/Bypass
  /// is set.
  struct Outcome {
    bool Hit = false;       ///< found resident, nothing built
    bool Miss = false;      ///< this call ran the frontend or an analysis
    bool Coalesced = false; ///< waited on another call's frontend build
    bool Bypass = false;    ///< hash collision; compiled privately, uncached
    std::string Key;        ///< content key of the artifact that served it
  };

  /// A budget no store reaches: the suite and the fuzzer keep every prefix
  /// for the lifetime of their store.
  static constexpr size_t Unbounded = SIZE_MAX;

  explicit ArtifactCache(size_t BudgetBytes);
  /// Withdraws this store's contribution to the cache.* gauges.
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// Returns the artifact for \p Source with analysis \p Kind built,
  /// coalescing concurrent builds and recording how the call was satisfied.
  /// Stages this call builds run with \p Stages; an analysis adds
  /// "/modref" or "/points-to" to its trace label. Never returns null; a
  /// source that fails to compile yields an artifact with FA.Ok /
  /// AM[kind].Ok false (cached like any other — a deterministic compile
  /// error is worth remembering too).
  std::shared_ptr<ServedArtifact> get(const std::string &Source,
                                      AnalysisKind Kind, Outcome &Out,
                                      const StageOptions &Stages = {});

  /// Compiles \p Source under \p Cfg: the prefix for Cfg.Analysis comes
  /// from get(), and compileSuffix runs on a fork of it. Stamps
  /// Timing.CacheMisses on a miss or bypass and Timing.CacheHits otherwise.
  /// Byte-identical to compileProgram(Source, Cfg) in output module,
  /// stats, remarks, and errors.
  CompileOutput compile(const std::string &Source, const CompilerConfig &Cfg,
                        Outcome &Out, const StageOptions &Stages = {});

  /// Looks up an already-cached artifact by its content key (GET /remarks);
  /// null when absent. Counts neither a hit nor a miss and does not touch
  /// LRU order.
  std::shared_ptr<ServedArtifact> peek(const std::string &Key);

  /// The 32-hex content key get() would use for \p Source.
  static std::string contentKey(const std::string &Source);

  // Accounting, for tests and /healthz.
  size_t bytes() const;
  size_t entries() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  uint64_t coalesced() const {
    return Coalesced.load(std::memory_order_relaxed);
  }

private:
  struct Inflight {
    std::mutex Mu;
    std::condition_variable Cv;
    bool Done = false;
    std::shared_ptr<ServedArtifact> Art;
  };
  struct MapEntry {
    std::shared_ptr<ServedArtifact> Art;
    std::list<std::string>::iterator LruIt;
  };

  /// Builds AM[Kind] if absent (coalesced per artifact) and charges the
  /// growth against the budget. True when this call ran the stage.
  bool ensureAnalyzed(const std::shared_ptr<ServedArtifact> &Art,
                      AnalysisKind Kind, const StageOptions &Stages);

  /// Records \p Out's one flag in the counters.
  void count(const Outcome &Out);

  /// Caller holds Mu. Evicts LRU-tail entries until the budget holds,
  /// never evicting \p Keep (the entry just touched).
  void evictOverBudgetLocked(const std::string &Keep);

  /// Caller holds Mu. Folds BytesUsed / Map.size() / Building.size() into
  /// the cache.* gauges as deltas against the last published values
  /// (the registry's Gauge handle is delta-only).
  void publishGaugesLocked();

  const size_t Budget;
  mutable std::mutex Mu;
  size_t BytesUsed = 0;
  int64_t PubBytes = 0, PubEntries = 0, PubInflight = 0;
  std::list<std::string> Lru; ///< front = most recently used
  std::unordered_map<std::string, MapEntry> Map;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> Building;

  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Coalesced{0};
};

} // namespace rpcc

#endif // RPCC_SERVED_ARTIFACTCACHE_H
