//===- served/ArtifactCache.h - The content-keyed stage store ---*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store of compiled programs, keyed by *content* (a hash of the source
/// bytes) rather than by name, in three levels of one key discipline:
///
///   source                                  -> frontend artifact
///   (frontend, analysis kind)               -> analyzed module
///   (analyzed-module identity, SuffixOptions) -> suffix slot
///
/// The paper's configurations differ only after alias analysis, so the
/// frontend runs once per source and each analysis once per (source, kind).
/// A compile is then determined by the analyzed module and its suffix
/// options, and each distinct one is built once: its slot keeps the facts
/// (ok, errors, CompileStats, static op count) for the life of the artifact,
/// and shares the compiled module, immutable, while some caller holds it.
/// Three callers compile through it: the suite (runSuite/runAllConfigs, one
/// store per call, unbounded), the fuzzer (one store per seed, unbounded)
/// and the rpserved handlers (one store per daemon, bounded by --cache-mb).
///
///  - **Identity classes.** When an artifact's second analysis is built it
///    is compared with the first (identicalModules); if the two are equal,
///    the second kind uses the first kind's slots. A published artifact
///    always holds its builder's analysis complete, so the comparison never
///    sees a module under construction.
///
///  - **Fork before the suffix, share only immutable results.** A slot
///    build forks the analyzed module and runs the suffix on the fork. The
///    slot holds its module weakly: the store never owns compiled modules,
///    so a daemon's resident memory holds facts, not modules. A caller that
///    needs the module when none is live rebuilds it.
///
///  - **Calls that skip the suffix level.** A compile carrying a
///    RemarkEngine or a PostAnalysisHook runs its suffix privately: neither
///    result is a function of the key.
///
///  - **Request coalescing.** Concurrent calls for a source not yet cached
///    attach to the one in-flight build (a Building-map entry with a
///    condition variable) instead of racing N frontends for the same
///    program. Concurrent calls for a slot not yet built wait for its first
///    build.
///
///  - **LRU with a byte budget.** Artifacts are charged an estimate of their
///    resident footprint (source, IL ops across the frontend and analyzed
///    modules, and a fixed charge per slot) and live on an LRU list;
///    inserting past the budget evicts whole least-recently-used entries,
///    slots included. A new slot that would push the store past its budget
///    is not made: that call compiles privately. Evicted artifacts die when
///    their last in-flight user drops the shared_ptr — eviction never
///    invalidates a handle.
///
/// A 128-bit content hash keys the map, but a hit additionally compares
/// the stored source bytes — on the (theoretical) collision the call is
/// compiled privately and never cached, so a collision can degrade
/// performance but never serve the wrong program.
///
/// One outcome rule for every caller, about the prefix: a call that ran the
/// frontend or an analysis is a miss; one that waited on another call's
/// frontend build is coalesced; a content-key collision is a bypass; any
/// other call is a hit.
///
/// Thread-safe throughout; metrics: cache.{hits,misses,coalesced,bypass,
/// evictions,suffix_hits} and the gauges cache.{bytes,entries,inflight}.
/// The stages observe their own latencies (compile.*_us, driver/Compiler.h),
/// so a suffix counts there whenever it runs: a slot build, a module
/// rebuild, or a private call.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SERVED_ARTIFACTCACHE_H
#define RPCC_SERVED_ARTIFACTCACHE_H

#include "driver/Compiler.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace rpcc {

/// What one suffix compile established: everything /compile reports, and
/// what /run checks before it executes.
struct SuffixFacts {
  bool Ok = false;
  std::string Errors;
  CompileStats Stats;
  uint64_t StaticOps = 0;
};

/// One compile through the store. M is shared and immutable: every caller
/// that holds it sees the same module. Timing holds the suffix's passes
/// only when this call ran it, plus the prefix outcome stamp.
struct CompiledSuffix {
  SuffixFacts Facts;
  std::shared_ptr<const Module> M; ///< null when Facts.Ok is false
  TimingReport Timing;

  CompiledSuffix() = default;
  /// Wraps a compile that ran outside the store (no cache, or a call that
  /// skips the suffix level).
  explicit CompiledSuffix(CompileOutput &&CO);
};

/// One suffix key's facts and, while some caller holds it, its module.
struct SuffixSlot {
  /// Set (release) once Facts is written; Facts never changes after.
  std::atomic<bool> Built{false};
  SuffixFacts Facts;
  /// Serializes builds and rebuilds of this key, and guards Live.
  std::mutex BuildMu;
  std::weak_ptr<const Module> Live;
};

/// One program's cached prefix: the frontend artifact plus lazily built
/// analyzed modules (index 0 = ModRef, 1 = PointsTo), and the suffix slots
/// compiled from them. Stages are immutable once built; consumers fork with
/// Module::clone().
struct ServedArtifact {
  std::string Key;    ///< 32-hex content key
  std::string Source; ///< exact bytes, for collision rejection
  FrontendArtifact FA;
  std::once_flag AnalyzedOnce[2];
  AnalyzedModule AM[2];
  /// Set (release) once AM[k] is complete. A reader that did not build or
  /// wait for kind k (GET /remarks) must see this before touching AM[k].
  std::atomic<bool> Published[2] = {false, false};
  /// The kind whose slots kind k uses: k, or the other kind when AM[k] is
  /// identical to it. Written once, before Published[k].
  size_t SlotClass[2] = {0, 1};
  /// Bytes currently charged against the cache budget for this artifact.
  std::atomic<size_t> Charged{0};

  /// AM[Kind] once it is published, else null.
  const AnalyzedModule *analyzed(AnalysisKind Kind) const;

private:
  friend class ArtifactCache;
  std::mutex SlotsMu;
  std::map<std::pair<size_t, SuffixOptions>, SuffixSlot> Slots;
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
  /// and suffix slot for the lifetime of their store.
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
  /// from get(), and the module from the key's slot (live, or rebuilt) or,
  /// for a call that skips the suffix level, from a private suffix. Stamps
  /// Timing.CacheMisses on a prefix miss or bypass and Timing.CacheHits
  /// otherwise. Identical to compileProgram(Source, Cfg) in module, stats,
  /// remarks and errors. A suffix this call builds traces as the stage
  /// label plus the suffix options, whichever caller built it.
  CompiledSuffix compile(const std::string &Source, const CompilerConfig &Cfg,
                         Outcome &Out, const StageOptions &Stages = {});

  /// compile() without the module: once the key's slot is built this is a
  /// lookup, with no fork and no pass.
  SuffixFacts facts(const std::string &Source, const CompilerConfig &Cfg,
                    Outcome &Out);

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
  /// Calls answered from a slot: facts, or a live module, with no suffix.
  uint64_t suffixHits() const {
    return SuffixHits.load(std::memory_order_relaxed);
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

  /// The shared body of compile() and facts().
  CompiledSuffix compileVia(const std::string &Source,
                            const CompilerConfig &Cfg, Outcome &Out,
                            const StageOptions &Stages, bool NeedModule);

  /// The slot of (\p Art's identity class for \p Kind, \p Key), made on
  /// first use. Null when \p Art is not resident (evicted, or a collision
  /// bypass) or when a new slot would push the store past its budget.
  SuffixSlot *slotFor(const std::shared_ptr<ServedArtifact> &Art,
                      AnalysisKind Kind, const SuffixOptions &Key);

  /// Caller holds Mu. Charges \p Bytes to \p Art and, when it is
  /// resident, to the store, evicting other entries past the budget.
  void chargeLocked(const std::shared_ptr<ServedArtifact> &Art, size_t Bytes);

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

  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Coalesced{0},
      SuffixHits{0};
};

} // namespace rpcc

#endif // RPCC_SERVED_ARTIFACTCACHE_H
