//===- obs/Metrics.h - process-wide runtime metrics registry ----*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, gauges and log2-bucketed
/// histograms, instrumenting the compile cache, thread pool, job runner,
/// sandbox, JIT, interpreter engines and fuzz campaign. Design goals, in
/// order:
///
///  - **No allocation / no contention on the hot path.** Histograms have a
///    fixed 65-bucket log2 layout; every metric's storage is split into 16
///    cache-line-padded shards indexed by a per-thread id, so ThreadPool
///    workers increment disjoint cache lines with relaxed atomics. Shards
///    are summed only at snapshot time, under the registry mutex.
///
///  - **Fork safety.** `MetricsRegistry::global()` re-checks `getpid()` on
///    every call (pure atomics, no lock), so a sandboxed child that touches
///    metrics gets a fresh registry instead of deadlocking on a mutex the
///    parent held at fork. Handles cached in function-local statics before
///    the fork keep writing into the child's copy-on-write pages, which is
///    harmless: children report results through the sandbox pipe and leave
///    via `_exit`, never by exporting metrics.
///
///  - **Deterministic exposition.** Snapshots are name+label sorted.
///    `metricsToJson` renders the rpjson-validated `metrics` schema,
///    `metricsToProm` the Prometheus text exposition format, and
///    `metricsCanon` a stable projection (see MetricStability) used by the
///    determinism tests to compare runs across `--jobs`, mirroring rpjson's
///    timestamp-stripped trace canon.
///
/// Handles (`Counter`, `Gauge`, `Histogram`) are null-safe value types: a
/// default-constructed handle ignores every operation, so instrumentation
/// can be compiled in unconditionally.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_OBS_METRICS_H
#define RPCC_OBS_METRICS_H

#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace rpcc {

namespace detail {
struct Metric;
} // namespace detail

enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

/// How much of a metric's value is deterministic across equivalent runs
/// (same inputs and flags, any `--jobs`). The canon projection keeps only
/// the deterministic part, so two runs can be compared byte-for-byte.
enum class MetricStability : uint8_t {
  /// Fully deterministic: counter/gauge value, histogram count+sum+buckets.
  Stable,
  /// Histogram whose *population* is deterministic but whose observed
  /// values are wall-time: canon keeps the count, drops sum/buckets.
  CountStable,
  /// Scheduling-dependent (queue depths, cache hit/miss splits decided by
  /// call_once races, per-worker utilization): omitted from canon.
  Volatile,
};

/// Fixed log2 histogram layout: bucket 0 holds v == 0, bucket k in [1,64]
/// holds v in [2^(k-1), 2^k), with bucket 64 additionally catching
/// everything from 2^63 up to UINT64_MAX.
constexpr int MetricHistogramBuckets = 65;

/// Number of per-thread shards per metric (power of two).
constexpr unsigned MetricShardCount = 16;

/// Bucket index for observation \p V under the layout above.
unsigned metricBucketFor(uint64_t V);

/// Label set, in emission order. Keep label values from a small stable
/// vocabulary (engine names, job statuses, worker ids) so exposition
/// output stays diffable.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter handle.
class Counter {
public:
  Counter() = default;
  void inc(uint64_t N = 1) const;

private:
  friend class MetricsRegistry;
  explicit Counter(detail::Metric *M) : M(M) {}
  detail::Metric *M = nullptr;
};

/// Up/down gauge handle. Only deltas are supported (they shard cleanly);
/// the snapshot value is the signed sum of all adds.
class Gauge {
public:
  Gauge() = default;
  void add(int64_t Delta) const;

private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Metric *M) : M(M) {}
  detail::Metric *M = nullptr;
};

/// Log2 histogram handle.
class Histogram {
public:
  Histogram() = default;
  void observe(uint64_t V) const;

private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Metric *M) : M(M) {}
  detail::Metric *M = nullptr;
};

/// One metric's merged value at snapshot time.
struct MetricSample {
  std::string Name;
  MetricLabels Labels;
  MetricKind Kind = MetricKind::Counter;
  MetricStability Stability = MetricStability::Volatile;
  std::string Unit;
  std::string Help;
  /// Counter/gauge value (counters are always >= 0).
  int64_t Value = 0;
  /// Histogram totals; Count == sum of Buckets.
  uint64_t Count = 0;
  uint64_t Sum = 0;
  std::array<uint64_t, MetricHistogramBuckets> Buckets{};
};

class MetricsRegistry {
public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The calling process's registry. Fork-aware: the first call after a
  /// fork installs a fresh registry for the child (the parent's is left
  /// untouched in copy-on-write memory). Lock-free so it is safe to call
  /// between fork and _exit.
  static MetricsRegistry &global();

  /// Find-or-create by (name, labels). Metric names use the charset
  /// [a-z0-9._]; the first registration's kind/stability/unit/help win.
  /// Returned handles stay valid for the registry's lifetime, including
  /// across reset().
  Counter counter(const std::string &Name, MetricLabels Labels,
                  MetricStability St, const char *Unit, const char *Help);
  Gauge gauge(const std::string &Name, MetricLabels Labels,
              MetricStability St, const char *Unit, const char *Help);
  Histogram histogram(const std::string &Name, MetricLabels Labels,
                      MetricStability St, const char *Unit, const char *Help);

  /// Merged view of every registered metric, sorted by (name, labels).
  std::vector<MetricSample> snapshot() const;

  /// Zeroes every value but keeps all registrations, so handles cached in
  /// function-local statics survive. Test-only by intent.
  void reset();

private:
  detail::Metric *findOrCreate(MetricKind Kind, const std::string &Name,
                               MetricLabels Labels, MetricStability St,
                               const char *Unit, const char *Help);

  /// Pid this registry belongs to, fixed at construction. global() compares
  /// it against getpid() to detect the first call after a fork; it is set
  /// before the registry pointer is published, so readers that acquire the
  /// pointer see a consistent owner.
  const long OwnerPid;

  mutable std::mutex Mu;
  /// Keyed by name + '\x1f' + k=v pairs; map order == exposition order.
  std::map<std::string, std::unique_ptr<detail::Metric>> Metrics;
};

/// Steady-clock microseconds, for latency observations. Same epoch as
/// timingNowMs (an arbitrary process-local origin).
uint64_t metricsNowUs();

const char *metricKindName(MetricKind K);
const char *metricStabilityName(MetricStability St);

/// Renders the `metrics` JSON schema: a top-level object with "schema",
/// "wall_ms" and a name-sorted "metrics" array. \p WallMs is the only
/// wall-time field; everything else comes from \p Samples.
std::string metricsToJson(const std::vector<MetricSample> &Samples,
                          double WallMs);

/// Renders the Prometheus text exposition format: families prefixed
/// `rpcc_` (dots become underscores) with # HELP / # TYPE headers;
/// histograms as cumulative _bucket{le="..."} series ending in le="+Inf",
/// plus _sum and _count.
std::string metricsToProm(const std::vector<MetricSample> &Samples);

/// The deterministic projection: one line per metric keeping only what its
/// MetricStability promises, sorted. Equal canon strings mean two runs did
/// the same work, regardless of scheduling.
std::string metricsCanon(const std::vector<MetricSample> &Samples);

/// Sum of the named counter/gauge over all its label sets; 0 if absent.
int64_t metricsValue(const std::vector<MetricSample> &Samples,
                     const std::string &Name);

/// Totals of the named histogram over all its label sets.
void metricsHistTotals(const std::vector<MetricSample> &Samples,
                       const std::string &Name, uint64_t &Count,
                       uint64_t &Sum);

/// Background thread that prints a one-line progress summary to stderr
/// every \p IntervalSecs (0 disables), computed from successive registry
/// snapshots: seeds/sec, suite cells done, cache hit rate and average busy
/// workers. stop() (also run by the destructor) quiesces the thread with a
/// condition variable and joins it, so callers can guarantee no heartbeat
/// line interleaves with final reports.
class Heartbeat {
public:
  Heartbeat(unsigned IntervalSecs, const char *Tool);
  ~Heartbeat();
  Heartbeat(const Heartbeat &) = delete;
  Heartbeat &operator=(const Heartbeat &) = delete;

  void stop();

  /// One progress line from registry \p Samples taken \p ElapsedSecs after
  /// the previous line's; advances the rate state.
  std::string formatLine(const std::vector<MetricSample> &Samples,
                         double ElapsedSecs);

private:
  void loop();

  unsigned Secs;
  std::string Tool;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
  /// Rate state: previous snapshot's seed count, served-request count and
  /// pool busy-time.
  uint64_t LastSeeds = 0;
  uint64_t LastRequests = 0;
  uint64_t LastBusyUs = 0;
  std::thread Thr;
};

} // namespace rpcc

#endif // RPCC_OBS_METRICS_H
