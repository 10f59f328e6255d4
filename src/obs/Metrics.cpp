//===- obs/Metrics.cpp ----------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/Format.h"
#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

using namespace rpcc;

//===----------------------------------------------------------------------===//
// Storage
//===----------------------------------------------------------------------===//

namespace rpcc {
namespace detail {

/// One cache line of scalar storage; counters/gauges use Shards only,
/// histograms additionally get MetricShardCount HistShards.
struct alignas(64) ValueShard {
  std::atomic<int64_t> V{0};
};

struct alignas(64) HistShard {
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Buckets[MetricHistogramBuckets]{};
};

struct Metric {
  std::string Name;
  MetricLabels Labels;
  MetricKind Kind;
  MetricStability Stability;
  std::string Unit;
  std::string Help;
  ValueShard Shards[MetricShardCount];
  std::unique_ptr<HistShard[]> Hist; // non-null iff Kind == Histogram
};

} // namespace detail
} // namespace rpcc

namespace {

long currentPid() {
#if defined(_WIN32)
  return 1;
#else
  return static_cast<long>(::getpid());
#endif
}

/// Threads spread across shards round-robin; the id is assigned on a
/// thread's first metric operation and reused for every metric.
unsigned shardId() {
  static std::atomic<unsigned> NextShard{0};
  static thread_local unsigned Id =
      NextShard.fetch_add(1, std::memory_order_relaxed) &
      (MetricShardCount - 1);
  return Id;
}

} // namespace

unsigned rpcc::metricBucketFor(uint64_t V) {
  if (V == 0)
    return 0;
#if defined(__GNUC__) || defined(__clang__)
  return 64u - static_cast<unsigned>(__builtin_clzll(V));
#else
  unsigned B = 0;
  while (V) {
    ++B;
    V >>= 1;
  }
  return B;
#endif
}

void Counter::inc(uint64_t N) const {
  if (!M)
    return;
  M->Shards[shardId()].V.fetch_add(static_cast<int64_t>(N),
                                   std::memory_order_relaxed);
}

void Gauge::add(int64_t Delta) const {
  if (!M)
    return;
  M->Shards[shardId()].V.fetch_add(Delta, std::memory_order_relaxed);
}

void Histogram::observe(uint64_t V) const {
  if (!M || !M->Hist)
    return;
  detail::HistShard &H = M->Hist[shardId()];
  H.Buckets[metricBucketFor(V)].fetch_add(1, std::memory_order_relaxed);
  H.Sum.fetch_add(V, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

MetricsRegistry::MetricsRegistry() : OwnerPid(currentPid()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &MetricsRegistry::global() {
  static std::atomic<MetricsRegistry *> Reg{nullptr};
  long Pid = currentPid();
  MetricsRegistry *R = Reg.load(std::memory_order_acquire);
  if (R && R->OwnerPid == Pid)
    return *R;
  // First call in this process: either true process startup or the first
  // metric touched by a forked child. The constructor stamps OwnerPid
  // before the CAS publishes the pointer. At startup two threads can race
  // here and the loser deletes its candidate; after a fork there is exactly
  // one thread, the CAS always succeeds, and the parent's registry is
  // deliberately leaked in copy-on-write memory (handles cached in statics
  // still point into it, and LeakSanitizer never runs in children, which
  // leave via _exit).
  auto *Fresh = new MetricsRegistry();
  MetricsRegistry *Expected = R;
  if (Reg.compare_exchange_strong(Expected, Fresh, std::memory_order_acq_rel))
    return *Fresh;
  delete Fresh;
  return *Expected;
}

detail::Metric *MetricsRegistry::findOrCreate(MetricKind Kind,
                                              const std::string &Name,
                                              MetricLabels Labels,
                                              MetricStability St,
                                              const char *Unit,
                                              const char *Help) {
  std::string Key = Name;
  for (const auto &KV : Labels) {
    Key += '\x1f';
    Key += KV.first;
    Key += '=';
    Key += KV.second;
  }
  std::lock_guard<std::mutex> L(Mu);
  auto It = Metrics.find(Key);
  if (It != Metrics.end())
    return It->second.get();
  auto M = std::make_unique<detail::Metric>();
  M->Name = Name;
  M->Labels = std::move(Labels);
  M->Kind = Kind;
  M->Stability = St;
  M->Unit = Unit;
  M->Help = Help;
  if (Kind == MetricKind::Histogram)
    M->Hist = std::make_unique<detail::HistShard[]>(MetricShardCount);
  detail::Metric *Raw = M.get();
  Metrics.emplace(std::move(Key), std::move(M));
  return Raw;
}

Counter MetricsRegistry::counter(const std::string &Name, MetricLabels Labels,
                                 MetricStability St, const char *Unit,
                                 const char *Help) {
  return Counter(
      findOrCreate(MetricKind::Counter, Name, std::move(Labels), St, Unit,
                   Help));
}

Gauge MetricsRegistry::gauge(const std::string &Name, MetricLabels Labels,
                             MetricStability St, const char *Unit,
                             const char *Help) {
  return Gauge(findOrCreate(MetricKind::Gauge, Name, std::move(Labels), St,
                            Unit, Help));
}

Histogram MetricsRegistry::histogram(const std::string &Name,
                                     MetricLabels Labels, MetricStability St,
                                     const char *Unit, const char *Help) {
  return Histogram(findOrCreate(MetricKind::Histogram, Name, std::move(Labels),
                                St, Unit, Help));
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<MetricSample> Out;
  Out.reserve(Metrics.size());
  for (const auto &KV : Metrics) {
    const detail::Metric &M = *KV.second;
    MetricSample S;
    S.Name = M.Name;
    S.Labels = M.Labels;
    S.Kind = M.Kind;
    S.Stability = M.Stability;
    S.Unit = M.Unit;
    S.Help = M.Help;
    if (M.Kind == MetricKind::Histogram) {
      for (unsigned I = 0; I < MetricShardCount; ++I) {
        const detail::HistShard &H = M.Hist[I];
        S.Sum += H.Sum.load(std::memory_order_relaxed);
        for (int B = 0; B < MetricHistogramBuckets; ++B)
          S.Buckets[B] += H.Buckets[B].load(std::memory_order_relaxed);
      }
      for (int B = 0; B < MetricHistogramBuckets; ++B)
        S.Count += S.Buckets[B];
    } else {
      for (unsigned I = 0; I < MetricShardCount; ++I)
        S.Value += M.Shards[I].V.load(std::memory_order_relaxed);
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &KV : Metrics) {
    detail::Metric &M = *KV.second;
    for (unsigned I = 0; I < MetricShardCount; ++I)
      M.Shards[I].V.store(0, std::memory_order_relaxed);
    if (M.Hist)
      for (unsigned I = 0; I < MetricShardCount; ++I) {
        M.Hist[I].Sum.store(0, std::memory_order_relaxed);
        for (int B = 0; B < MetricHistogramBuckets; ++B)
          M.Hist[I].Buckets[B].store(0, std::memory_order_relaxed);
      }
  }
}

//===----------------------------------------------------------------------===//
// Exposition
//===----------------------------------------------------------------------===//

uint64_t rpcc::metricsNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *rpcc::metricKindName(MetricKind K) {
  switch (K) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Gauge:
    return "gauge";
  case MetricKind::Histogram:
    return "histogram";
  }
  return "counter";
}

const char *rpcc::metricStabilityName(MetricStability St) {
  switch (St) {
  case MetricStability::Stable:
    return "stable";
  case MetricStability::CountStable:
    return "count-stable";
  case MetricStability::Volatile:
    return "volatile";
  }
  return "volatile";
}

std::string rpcc::metricsToJson(const std::vector<MetricSample> &Samples,
                                double WallMs) {
  std::ostringstream OS;
  OS << "{\"schema\":\"metrics\",\"wall_ms\":" << fixed(WallMs, 3)
     << ",\"metrics\":[";
  bool First = true;
  for (const MetricSample &S : Samples) {
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << "{\"name\":\"" << jsonEscape(S.Name) << "\",\"labels\":{";
    bool FirstLabel = true;
    for (const auto &KV : S.Labels) {
      if (!FirstLabel)
        OS << ",";
      FirstLabel = false;
      OS << "\"" << jsonEscape(KV.first) << "\":\"" << jsonEscape(KV.second)
         << "\"";
    }
    OS << "},\"kind\":\"" << metricKindName(S.Kind) << "\",\"stability\":\""
       << metricStabilityName(S.Stability) << "\",\"unit\":\""
       << jsonEscape(S.Unit) << "\",\"help\":\"" << jsonEscape(S.Help)
       << "\"";
    if (S.Kind == MetricKind::Histogram) {
      OS << ",\"count\":" << S.Count << ",\"sum\":" << S.Sum
         << ",\"buckets\":[";
      for (int B = 0; B < MetricHistogramBuckets; ++B) {
        if (B)
          OS << ",";
        OS << S.Buckets[B];
      }
      OS << "]}";
    } else {
      OS << ",\"value\":" << S.Value << "}";
    }
  }
  OS << "\n]}\n";
  return OS.str();
}

namespace {

std::string promName(const std::string &Name) {
  std::string Out = "rpcc_";
  for (char C : Name)
    Out.push_back(C == '.' ? '_' : C);
  return Out;
}

std::string promLabelEscape(const std::string &V) {
  std::string Out;
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out.push_back(C);
  }
  return Out;
}

/// Renders {k="v",...} including optional extra label (for le=).
std::string promLabels(const MetricLabels &Labels, const char *ExtraKey,
                       const std::string &ExtraVal) {
  if (Labels.empty() && !ExtraKey)
    return "";
  std::string Out = "{";
  bool First = true;
  for (const auto &KV : Labels) {
    if (!First)
      Out += ",";
    First = false;
    Out += KV.first;
    Out += "=\"";
    Out += promLabelEscape(KV.second);
    Out += "\"";
  }
  if (ExtraKey) {
    if (!First)
      Out += ",";
    Out += ExtraKey;
    Out += "=\"";
    Out += ExtraVal;
    Out += "\"";
  }
  Out += "}";
  return Out;
}

} // namespace

std::string rpcc::metricsToProm(const std::vector<MetricSample> &Samples) {
  std::ostringstream OS;
  std::string PrevName;
  for (const MetricSample &S : Samples) {
    std::string PName = promName(S.Name);
    if (S.Name != PrevName) {
      PrevName = S.Name;
      OS << "# HELP " << PName << " " << S.Help << "\n";
      OS << "# TYPE " << PName << " " << metricKindName(S.Kind) << "\n";
    }
    if (S.Kind == MetricKind::Histogram) {
      // Buckets 1..63 carry upper bound 2^k - 1 (inclusive, matching the
      // half-open [2^(k-1), 2^k) layout); bucket 64 folds into +Inf.
      uint64_t Cum = 0;
      for (int B = 0; B < 64; ++B) {
        Cum += S.Buckets[B];
        uint64_t Le = B == 0 ? 0 : (uint64_t(1) << B) - 1;
        OS << PName << "_bucket"
           << promLabels(S.Labels, "le", std::to_string(Le)) << " " << Cum
           << "\n";
      }
      Cum += S.Buckets[64];
      OS << PName << "_bucket" << promLabels(S.Labels, "le", "+Inf") << " "
         << Cum << "\n";
      OS << PName << "_sum" << promLabels(S.Labels, nullptr, "") << " "
         << S.Sum << "\n";
      OS << PName << "_count" << promLabels(S.Labels, nullptr, "") << " "
         << S.Count << "\n";
    } else {
      OS << PName << promLabels(S.Labels, nullptr, "") << " " << S.Value
         << "\n";
    }
  }
  return OS.str();
}

std::string rpcc::metricsCanon(const std::vector<MetricSample> &Samples) {
  std::ostringstream OS;
  for (const MetricSample &S : Samples) {
    if (S.Stability == MetricStability::Volatile)
      continue;
    OS << S.Name;
    if (!S.Labels.empty()) {
      OS << "{";
      bool First = true;
      for (const auto &KV : S.Labels) {
        if (!First)
          OS << ",";
        First = false;
        OS << KV.first << "=" << KV.second;
      }
      OS << "}";
    }
    if (S.Kind == MetricKind::Histogram) {
      OS << " count=" << S.Count;
      if (S.Stability == MetricStability::Stable) {
        OS << " sum=" << S.Sum << " buckets=";
        bool First = true;
        for (int B = 0; B < MetricHistogramBuckets; ++B) {
          if (!S.Buckets[B])
            continue;
          if (!First)
            OS << ",";
          First = false;
          OS << B << ":" << S.Buckets[B];
        }
        if (First)
          OS << "-";
      }
    } else {
      OS << " " << S.Value;
    }
    OS << "\n";
  }
  return OS.str();
}

int64_t rpcc::metricsValue(const std::vector<MetricSample> &Samples,
                           const std::string &Name) {
  int64_t V = 0;
  for (const MetricSample &S : Samples)
    if (S.Name == Name && S.Kind != MetricKind::Histogram)
      V += S.Value;
  return V;
}

void rpcc::metricsHistTotals(const std::vector<MetricSample> &Samples,
                             const std::string &Name, uint64_t &Count,
                             uint64_t &Sum) {
  Count = 0;
  Sum = 0;
  for (const MetricSample &S : Samples)
    if (S.Name == Name && S.Kind == MetricKind::Histogram) {
      Count += S.Count;
      Sum += S.Sum;
    }
}

//===----------------------------------------------------------------------===//
// Heartbeat
//===----------------------------------------------------------------------===//

Heartbeat::Heartbeat(unsigned IntervalSecs, const char *Tool)
    : Secs(IntervalSecs), Tool(Tool) {
  if (Secs > 0)
    Thr = std::thread([this] { loop(); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Stopping)
      return;
    Stopping = true;
  }
  Cv.notify_all();
  if (Thr.joinable())
    Thr.join();
}

void Heartbeat::loop() {
  uint64_t LastTick = metricsNowUs();
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    if (Cv.wait_for(L, std::chrono::seconds(Secs),
                    [this] { return Stopping; }))
      return;
    L.unlock();
    std::vector<MetricSample> Samples = MetricsRegistry::global().snapshot();
    uint64_t Now = metricsNowUs();
    double Elapsed = static_cast<double>(Now - LastTick) / 1e6;
    LastTick = Now;
    std::string Line = formatLine(Samples, Elapsed > 0 ? Elapsed : 1e-9);
    std::fprintf(stderr, "%s\n", Line.c_str());
    L.lock();
  }
}

std::string Heartbeat::formatLine(const std::vector<MetricSample> &Samples,
                                  double ElapsedSecs) {
  std::vector<std::string> Parts;
  int64_t Seeds = metricsValue(Samples, "fuzz.seeds");
  if (Seeds > 0) {
    double Rate =
        static_cast<double>(Seeds - static_cast<int64_t>(LastSeeds)) /
        ElapsedSecs;
    Parts.push_back(std::to_string(Seeds) + " seeds (" + fixed(Rate, 1) +
                    "/s)");
    LastSeeds = static_cast<uint64_t>(Seeds);
  }
  int64_t Cells = metricsValue(Samples, "suite.cells");
  if (Cells > 0)
    Parts.push_back(std::to_string(Cells) + " cells");
  int64_t Requests = metricsValue(Samples, "served.requests");
  if (Requests > 0) {
    double Rate =
        static_cast<double>(Requests - static_cast<int64_t>(LastRequests)) /
        ElapsedSecs;
    Parts.push_back(std::to_string(Requests) + " reqs (" + fixed(Rate, 1) +
                    "/s)");
    LastRequests = static_cast<uint64_t>(Requests);
  }
  int64_t Hits = metricsValue(Samples, "cache.hits");
  int64_t Misses = metricsValue(Samples, "cache.misses");
  if (Hits + Misses > 0) {
    double Pct =
        100.0 * static_cast<double>(Hits) / static_cast<double>(Hits + Misses);
    Parts.push_back("cache " + fixed(Pct, 1) + "% hit");
  }
  uint64_t BusyCount = 0, BusyUs = 0;
  metricsHistTotals(Samples, "pool.item_us", BusyCount, BusyUs);
  if (BusyUs > LastBusyUs) {
    double Workers =
        static_cast<double>(BusyUs - LastBusyUs) / (ElapsedSecs * 1e6);
    Parts.push_back(fixed(Workers, 1) + " workers busy");
  }
  LastBusyUs = BusyUs;
  std::string Line = Tool + ": heartbeat:";
  if (Parts.empty())
    return Line + " warming up";
  for (size_t I = 0; I < Parts.size(); ++I)
    Line += (I ? ", " : " ") + Parts[I];
  return Line;
}
