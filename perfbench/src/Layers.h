//===- perfbench/src/Layers.h - Per-layer metrics of a traced run -*- C++ -*-===//
//
// Part of rpcc's benchmark (see perfbench/README.md). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a traced run's spans and counts into the per-layer metrics, one
/// group per src/ module. Every workload reports every metric; a layer the
/// workload does not reach reads 0. Times and counts are means per op.
///
//===----------------------------------------------------------------------===//

#ifndef RPBENCH_LAYERS_H
#define RPBENCH_LAYERS_H

#include "Bench.h"
#include "Replica.h"
#include "Spans.h"

namespace rpbench {

struct LayerReport {
  uint64_t Ops = 0; ///< ops the traced run replayed
  std::vector<const SpanLog *> Logs;
  LayerCounts Counts;
  /// driver/CompileCache hits over lookups (paper).
  double CompileCacheHitFrac = 0;
  /// Served requests replayed, the daemon's artifact-cache hit share and
  /// evictions over the traced phase, and the mean time a request spent in
  /// the daemon outside every replayed layer (queueing, the event loop,
  /// socket I/O, serialization).
  uint64_t Requests = 0;
  double CacheHitFrac = 0;
  uint64_t CacheEvictions = 0;
  double WaitMs = 0;
};

void addLayerMetrics(const LayerReport &LR, Result &R);

/// Duration of every root "op" span, by op.
std::map<uint64_t, double> opDurations(const SpanLog &L);

} // namespace rpbench

#endif // RPBENCH_LAYERS_H
