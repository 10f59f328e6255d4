//===- perfbench/src/Spans.h - In-memory span log ---------------*- C++ -*-===//
//
// Part of rpcc's benchmark (see perfbench/README.md). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's spans: name, start, end, parent and op id, recorded by
/// the harness around its own calls into each layer. One log per client
/// thread; logs stay in memory and are written out once, at the end.
///
//===----------------------------------------------------------------------===//

#ifndef RPBENCH_SPANS_H
#define RPBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rpbench {

struct Span {
  const char *Name; ///< layer-qualified, e.g. "regalloc" or "served.http_parse"
  double Start, End; ///< steady-clock milliseconds
  int Parent;        ///< index in the same log, -1 for a root
  uint64_t Op;       ///< timed-op index the span belongs to
};

class SpanLog {
public:
  /// Opens a span under the innermost open one; returns its index.
  int open(const char *Name, uint64_t Op) {
    return openAt(Name, Op, now());
  }
  void close(int Idx) { closeAt(Idx, now()); }
  /// The same with times measured elsewhere (e.g. in a sandboxed child).
  int openAt(const char *Name, uint64_t Op, double Start);
  void closeAt(int Idx, double End);
  /// Records a finished span under the innermost open one (durations
  /// reported by a sandboxed child, or sub-intervals the harness derives).
  void add(const char *Name, double Start, double End, uint64_t Op);

  const std::vector<Span> &spans() const { return Spans; }

private:
  static double now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span around one call.
class Scoped {
public:
  Scoped(SpanLog &L, const char *Name, uint64_t Op)
      : L(L), Idx(L.open(Name, Op)) {}
  ~Scoped() { L.close(Idx); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  SpanLog &L;
  int Idx;
};

/// Self time per span name: each span's duration minus the time its
/// children cover, summed over \p Logs.
std::map<std::string, double>
selfTimes(const std::vector<const SpanLog *> &Logs);

/// Self time per op of every span whose name is not in \p Exclude.
std::map<uint64_t, double> selfTimePerOp(const std::vector<const SpanLog *> &Logs,
                                         const std::vector<std::string> &Exclude);

/// Writes every span as a Chrome trace-event file: one "X" event each, its
/// args carrying the op id, its index in its log and its parent's (-1 for
/// a root).
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanLog *> &Logs);

} // namespace rpbench

#endif // RPBENCH_SPANS_H
