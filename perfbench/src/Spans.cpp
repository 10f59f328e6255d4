//===- perfbench/src/Spans.cpp --------------------------------------------===//

#include "Spans.h"

#include "driver/PassTiming.h"

#include <algorithm>
#include <cstdio>

using namespace rpbench;

double SpanLog::now() { return rpcc::timingNowMs(); }

int SpanLog::openAt(const char *Name, uint64_t Op, double Start) {
  int Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back({Name, Start, Start, Parent, Op});
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return Stack.back();
}

void SpanLog::closeAt(int Idx, double End) {
  Spans[Idx].End = End;
  // Spans close in LIFO order; Scoped guarantees it.
  Stack.pop_back();
}

void SpanLog::add(const char *Name, double Start, double End, uint64_t Op) {
  int Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back({Name, Start, std::max(Start, End), Parent, Op});
}

namespace {

/// Per-span self time of one log: duration minus the children's durations.
/// Children never overlap one another (one thread, strictly nested), so
/// their sum is the part of the parent they cover.
std::vector<double> selfOf(const SpanLog &L) {
  const std::vector<Span> &S = L.spans();
  std::vector<double> Self(S.size());
  for (size_t I = 0; I != S.size(); ++I)
    Self[I] = S[I].End - S[I].Start;
  for (const Span &Sp : S)
    if (Sp.Parent >= 0)
      Self[Sp.Parent] -= Sp.End - Sp.Start;
  for (double &V : Self)
    V = std::max(0.0, V);
  return Self;
}

} // namespace

std::map<std::string, double>
rpbench::selfTimes(const std::vector<const SpanLog *> &Logs) {
  std::map<std::string, double> Out;
  for (const SpanLog *L : Logs) {
    std::vector<double> Self = selfOf(*L);
    for (size_t I = 0; I != Self.size(); ++I)
      Out[L->spans()[I].Name] += Self[I];
  }
  return Out;
}

std::map<uint64_t, double>
rpbench::selfTimePerOp(const std::vector<const SpanLog *> &Logs,
                       const std::vector<std::string> &Exclude) {
  std::map<uint64_t, double> Out;
  for (const SpanLog *L : Logs) {
    std::vector<double> Self = selfOf(*L);
    for (size_t I = 0; I != Self.size(); ++I) {
      const Span &S = L->spans()[I];
      if (std::find(Exclude.begin(), Exclude.end(), S.Name) == Exclude.end())
        Out[S.Op] += Self[I];
    }
  }
  return Out;
}

bool rpbench::writeChromeTrace(const std::string &Path,
                               const std::vector<const SpanLog *> &Logs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  bool First = true;
  for (size_t T = 0; T != Logs.size(); ++T) {
    const std::vector<Span> &Spans = Logs[T]->spans();
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"id\":%zu,\"parent\":%d}}",
                   First ? "" : ",\n", S.Name, T + 1, S.Start * 1000.0,
                   (S.End - S.Start) * 1000.0,
                   static_cast<unsigned long long>(S.Op), I, S.Parent);
      First = false;
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
