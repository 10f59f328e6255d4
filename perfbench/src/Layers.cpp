//===- perfbench/src/Layers.cpp -------------------------------------------===//

#include "Layers.h"

#include <algorithm>
#include <sstream>

using namespace rpbench;

namespace {

/// The layer (src/ module) a span name belongs to: its first component.
std::string layerOf(const std::string &Span) {
  return Span.substr(0, Span.find('.'));
}

} // namespace

void rpbench::addLayerMetrics(const LayerReport &LR, Result &R) {
  std::map<std::string, double> Self = selfTimes(LR.Logs);
  const double Ops = LR.Ops ? static_cast<double>(LR.Ops) : 1;
  auto Ms = [&](const char *Metric, const char *Span) {
    R.add(Metric, "ms", Self[Span] / Ops, LR.Ops);
  };
  auto Count = [&](const char *Metric, uint64_t Total) {
    R.add(Metric, "count", Total / Ops, LR.Ops);
  };
  auto Rate = [&](const char *Metric, uint64_t Steps, const char *Span) {
    double ExecMs = Self[Span];
    R.add(Metric, "Msteps/s", ExecMs > 0 ? Steps / ExecMs / 1000.0 : 0,
          LR.Ops);
  };
  const LayerCounts &C = LR.Counts;
  Ms("interp.decode_ms", "interp.decode");
  Ms("interp.exec_ms", "interp.exec");
  Count("interp.steps", C.InterpSteps);
  Rate("interp.msteps_per_s", C.InterpSteps, "interp.exec");
  Ms("jit.compile_ms", "jit.compile");
  Ms("jit.exec_ms", "jit.exec");
  Rate("jit.msteps_per_s", C.JitSteps, "jit.exec");
  Ms("support.sandbox_fork_ms", "support.sandbox_fork");
  Ms("regalloc.ms", "regalloc");
  Count("regalloc.rounds", C.RegallocRounds);
  Count("regalloc.spilled_regs", C.SpilledRegs);
  Count("regalloc.coalesced_copies", C.CoalescedCopies);
  Ms("opt.vn_ms", "opt.vn");
  Ms("opt.pre_ms", "opt.pre");
  Ms("opt.copy_prop_ms", "opt.copy_prop");
  Ms("opt.sccp_ms", "opt.sccp");
  Ms("opt.cleanup_ms", "opt.cleanup");
  Ms("opt.licm_ms", "opt.licm");
  Ms("opt.dce_ms", "opt.dce");
  Ms("promote.ms", "promote");
  Count("promote.promoted_tags", C.PromotedTags);
  Count("promote.rewritten_ops", C.RewrittenOps);
  Ms("ir.clone_ms", "ir.clone");
  Ms("ir.verify_ms", "ir.verify");
  Ms("frontend.lower_ms", "frontend.lower");
  Count("frontend.il_ops", C.FrontendIlOps);
  Ms("analysis.cfg_normalize_ms", "analysis.cfg_normalize");
  Ms("alias.points_to_ms", "alias.points_to");
  Ms("alias.modref_ms", "alias.modref");
  Ms("alias.strengthen_ms", "alias.strengthen");
  const double Reqs = LR.Requests ? static_cast<double>(LR.Requests) : 1;
  auto Us = [&](const char *Metric, const char *Span) {
    R.add(Metric, "us", Self[Span] * 1000.0 / Reqs, LR.Requests);
  };
  Us("served.http_parse_us", "served.http_parse");
  Us("served.json_decode_us", "served.json_decode");
  Us("served.cache_get_us", "served.cache_get");
  R.add("served.cache_hit_frac", "frac", LR.CacheHitFrac, LR.Requests);
  R.add("served.cache_evictions", "count", LR.CacheEvictions / Ops, LR.Ops);
  R.add("served.wait_ms", "ms", LR.WaitMs, LR.Requests);
  R.add("driver.compile_cache_hit_frac", "frac", LR.CompileCacheHitFrac,
        LR.Ops);

  // Where the replayed time went, by layer: the planned split in one line.
  std::map<std::string, double> ByLayer;
  double Total = 0;
  for (const auto &[Name, Ms] : Self) {
    if (std::find(unchargedSpans().begin(), unchargedSpans().end(), Name) !=
        unchargedSpans().end())
      continue;
    ByLayer[layerOf(Name)] += Ms;
    Total += Ms;
  }
  std::ostringstream OS;
  for (const auto &[Layer, Ms] : ByLayer)
    OS << (OS.tellp() ? " " : "") << Layer << "=" << fmt(Total ? Ms / Total : 0);
  R.Info.push_back({"layer_shares", OS.str()});
}

std::map<uint64_t, double> rpbench::opDurations(const SpanLog &L) {
  std::map<uint64_t, double> Out;
  for (const Span &S : L.spans())
    if (S.Parent < 0 && std::string(S.Name) == "op")
      Out[S.Op] += S.End - S.Start;
  return Out;
}
