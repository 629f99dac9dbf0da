#include "masksearch/exec/agg_executor.h"

#include <algorithm>
#include <limits>

#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/group_driver.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Combines member CP intervals into the aggregate's interval (SUM/AVG are
/// monotone in each CP, MIN/MAX are lattice operations). Over point
/// intervals the result is the point of the exact aggregate.
Interval Combine(ScalarAggOp op, const std::vector<Interval>& members) {
  Interval acc = Interval::Point(op == ScalarAggOp::kMin   ? kInf
                                 : op == ScalarAggOp::kMax ? -kInf
                                                           : 0.0);
  for (const Interval& m : members) {
    switch (op) {
      case ScalarAggOp::kSum:
      case ScalarAggOp::kAvg:
        acc = acc + m;
        break;
      case ScalarAggOp::kMin:
        acc = Interval{std::min(acc.lo, m.lo), std::min(acc.hi, m.hi)};
        break;
      case ScalarAggOp::kMax:
        acc = Interval{std::max(acc.lo, m.lo), std::max(acc.hi, m.hi)};
        break;
    }
  }
  if (op == ScalarAggOp::kAvg && !members.empty()) {
    const double n = static_cast<double>(members.size());
    acc = Interval{acc.lo / n, acc.hi / n};
  }
  return acc;
}

}  // namespace

Result<AggResult> ExecuteAggregation(const MaskStore& store,
                                     ChiSource* chis,
                                     const AggregationQuery& query,
                                     const EngineOptions& opts) {
  auto roi = [&](MaskId id) { return ResolveRoi(query.term, store.meta(id)); };
  const std::vector<CpTerm> terms{query.term};

  // Per group, each member's CP interval; empty when a member has no CHI,
  // and then every member is loaded.
  std::vector<std::vector<Interval>> member_bounds;
  auto tight = [&](size_t i, size_t m) {
    return !member_bounds[i].empty() && member_bounds[i][m].Tight();
  };

  internal::GroupOps ops;
  ops.bounds = [&](const std::vector<internal::AggGroup>& groups) {
    member_bounds.assign(groups.size(), {});
    std::vector<Interval> out(groups.size(), Interval{-kInf, kInf});
    if (chis == nullptr) return out;
    for (size_t i = 0; i < groups.size(); ++i) {
      std::vector<Interval>& mb = member_bounds[i];
      for (MaskId id : groups[i].members) {
        const std::shared_ptr<const Chi> chi = chis->Find(id);
        if (chi == nullptr) {
          mb.clear();
          break;
        }
        mb.push_back(Interval::FromBounds(
            ComputeCpBounds(*chi, roi(id), query.term.range)));
      }
      if (!mb.empty()) out[i] = Combine(query.op, mb);
    }
    return out;
  };
  // Members with tight intervals contribute their bound; the rest load the
  // rows of the term's ROI.
  ops.unit = [&](size_t i, const internal::AggGroup& g) {
    internal::LoadUnit unit;
    for (size_t m = 0; m < g.members.size(); ++m) {
      if (tight(i, m)) continue;
      unit.ids.push_back(g.members[m]);
      unit.windows.push_back(
          internal::TermRows(store.meta(g.members[m]), terms));
    }
    return unit;
  };
  ops.exact = [&](size_t i, const internal::AggGroup& g,
                  const internal::LoadUnit& unit,
                  const std::vector<Mask>& masks) -> Result<double> {
    std::vector<Interval> values(g.members.size());
    for (size_t m = 0, j = 0; m < g.members.size(); ++m) {
      if (tight(i, m)) {
        values[m] = member_bounds[i][m];
        continue;
      }
      const MaskId id = g.members[m];
      values[m] = Interval::Point(static_cast<double>(CountPixels(
          masks[j],
          internal::WindowRoi(roi(id), store.meta(id), unit.windows[j]),
          query.term.range)));
      ++j;
    }
    return Combine(query.op, values).lo;
  };
  return internal::RunGroupAggregation(store, chis, opts, query, ops);
}

}  // namespace masksearch
