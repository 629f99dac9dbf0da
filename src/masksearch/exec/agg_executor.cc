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

  // With cell bands, the plans of each group's loaded members (evaluator.h),
  // made as its unit is formed.
  const bool cell_bands = internal::PlansCellBands(store, chis);
  std::vector<std::vector<internal::CellPlan>> plans;

  internal::GroupOps ops;
  ops.bounds = [&](const std::vector<internal::AggGroup>& groups) {
    member_bounds.assign(groups.size(), {});
    if (cell_bands) plans.resize(groups.size());
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
  // rows of the term's ROI, or with cell bands their plans' windows.
  ops.unit = [&](size_t i, const internal::AggGroup& g) {
    internal::LoadUnit unit;
    for (size_t m = 0; m < g.members.size(); ++m) {
      if (tight(i, m)) continue;
      const MaskId id = g.members[m];
      if (cell_bands) {
        const internal::CellPlan& plan = plans[i].emplace_back(
            internal::PlanVerifyLoad(store, chis, id, terms));
        unit.ids.insert(unit.ids.end(), plan.windows.size(), id);
        unit.windows.insert(unit.windows.end(), plan.windows.begin(),
                            plan.windows.end());
        continue;
      }
      unit.ids.push_back(id);
      unit.windows.push_back(internal::VerifyWindow(
          store, chis, id, internal::TermRows(store.meta(id), terms)));
    }
    return unit;
  };
  ops.exact = [&](size_t i, const internal::AggGroup& g,
                  const internal::LoadUnit& unit,
                  const std::vector<Mask>& masks) -> Result<double> {
    std::vector<Interval> values(g.members.size());
    std::vector<const Mask*> rows;  // cell bands: the unit's entries
    if (cell_bands) {
      for (const Mask& mask : masks) rows.push_back(&mask);
    }
    for (size_t m = 0, k = 0, j = 0; m < g.members.size(); ++m) {
      if (tight(i, m)) {
        values[m] = member_bounds[i][m];
        continue;
      }
      double value;
      if (cell_bands) {
        const internal::CellPlan& plan = plans[i][k++];
        value = internal::TermExactFromPlan(plan, rows.data() + j, terms)[0];
        j += plan.windows.size();
      } else {
        const MaskId id = g.members[m];
        value = static_cast<double>(CountPixels(
            masks[j],
            internal::WindowRoi(roi(id), store.meta(id), unit.windows[j]),
            query.term.range));
        ++j;
      }
      values[m] = Interval::Point(value);
    }
    return Combine(query.op, values).lo;
  };
  return internal::RunGroupAggregation(store, chis, opts, query, ops);
}

}  // namespace masksearch
