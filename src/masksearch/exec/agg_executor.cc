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
  // Members with tight intervals contribute their bound; the rest load and
  // are counted by their plans, one slot each (evaluator.h).
  ops.unit = [&](size_t i, const internal::AggGroup& g,
                 internal::LoadUnit* unit, internal::LoadPlans* plans) {
    for (size_t m = 0; m < g.members.size(); ++m) {
      if (!tight(i, m)) {
        internal::PlanVerifyLoad(store, chis, g.members[m], terms, plans, unit);
      }
    }
  };
  ops.exact = [&](size_t i, const internal::AggGroup& g,
                  const internal::VerifyBatch& b, size_t j,
                  const std::vector<Mask>& masks) -> Result<double> {
    std::vector<Interval> values(g.members.size());
    size_t slot = b.plans.FirstSlot(j);
    for (size_t m = 0; m < g.members.size(); ++m) {
      values[m] = tight(i, m)
                      ? member_bounds[i][m]
                      : Interval::Point(static_cast<double>(internal::SlotCount(
                            b.plans, slot++, masks.data(), query.term.range)));
    }
    return Combine(query.op, values).lo;
  };
  return internal::RunGroupAggregation(store, chis, opts, query, ops);
}

}  // namespace masksearch
