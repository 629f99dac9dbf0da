#include "masksearch/baselines/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/mask_agg.h"
#include "masksearch/query/cp.h"

namespace masksearch {

namespace {

std::vector<double> ExactTerms(const Mask& mask, const MaskMeta& meta,
                               const std::vector<CpTerm>& terms) {
  std::vector<double> out;
  out.reserve(terms.size());
  for (const CpTerm& t : terms) {
    out.push_back(
        static_cast<double>(CountPixels(mask, ResolveRoi(t, meta), t.range)));
  }
  return out;
}

bool BetterGroup(bool descending, const ScoredGroup& a, const ScoredGroup& b) {
  if (a.value != b.value) return descending ? a.value > b.value : a.value < b.value;
  return a.group < b.group;
}

double ScalarAgg(ScalarAggOp op, const std::vector<double>& values) {
  double acc;
  switch (op) {
    case ScalarAggOp::kSum:
    case ScalarAggOp::kAvg:
      acc = 0.0;
      for (double v : values) acc += v;
      if (op == ScalarAggOp::kAvg && !values.empty()) {
        acc /= static_cast<double>(values.size());
      }
      return acc;
    case ScalarAggOp::kMin:
      acc = std::numeric_limits<double>::infinity();
      for (double v : values) acc = std::min(acc, v);
      return acc;
    case ScalarAggOp::kMax:
      acc = -std::numeric_limits<double>::infinity();
      for (double v : values) acc = std::max(acc, v);
      return acc;
  }
  return 0.0;
}

}  // namespace

Result<Mask> ReferenceEvaluator::Load(MaskId id, ExecStats* stats) const {
  int64_t bytes = 0;
  MS_ASSIGN_OR_RETURN(Mask mask, loader_(id, &bytes));
  stats->masks_loaded += 1;
  stats->bytes_read += bytes;
  return mask;
}

Result<FilterResult> ReferenceEvaluator::Filter(const FilterQuery& q) const {
  Stopwatch timer;
  FilterResult result;
  const std::vector<MaskId> ids = ResolveSelection(*store_, q.selection);
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());
  for (MaskId id : ids) {
    MS_ASSIGN_OR_RETURN(Mask mask, Load(id, &result.stats));
    const auto exact = ExactTerms(mask, store_->meta(id), q.terms);
    if (q.predicate.EvalExact(exact)) result.mask_ids.push_back(id);
  }
  result.stats.candidates = result.stats.masks_loaded;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

Result<TopKResult> ReferenceEvaluator::TopK(const TopKQuery& q) const {
  Stopwatch timer;
  TopKResult result;
  const std::vector<MaskId> ids = ResolveSelection(*store_, q.selection);
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());
  std::vector<ScoredMask> scored;
  scored.reserve(ids.size());
  for (MaskId id : ids) {
    MS_ASSIGN_OR_RETURN(Mask mask, Load(id, &result.stats));
    const auto exact = ExactTerms(mask, store_->meta(id), q.terms);
    scored.push_back(ScoredMask{id, q.order_expr.EvalExact(exact)});
  }
  std::sort(scored.begin(), scored.end(),
            [&](const ScoredMask& a, const ScoredMask& b) {
              return MaskRanksBefore(q.descending, a, b);
            });
  if (scored.size() > q.k) scored.resize(q.k);
  result.items = std::move(scored);
  result.stats.candidates = result.stats.masks_loaded;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

Result<AggResult> ReferenceEvaluator::Aggregate(
    const AggregationQuery& q) const {
  Stopwatch timer;
  AggResult result;
  const std::vector<MaskId> ids = ResolveSelection(*store_, q.selection);
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  std::map<int64_t, std::vector<double>> group_values;
  for (MaskId id : ids) {
    MS_ASSIGN_OR_RETURN(Mask mask, Load(id, &result.stats));
    const MaskMeta& meta = store_->meta(id);
    const double v = static_cast<double>(
        CountPixels(mask, ResolveRoi(q.term, meta), q.term.range));
    group_values[GroupKeyValue(q.group_key, meta)].push_back(v);
  }

  std::vector<ScoredGroup> scored;
  scored.reserve(group_values.size());
  for (const auto& [key, values] : group_values) {
    const double v = ScalarAgg(q.op, values);
    if (q.having_op.has_value() &&
        !CompareExact(v, *q.having_op, q.having_threshold)) {
      continue;
    }
    scored.push_back(ScoredGroup{key, v});
  }
  if (q.k.has_value()) {
    std::sort(scored.begin(), scored.end(),
              [&](const ScoredGroup& a, const ScoredGroup& b) {
                return BetterGroup(q.descending, a, b);
              });
    if (scored.size() > *q.k) scored.resize(*q.k);
  }
  result.groups = std::move(scored);
  result.stats.candidates = static_cast<int64_t>(group_values.size());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

Result<AggResult> ReferenceEvaluator::MaskAggregate(
    const MaskAggQuery& q) const {
  Stopwatch timer;
  AggResult result;
  const std::vector<MaskId> ids = ResolveSelection(*store_, q.selection);
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  std::map<int64_t, std::vector<MaskId>> groups;
  for (MaskId id : ids) {
    groups[GroupKeyValue(q.group_key, store_->meta(id))].push_back(id);
  }

  std::vector<ScoredGroup> scored;
  for (const auto& [key, members] : groups) {
    std::vector<Mask> masks;
    masks.reserve(members.size());
    for (MaskId id : members) {
      MS_ASSIGN_OR_RETURN(Mask mask, Load(id, &result.stats));
      masks.push_back(std::move(mask));
    }
    MS_ASSIGN_OR_RETURN(Mask derived,
                        ComputeDerivedMask(q.op, q.agg_threshold, masks));
    const MaskMeta& first = store_->meta(members.front());
    const double v = static_cast<double>(
        CountPixels(derived, ResolveRoi(q.term, first), q.term.range));
    if (q.having_op.has_value() &&
        !CompareExact(v, *q.having_op, q.having_threshold)) {
      continue;
    }
    scored.push_back(ScoredGroup{key, v});
  }
  if (q.k.has_value()) {
    std::sort(scored.begin(), scored.end(),
              [&](const ScoredGroup& a, const ScoredGroup& b) {
                return BetterGroup(q.descending, a, b);
              });
    if (scored.size() > *q.k) scored.resize(*q.k);
  }
  result.groups = std::move(scored);
  result.stats.candidates = static_cast<int64_t>(groups.size());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
