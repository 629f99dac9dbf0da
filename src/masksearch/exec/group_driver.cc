#include "masksearch/exec/group_driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/verify_pipeline.h"

namespace masksearch {
namespace internal {

std::vector<AggGroup> ResolveGroups(const MaskStore& store,
                                    const Selection& selection, GroupKey key) {
  // std::map keeps group order deterministic.
  std::map<int64_t, std::vector<MaskId>> by_key;
  for (MaskId id : ResolveSelection(store, selection)) {
    by_key[GroupKeyValue(key, store.meta(id))].push_back(id);
  }
  std::vector<AggGroup> groups;
  groups.reserve(by_key.size());
  for (auto& [k, members] : by_key) {
    groups.push_back(AggGroup{k, std::move(members)});
  }
  return groups;
}

template <typename Query>
Result<AggResult> RunGroupAggregation(const MaskStore& store,
                                      ChiSource* chis,
                                      const EngineOptions& opts,
                                      const Query& q, const GroupOps& ops) {
  if ((!q.k.has_value() && !q.having_op.has_value()) ||
      (q.k.has_value() && *q.k == 0)) {
    return Status::InvalidArgument(
        std::string(std::is_same_v<Query, MaskAggQuery> ? "mask-agg"
                                                        : "aggregation") +
        " query needs a HAVING predicate and/or ORDER BY LIMIT k > 0");
  }
  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<AggGroup> groups =
      ResolveGroups(store, q.selection, q.group_key);
  const std::vector<Interval> bounds = ops.bounds(groups);
  const bool top_k = q.k.has_value();
  const size_t batch =
      opts.verify_batch > 0 ? opts.verify_batch
      : opts.pool != nullptr
          ? std::max<size_t>(1, opts.pool->num_threads() * 2)
          : 1;

  AggResult result;
  for (const AggGroup& g : groups) {
    result.stats.masks_targeted += static_cast<int64_t>(g.members.size());
  }

  // Best first: by value, ties by ascending key.
  auto better = [&](const ScoredGroup& a, const ScoredGroup& b) {
    if (a.value != b.value) {
      return q.descending ? a.value > b.value : a.value < b.value;
    }
    return a.group < b.group;
  };
  std::set<ScoredGroup, decltype(better)> heap(better);
  auto Fold = [&](int64_t key, double value) {
    if (q.having_op.has_value() &&
        !CompareExact(value, *q.having_op, q.having_threshold)) {
      return;
    }
    const ScoredGroup cand{key, value};
    if (heap.size() < *q.k) {
      heap.insert(cand);
    } else if (better(cand, *heap.rbegin())) {
      heap.erase(std::prev(heap.end()));
      heap.insert(cand);
    }
  };

  // The groups batches are formed from, in order. HAVING-only decisions are
  // independent, so every group is classified up front and only the
  // undecidable ones are queued. Top-k queues every group in bound order
  // and decides each as its batch is formed.
  std::vector<Tri> decided(groups.size(), Tri::kUnknown);
  std::vector<size_t> queue;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (!top_k) {
      decided[i] = CompareBounds(bounds[i], *q.having_op, q.having_threshold);
      if (decided[i] == Tri::kFalse) {
        ++result.stats.pruned;
        continue;
      }
      if (decided[i] == Tri::kTrue) {
        ++result.stats.accepted_by_bounds;
        continue;
      }
      ++result.stats.candidates;
    }
    queue.push_back(i);
  }
  if (top_k && opts.sort_by_bound) {
    std::stable_sort(queue.begin(), queue.end(), [&](size_t a, size_t b) {
      const double oa = q.descending ? bounds[a].hi : -bounds[a].lo;
      const double ob = q.descending ? bounds[b].hi : -bounds[b].lo;
      if (oa != ob) return oa > ob;
      return groups[a].key < groups[b].key;
    });
  }

  // Top-k admission of group i to the batch being formed. The heap only
  // tightens and exact values never leave their bounds, so deciding against
  // the heap as of batch formation is conservative: results equal the
  // serial schedule (batch 1, no pools), which this degenerates to exactly.
  auto Admit = [&](size_t i) {
    const Interval& b = bounds[i];
    const double optimistic = q.descending ? b.hi : b.lo;
    if ((q.having_op.has_value() &&
         CompareBounds(b, *q.having_op, q.having_threshold) == Tri::kFalse) ||
        (heap.size() >= *q.k &&
         !better(ScoredGroup{groups[i].key, optimistic}, *heap.rbegin()))) {
      ++result.stats.pruned;
      return false;
    }
    if (b.Tight() && std::isfinite(b.lo)) {
      ++result.stats.accepted_by_bounds;
      Fold(groups[i].key, b.lo);
      return false;
    }
    ++result.stats.candidates;
    return true;
  };
  size_t cursor = 0;
  auto FormNextBatch = [&] {
    VerifyBatch out;
    while (cursor < queue.size() && out.items.size() < batch) {
      const size_t i = queue[cursor++];
      if (top_k && !Admit(i)) continue;
      out.items.push_back(i);
      out.units.push_back(ops.unit(i, groups[i]));
    }
    return out;
  };

  // A batch's groups are computed across the pool, then (top-k) folded into
  // the heap in batch order.
  std::vector<double> exact(groups.size(), 0.0);
  auto verify = [&](const VerifyBatch& b,
                    const std::vector<std::vector<Mask>>& masks) -> Status {
    const size_t n = b.items.size();
    std::vector<Status> statuses(n, Status::OK());
    ParallelFor(n > 1 ? opts.pool : nullptr, n, [&](size_t j) {
      const size_t i = b.items[j];
      Result<double> v = ops.exact(i, groups[i], b.units[j], masks[j]);
      if (v.ok()) {
        exact[i] = *v;
      } else {
        statuses[j] = v.status();
      }
    });
    for (const Status& s : statuses) MS_RETURN_NOT_OK(s);
    if (top_k) {
      for (size_t i : b.items) Fold(groups[i].key, exact[i]);
    }
    return Status::OK();
  };
  MS_RETURN_NOT_OK(RunVerifyPipeline(store, chis, opts, "agg_verify",
                                     FormNextBatch, verify, &result.stats));

  if (top_k) {
    result.groups.assign(heap.begin(), heap.end());
  } else {
    for (size_t i = 0; i < groups.size(); ++i) {
      if (decided[i] == Tri::kTrue) {
        result.groups.push_back(ScoredGroup{
            groups[i].key, bounds[i].Tight()
                               ? bounds[i].lo
                               : std::numeric_limits<double>::quiet_NaN()});
      } else if (decided[i] == Tri::kUnknown &&
                 CompareExact(exact[i], *q.having_op, q.having_threshold)) {
        result.groups.push_back(ScoredGroup{groups[i].key, exact[i]});
      }
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

template Result<AggResult> RunGroupAggregation(const MaskStore&,
                                               ChiSource*,
                                               const EngineOptions&,
                                               const AggregationQuery&,
                                               const GroupOps&);
template Result<AggResult> RunGroupAggregation(const MaskStore&,
                                               ChiSource*,
                                               const EngineOptions&,
                                               const MaskAggQuery&,
                                               const GroupOps&);

}  // namespace internal
}  // namespace masksearch
