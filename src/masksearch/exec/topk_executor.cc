#include "masksearch/exec/topk_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<TopKResult> ExecuteTopK(const MaskStore& store, ChiSource* chis,
                               const TopKQuery& query,
                               const EngineOptions& opts) {
  if (query.order_expr.Empty()) {
    return Status::InvalidArgument("top-k query has no ORDER BY expression");
  }
  if (query.k == 0) {
    return Status::InvalidArgument("top-k query requires k > 0");
  }
  if (query.order_expr.MaxTermIndex() >=
      static_cast<int32_t>(query.terms.size())) {
    return Status::InvalidArgument("ORDER BY expression references undefined CP term");
  }

  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);
  // Total order over results: best first.
  auto better = [&](const ScoredMask& a, const ScoredMask& b) {
    return MaskRanksBefore(query.descending, a, b);
  };

  TopKResult result;
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  // Pass 1 (filter-side): compute the order-expression interval of every
  // mask with a CHI in parallel. Masks without one get (-inf, +inf).
  std::vector<Interval> intervals(ids.size(), Interval{-kInf, kInf});
  if (chis != nullptr) {
    MS_TRACE_SPAN("topk_bounds");
    ParallelFor(opts.pool, ids.size(), [&](size_t i) {
      if (const std::shared_ptr<const Chi> chi = chis->Find(ids[i])) {
        const std::vector<Interval> tb =
            internal::TermBoundsFromChi(*chi, store.meta(ids[i]), query.terms);
        intervals[i] = query.order_expr.EvalBounds(tb);
      }
    });
  }

  // Processing order: the paper processes masks sequentially; sorting by the
  // optimistic end of the interval tightens the running threshold faster.
  std::vector<size_t> order(ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (opts.sort_by_bound) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double oa = query.descending ? intervals[a].hi : -intervals[a].lo;
      const double ob = query.descending ? intervals[b].hi : -intervals[b].lo;
      if (oa != ob) return oa > ob;
      return ids[a] < ids[b];
    });
  }

  // Pass 2: the running top-k set R (Eq. 15), fed in bound order through
  // the verification pipeline. A batch holds verify_batch masks, else one
  // per io_pool thread so that many reads are in flight, else 1: the
  // paper's sequential scan.
  const size_t batch = opts.verify_batch > 0 ? opts.verify_batch
                       : opts.io_pool != nullptr
                           ? std::max<size_t>(1, opts.io_pool->num_threads())
                           : 1;
  std::set<ScoredMask, decltype(better)> heap(better);
  auto Fold = [&](const ScoredMask& cand) {
    if (heap.size() < query.k) {
      heap.insert(cand);
    } else if (better(cand, *heap.rbegin())) {
      heap.erase(std::prev(heap.end()));
      heap.insert(cand);
    }
  };
  // Admission of mask i to the batch being formed. The heap only tightens
  // and exact values never leave their bounds, so deciding against the heap
  // as of batch formation is conservative: a stale heap can admit masks the
  // serial scan prunes but never prunes one it keeps, so results equal the
  // serial schedule's. With batch 1 and no io_pool this is that schedule.
  auto Admit = [&](size_t i) {
    const Interval& iv = intervals[i];
    const double optimistic = query.descending ? iv.hi : iv.lo;
    // Prune iff even the optimistic value cannot outrank the k-th result.
    if (heap.size() >= query.k &&
        !better(ScoredMask{ids[i], optimistic}, *heap.rbegin())) {
      ++result.stats.pruned;
      return false;
    }
    if (iv.Tight() && std::isfinite(iv.lo)) {
      // Bounds pin the exact value: no disk access needed.
      ++result.stats.accepted_by_bounds;
      Fold(ScoredMask{ids[i], iv.lo});
      return false;
    }
    ++result.stats.candidates;
    return true;
  };
  size_t cursor = 0;
  auto next_batch = [&] {
    internal::VerifyBatch b;
    while (cursor < order.size() && b.items.size() < batch) {
      const size_t i = order[cursor++];
      if (!Admit(i)) continue;
      b.items.push_back(i);
      // One unit per mask, so each is its own read: its plan's windows
      // (evaluator.h), none when its CHI answers it.
      internal::PlanVerifyLoad(store, chis, ids[i], query.terms, &b.plans,
                               &b.units.emplace_back());
      b.plans.EndPlan();
    }
    return b;
  };
  // A batch's exact values are computed across the pool, then folded in
  // batch order.
  auto verify = [&](const internal::VerifyBatch& b,
                    const std::vector<std::vector<Mask>>& masks) {
    std::vector<double> values(b.items.size());
    ParallelFor(values.size() > 1 ? opts.pool : nullptr, values.size(),
                [&](size_t j) {
                  values[j] = query.order_expr.EvalExact(
                      internal::TermExactFromPlan(b.plans, j, masks[j].data(),
                                                  query.terms));
                });
    for (size_t j = 0; j < values.size(); ++j) {
      Fold(ScoredMask{ids[b.items[j]], values[j]});
    }
    return Status::OK();
  };
  MS_RETURN_NOT_OK(internal::RunVerifyPipeline(
      store, chis, opts, "topk_scan", next_batch, verify, &result.stats));

  result.items.assign(heap.begin(), heap.end());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
