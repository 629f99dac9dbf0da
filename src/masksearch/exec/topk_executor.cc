#include "masksearch/exec/topk_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Total order over results: best first. DESC ranks larger values first;
/// ties always break toward the smaller mask_id.
struct Better {
  bool descending;
  bool operator()(const ScoredMask& a, const ScoredMask& b) const {
    if (a.value != b.value) {
      return descending ? a.value > b.value : a.value < b.value;
    }
    return a.mask_id < b.mask_id;
  }
};

}  // namespace

Result<TopKResult> ExecuteTopK(const MaskStore& store, IndexManager* index,
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
  const Better better{query.descending};

  TopKResult result;
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  // Pass 1 (filter-side): compute the order-expression interval of every
  // indexed mask in parallel, falling back to the bounded chi_cache when
  // the IndexManager has no CHI. Masks without either get (-inf, +inf).
  std::vector<Interval> intervals(ids.size(), Interval{-kInf, kInf});
  if (opts.use_index && (index != nullptr || opts.chi_cache != nullptr)) {
    MS_TRACE_SPAN("topk_bounds");
    ParallelFor(opts.pool, ids.size(), [&](size_t i) {
      if (const std::shared_ptr<const Chi> chi =
              internal::ChiForBounds(index, opts.chi_cache, ids[i])) {
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

  // Pass 2: sequential scan maintaining the running top-k set R (Eq. 15).
  MS_TRACE_SPAN("topk_scan");
  std::set<ScoredMask, Better> heap(better);
  IndexManager* const retain_into = opts.use_index ? index : nullptr;
  for (size_t oi = 0; oi < order.size(); ++oi) {
    // This executor has no batches; a stride of masks is its boundary for
    // deadline/cancel checks (prunes are branch-only, loads dominate).
    if ((oi & 31) == 0) MS_RETURN_NOT_OK(CheckControl(opts.control));
    const size_t i = order[oi];
    const MaskId id = ids[i];
    const Interval& iv = intervals[i];
    const double optimistic = query.descending ? iv.hi : iv.lo;

    if (heap.size() >= query.k) {
      const ScoredMask& worst = *heap.rbegin();
      // Prune iff even the optimistic value cannot outrank the k-th result.
      if (!better(ScoredMask{id, optimistic}, worst)) {
        ++result.stats.pruned;
        continue;
      }
    }

    double value;
    if (iv.Tight() && std::isfinite(iv.lo)) {
      // Bounds pin the exact value: no disk access needed.
      value = iv.lo;
      ++result.stats.accepted_by_bounds;
    } else {
      ++result.stats.candidates;
      // The window covers every term the order expression reads.
      const MaskMeta& meta = store.meta(id);
      const RowWindow window = internal::VerifyWindow(
          store, retain_into, opts, id, internal::TermRows(meta, query.terms));
      MS_ASSIGN_OR_RETURN(Mask mask,
                          internal::LoadForVerification(
                              store, retain_into, opts, id, window,
                              &result.stats));
      const std::vector<double> exact =
          internal::TermExactFromMask(mask, meta, query.terms, window);
      value = query.order_expr.EvalExact(exact);
    }

    const ScoredMask cand{id, value};
    if (heap.size() < query.k) {
      heap.insert(cand);
    } else if (better(cand, *heap.rbegin())) {
      heap.erase(std::prev(heap.end()));
      heap.insert(cand);
    }
  }

  result.items.assign(heap.begin(), heap.end());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
