#include "masksearch/exec/mask_agg.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/kernels/agg_kernels.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Better {
  bool descending;
  bool operator()(const ScoredGroup& a, const ScoredGroup& b) const {
    if (a.value != b.value) {
      return descending ? a.value > b.value : a.value < b.value;
    }
    return a.group < b.group;
  }
};

DerivedAggOp ToKernelOp(MaskAggOp op) {
  switch (op) {
    case MaskAggOp::kIntersectThreshold:
      return DerivedAggOp::kIntersect;
    case MaskAggOp::kUnionThreshold:
      return DerivedAggOp::kUnion;
    case MaskAggOp::kAverage:
      return DerivedAggOp::kAverage;
  }
  return DerivedAggOp::kIntersect;
}

Status CheckSameShape(const std::vector<Mask>& masks) {
  if (masks.empty()) {
    return Status::InvalidArgument("MASK_AGG of an empty group");
  }
  const int32_t w = masks[0].width();
  const int32_t h = masks[0].height();
  for (const Mask& m : masks) {
    if (m.width() != w || m.height() != h) {
      return Status::InvalidArgument("MASK_AGG inputs must share one shape");
    }
  }
  return Status::OK();
}

std::vector<const float*> MaskPointers(const std::vector<Mask>& masks) {
  std::vector<const float*> ptrs;
  ptrs.reserve(masks.size());
  for (const Mask& m : masks) ptrs.push_back(m.data().data());
  return ptrs;
}

/// Bounds on CP(derived, roi, range) from the members' individual CHIs —
/// the IndexManager's or the bounded chi_cache's (docs/CACHING.md) — for
/// thresholded INTERSECT / UNION (§3.4's monotone-aggregation extension).
/// Returns an unbounded interval when the aggregation is not count-monotone
/// or a member CHI is missing.
Interval BoundsFromMembers(const MaskAggQuery& query, const MaskStore& store,
                           IndexManager* index, const EngineOptions& opts,
                           const std::vector<MaskId>& members) {
  if (query.op == MaskAggOp::kAverage ||
      (index == nullptr && opts.chi_cache == nullptr)) {
    return Interval{-kInf, kInf};
  }
  const MaskMeta& first = store.meta(members.front());
  const ROI roi = ResolveRoi(query.term, first).ClampTo(first.width, first.height);
  const int64_t area = roi.Area();
  const ValueRange above{query.agg_threshold, 1.0};

  // Per-member bounds on the count of pixels above the aggregation
  // threshold inside the ROI.
  int64_t min_upper = std::numeric_limits<int64_t>::max();
  int64_t max_lower = 0;
  int64_t sum_lower = 0;
  int64_t sum_upper = 0;
  for (MaskId id : members) {
    const std::shared_ptr<const Chi> chi =
        internal::ChiForBounds(index, opts.chi_cache, id);
    if (chi == nullptr) return Interval{-kInf, kInf};
    const CpBounds b = ComputeCpBounds(*chi, roi, above);
    min_upper = std::min(min_upper, b.upper);
    max_lower = std::max(max_lower, b.lower);
    sum_lower += b.lower;
    sum_upper += b.upper;
  }
  const int64_t n = static_cast<int64_t>(members.size());

  // Bounds on the number of "1" pixels of the derived mask inside the ROI.
  Interval ones;
  if (query.op == MaskAggOp::kIntersectThreshold) {
    // All members above t: at most the scarcest member, at least the
    // inclusion–exclusion floor.
    ones.hi = static_cast<double>(min_upper);
    ones.lo = static_cast<double>(
        std::max<int64_t>(0, sum_lower - (n - 1) * area));
  } else {  // kUnionThreshold
    ones.hi = static_cast<double>(std::min(area, sum_upper));
    ones.lo = static_cast<double>(max_lower);
  }

  // Translate 1-counts into CP(derived, roi, range): derived pixels are
  // exactly {0, DerivedMaskOne()}.
  const bool counts_ones = query.term.range.Contains(DerivedMaskOne());
  const bool counts_zeros = query.term.range.Contains(0.0);
  Interval cp = Interval::Point(0.0);
  if (counts_ones) cp = cp + ones;
  if (counts_zeros) {
    cp = cp + (Interval::Point(static_cast<double>(area)) - ones);
  }
  return cp;
}

}  // namespace

Result<Mask> ComputeDerivedMask(MaskAggOp op, double threshold,
                                const std::vector<Mask>& masks) {
  MS_RETURN_NOT_OK(CheckSameShape(masks));
  Mask out(masks[0].width(), masks[0].height());
  const std::vector<const float*> ptrs = MaskPointers(masks);
  DerivedMaskKernel(ToKernelOp(op), static_cast<float>(threshold),
                    DerivedMaskOne(), ptrs.data(), ptrs.size(),
                    static_cast<size_t>(out.NumPixels()),
                    out.mutable_data().data());
  return out;
}

std::shared_ptr<const Chi> DerivedIndexCache::Get(int64_t group) const {
  if (pooled_ != nullptr) return pooled_->Get(group);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = chis_.find(group);
  return it == chis_.end() ? nullptr : it->second;
}

void DerivedIndexCache::Put(int64_t group, Chi chi) {
  if (pooled_ != nullptr) {
    pooled_->Put(group, std::move(chi));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = chis_[group];
  if (slot == nullptr) slot = std::make_shared<const Chi>(std::move(chi));
}

size_t DerivedIndexCache::size() const {
  if (pooled_ != nullptr) return pooled_->size();
  std::lock_guard<std::mutex> lock(mu_);
  return chis_.size();
}

Status BuildDerivedIndexes(const MaskStore& store, const Selection& selection,
                           MaskAggOp op, double threshold, GroupKey group_key,
                           DerivedIndexCache* cache) {
  if (cache == nullptr) return Status::InvalidArgument("null derived cache");
  const std::vector<MaskId> ids = ResolveSelection(store, selection);
  std::map<int64_t, std::vector<MaskId>> groups;
  for (MaskId id : ids) {
    groups[GroupKeyValue(group_key, store.meta(id))].push_back(id);
  }
  for (const auto& [key, members] : groups) {
    if (cache->Get(key) != nullptr) continue;
    MS_ASSIGN_OR_RETURN(std::vector<Mask> masks, store.LoadMaskBatch(members));
    MS_ASSIGN_OR_RETURN(Mask derived, ComputeDerivedMask(op, threshold, masks));
    cache->Put(key, BuildChi(derived, cache->config()));
  }
  return Status::OK();
}

Result<AggResult> ExecuteMaskAgg(const MaskStore& store, IndexManager* index,
                                 DerivedIndexCache* derived_cache,
                                 const MaskAggQuery& query,
                                 const EngineOptions& opts) {
  if (!query.k.has_value() && !query.having_op.has_value()) {
    return Status::InvalidArgument(
        "mask-agg query needs a HAVING predicate and/or ORDER BY LIMIT k");
  }
  if (query.k.has_value() && *query.k == 0) {
    return Status::InvalidArgument("mask-agg query requires k > 0");
  }
  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);

  std::map<int64_t, std::vector<MaskId>> groups;
  for (MaskId id : ids) {
    groups[GroupKeyValue(query.group_key, store.meta(id))].push_back(id);
  }

  AggResult result;
  result.stats.masks_targeted = static_cast<int64_t>(ids.size());

  struct GroupState {
    int64_t key;
    const std::vector<MaskId>* members;
    Interval bounds;
  };
  std::vector<GroupState> states;
  states.reserve(groups.size());
  for (const auto& [key, members] : groups) {
    GroupState gs{key, &members, Interval{-kInf, kInf}};
    if (opts.use_index) {
      // Prefer the derived mask's own CHI; fall back to member-CHI bounds.
      const std::shared_ptr<const Chi> dchi =
          derived_cache != nullptr ? derived_cache->Get(key) : nullptr;
      if (dchi != nullptr) {
        const ROI roi = ResolveRoi(query.term, store.meta(members.front()));
        gs.bounds = Interval::FromBounds(
            ComputeCpBounds(*dchi, roi, query.term.range));
      } else {
        gs.bounds = BoundsFromMembers(query, store, index, opts, members);
      }
    }
    states.push_back(gs);
  }

  // Compute stage of verification: CP(derived, roi, range) exactly from the
  // loaded members. When the derived CHI is wanted but missing, the derived
  // mask is materialized (it is needed for the CHI build anyway) and
  // registered; otherwise the fused count kernel answers without
  // materializing it. Safe to run concurrently for distinct groups.
  auto ComputeGroup = [&](const GroupState& gs, const std::vector<Mask>& masks,
                          std::atomic<int64_t>* built) -> Result<double> {
    MS_RETURN_NOT_OK(CheckSameShape(masks));
    const MaskMeta& first = store.meta(gs.members->front());
    const ROI roi = ResolveRoi(query.term, first);
    const bool build_derived = derived_cache != nullptr && opts.use_index &&
                               derived_cache->Get(gs.key) == nullptr;
    if (build_derived) {
      // §3.4 treats aggregated masks as "new masks" indexed ahead of time
      // or on first use; skip the build when the key is already cached.
      MS_ASSIGN_OR_RETURN(
          Mask derived,
          ComputeDerivedMask(query.op, query.agg_threshold, masks));
      const double value = static_cast<double>(
          CountPixels(derived, roi, query.term.range));
      derived_cache->Put(gs.key, BuildChi(derived, derived_cache->config()));
      built->fetch_add(1, std::memory_order_relaxed);
      return value;
    }
    const std::vector<const float*> ptrs = MaskPointers(masks);
    return static_cast<double>(DerivedCpCount(
        ToKernelOp(query.op), static_cast<float>(query.agg_threshold),
        DerivedMaskOne(), ptrs.data(), ptrs.size(), masks[0].width(),
        masks[0].height(), roi, query.term.range));
  };

  const Better better{query.descending};
  std::set<ScoredGroup, Better> heap(better);
  auto Fold = [&](int64_t key, double value) {
    if (query.having_op.has_value() &&
        !CompareExact(value, *query.having_op, query.having_threshold)) {
      return;
    }
    const ScoredGroup cand{key, value};
    if (heap.size() < *query.k) {
      heap.insert(cand);
    } else if (better(cand, *heap.rbegin())) {
      heap.erase(std::prev(heap.end()));
      heap.insert(cand);
    }
  };

  // Verification: one load unit per group; each batch's groups are computed
  // across the pool, and under top-k folded into the heap in batch order.
  std::vector<double> exact(states.size(), 0.0);
  auto verify = [&](const internal::VerifyBatch& b,
                    const std::vector<std::vector<Mask>>& masks) -> Status {
    const size_t n = b.items.size();
    std::vector<Status> statuses(n, Status::OK());
    std::atomic<int64_t> built{0};
    ParallelFor(n > 1 ? opts.pool : nullptr, n, [&](size_t j) {
      Result<double> v = ComputeGroup(states[b.items[j]], masks[j], &built);
      if (v.ok()) {
        exact[b.items[j]] = *v;
      } else {
        statuses[j] = v.status();
      }
    });
    result.stats.chis_built += built.load();
    for (const Status& s : statuses) MS_RETURN_NOT_OK(s);
    if (query.k.has_value()) {
      for (size_t i : b.items) Fold(states[i].key, exact[i]);
    }
    return Status::OK();
  };
  auto MakeBatch = [&](std::vector<size_t> idxs) {
    internal::VerifyBatch b;
    for (size_t i : idxs) b.units.push_back(*states[i].members);
    b.items = std::move(idxs);
    return b;
  };

  // Verification batch size (shared by both query shapes).
  const size_t batch =
      opts.verify_batch > 0
          ? opts.verify_batch
          : (opts.pool != nullptr
                 ? std::max<size_t>(1, opts.pool->num_threads() * 2)
                 : 1);

  if (!query.k.has_value()) {
    // HAVING-only: per-group decisions are independent, so classify every
    // group first, verify the undecidable ones in fixed slices, and emit in
    // group-key order — byte-identical to the serial schedule.
    enum class Kind : uint8_t { kPruned, kAccepted, kVerify };
    std::vector<Kind> kind(states.size(), Kind::kPruned);
    std::vector<size_t> verify_idx;
    for (size_t i = 0; i < states.size(); ++i) {
      const Tri t = CompareBounds(states[i].bounds, *query.having_op,
                                  query.having_threshold);
      if (t == Tri::kFalse) {
        ++result.stats.pruned;
      } else if (t == Tri::kTrue) {
        kind[i] = Kind::kAccepted;
        ++result.stats.accepted_by_bounds;
      } else {
        kind[i] = Kind::kVerify;
        ++result.stats.candidates;
        verify_idx.push_back(i);
      }
    }
    size_t next = 0;
    auto next_batch = [&] {
      const size_t take = std::min(batch, verify_idx.size() - next);
      next += take;
      return MakeBatch(std::vector<size_t>(verify_idx.begin() + next - take,
                                           verify_idx.begin() + next));
    };
    MS_RETURN_NOT_OK(internal::RunVerifyPipeline(
        store, index, opts, "agg_verify", next_batch, verify, &result.stats));
    for (size_t i = 0; i < states.size(); ++i) {
      if (kind[i] == Kind::kAccepted) {
        result.groups.push_back(ScoredGroup{
            states[i].key, states[i].bounds.Tight() ? states[i].bounds.lo
                                                    : kNaN});
      } else if (kind[i] == Kind::kVerify &&
                 CompareExact(exact[i], *query.having_op,
                              query.having_threshold)) {
        result.groups.push_back(ScoredGroup{states[i].key, exact[i]});
      }
    }
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

  std::vector<size_t> order(states.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (opts.sort_by_bound) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double oa = query.descending ? states[a].bounds.hi : -states[a].bounds.lo;
      const double ob = query.descending ? states[b].bounds.hi : -states[b].bounds.lo;
      if (oa != ob) return oa > ob;
      return states[a].key < states[b].key;
    });
  }

  // Top-k: walk groups in bound order, pruning against the running top-k,
  // and verify survivors in batches across the pool — with io_pool, the
  // next batch's loads are in flight while one is verified. The top-k set
  // is order-independent under the Better total order, and exact values
  // never exceed their bounds, so batching and prefetch-ahead only relax
  // pruning conservatively (decisions are made against the heap as of batch
  // formation): results are byte-identical to the serial schedule (batch 1,
  // no pools), which this loop degenerates to exactly.
  //
  // FormNextBatch advances the cursor through the bound order, folding
  // bound-decided groups and pruning against the current heap, until
  // `batch` undecidable groups are collected.
  size_t cursor = 0;
  auto FormNextBatch = [&] {
    std::vector<size_t> pending;
    while (cursor < order.size() && pending.size() < batch) {
      const size_t oi = order[cursor++];
      const GroupState& gs = states[oi];
      if (query.having_op.has_value() &&
          CompareBounds(gs.bounds, *query.having_op, query.having_threshold) ==
              Tri::kFalse) {
        ++result.stats.pruned;
        continue;
      }
      const double optimistic = query.descending ? gs.bounds.hi : gs.bounds.lo;
      if (heap.size() >= *query.k &&
          !better(ScoredGroup{gs.key, optimistic}, *heap.rbegin())) {
        ++result.stats.pruned;
        continue;
      }
      if (gs.bounds.Tight() && std::isfinite(gs.bounds.lo)) {
        ++result.stats.accepted_by_bounds;
        Fold(gs.key, gs.bounds.lo);
        continue;
      }
      ++result.stats.candidates;
      pending.push_back(oi);
    }
    return MakeBatch(std::move(pending));
  };
  MS_RETURN_NOT_OK(internal::RunVerifyPipeline(
      store, index, opts, "agg_verify", FormNextBatch, verify, &result.stats));

  result.groups.assign(heap.begin(), heap.end());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
