#include "masksearch/exec/mask_agg.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/group_driver.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/kernels/agg_kernels.h"

namespace masksearch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// Bounds on CP(derived, roi, range) from the members' individual CHIs in
/// `chis` for thresholded INTERSECT / UNION (§3.4's monotone-aggregation
/// extension). Returns an unbounded interval when the aggregation is not
/// count-monotone, there is no source, or a member CHI is missing.
Interval BoundsFromMembers(const MaskAggQuery& query, const MaskStore& store,
                           const ChiSource* chis,
                           const std::vector<MaskId>& members) {
  if (query.op == MaskAggOp::kAverage || chis == nullptr) {
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
    const std::shared_ptr<const Chi> chi = chis->Find(id);
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

int64_t DerivedIndexCache::Slot(const std::vector<MaskId>& members) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.try_emplace(members, static_cast<int64_t>(slots_.size()))
      .first->second;
}

Status BuildDerivedIndexes(const MaskStore& store, const Selection& selection,
                           MaskAggOp op, double threshold, GroupKey group_key,
                           DerivedIndexCache* cache) {
  if (cache == nullptr) return Status::InvalidArgument("null derived cache");
  for (const internal::AggGroup& g :
       internal::ResolveGroups(store, selection, group_key)) {
    if (cache->Get(g.members) != nullptr) continue;
    MS_ASSIGN_OR_RETURN(std::vector<Mask> masks,
                        store.LoadMaskBatch(g.members));
    MS_ASSIGN_OR_RETURN(Mask derived, ComputeDerivedMask(op, threshold, masks));
    cache->Put(g.members, BuildChi(derived, cache->config()));
  }
  return Status::OK();
}

Result<AggResult> ExecuteMaskAgg(const MaskStore& store, ChiSource* chis,
                                 DerivedIndexCache* cache,
                                 const MaskAggQuery& query,
                                 const EngineOptions& opts) {
  auto roi = [&](const internal::AggGroup& g) {
    return ResolveRoi(query.term, store.meta(g.members.front()));
  };

  internal::GroupOps ops;
  ops.bounds = [&](const std::vector<internal::AggGroup>& groups) {
    std::vector<Interval> out(groups.size(), Interval{-kInf, kInf});
    for (size_t i = 0; i < groups.size(); ++i) {
      // Prefer the derived mask's own CHI; fall back to member-CHI bounds.
      const std::shared_ptr<const Chi> dchi =
          cache != nullptr ? cache->Get(groups[i].members) : nullptr;
      out[i] = dchi != nullptr
                   ? Interval::FromBounds(ComputeCpBounds(
                         *dchi, roi(groups[i]), query.term.range))
                   : BoundsFromMembers(query, store, chis, groups[i].members);
    }
    return out;
  };
  // A group reads its members' ROI rows (TermRows of the first member,
  // whose shape every member shares) where the store reads only a window's
  // bytes and the fused count answers the group: its derived CHI is cached
  // when the unit is formed, or there is no derived cache. A member CHI the
  // session's source would retain widens the group to whole members
  // (VerifyWindow). Otherwise whole members, no windows: the derived-CHI
  // build needs the whole derived mask.
  const bool row_windows = store.ReadsRowWindows();
  const std::vector<CpTerm> terms{query.term};
  ops.unit = [&](size_t, const internal::AggGroup& g) {
    internal::LoadUnit unit{g.members, {}};
    if (!row_windows ||
        (cache != nullptr && cache->Get(g.members) == nullptr)) {
      return unit;
    }
    const MaskMeta& first = store.meta(g.members.front());
    RowWindow rows = internal::TermRows(first, terms);
    for (MaskId id : g.members) {
      const MaskMeta& m = store.meta(id);
      if (m.width != first.width || m.height != first.height) return unit;
      if (internal::VerifyWindow(store, chis, id, rows).IsWhole(m)) {
        rows = RowWindow::Whole(first);
      }
    }
    unit.windows.assign(g.members.size(), rows);
    return unit;
  };

  // CP(derived, roi, range) exactly from the loaded members. A unit of whole
  // members whose derived CHI is wanted but missing materializes the derived
  // mask (it is needed for the CHI build anyway) and registers its CHI;
  // every other unit, windowed ones always, is answered by the fused count
  // kernel without materializing it.
  std::atomic<int64_t> built{0};
  ops.exact = [&](size_t, const internal::AggGroup& g,
                  const internal::LoadUnit& unit,
                  const std::vector<Mask>& masks) -> Result<double> {
    MS_RETURN_NOT_OK(CheckSameShape(masks));
    if (unit.windows.empty() && cache != nullptr &&
        cache->Get(g.members) == nullptr) {
      // §3.4 treats aggregated masks as "new masks" indexed ahead of time
      // or on first use; skip the build when the group is already cached.
      MS_ASSIGN_OR_RETURN(
          Mask derived,
          ComputeDerivedMask(query.op, query.agg_threshold, masks));
      const double value = static_cast<double>(
          CountPixels(derived, roi(g), query.term.range));
      cache->Put(g.members, BuildChi(derived, cache->config()));
      built.fetch_add(1, std::memory_order_relaxed);
      return value;
    }
    const MaskMeta& first = store.meta(g.members.front());
    const RowWindow window =
        unit.windows.empty() ? RowWindow::Whole(first) : unit.windows.front();
    const std::vector<const float*> ptrs = MaskPointers(masks);
    return static_cast<double>(DerivedCpCount(
        ToKernelOp(query.op), static_cast<float>(query.agg_threshold),
        DerivedMaskOne(), ptrs.data(), ptrs.size(), masks[0].width(),
        masks[0].height(), internal::WindowRoi(roi(g), first, window),
        query.term.range));
  };

  MS_ASSIGN_OR_RETURN(AggResult result, internal::RunGroupAggregation(
                                              store, chis, opts, query, ops));
  result.stats.chis_built += built.load();
  return result;
}

}  // namespace masksearch
