#include "masksearch/index/bounds.h"

#include <algorithm>

namespace masksearch {

namespace {

/// Bin-aligned value ranges of [lv, uv): outer [lo_out, hi_out) ⊇ it and
/// inner [lo_in, hi_in) ⊆ it, the inner one empty when lo_in >= hi_in. A
/// pixel is counted against float(lv) and float(uv) (CountPixels), so the
/// outer lower edge and the inner upper edge take the float where it is
/// the smaller threshold.
struct AlignedRanges {
  int32_t lo_out;
  int32_t hi_out;
  int32_t lo_in;
  int32_t hi_in;

  bool has_inner() const { return lo_in < hi_in; }
};

AlignedRanges Align(const Chi& chi, const ValueRange& range) {
  const double flv = static_cast<float>(range.lv);
  const double fuv = static_cast<float>(range.uv);
  return {chi.BinFloor(std::min(range.lv, flv)), chi.BinCeil(range.uv),
          chi.BinCeil(range.lv), chi.BinFloor(std::min(range.uv, fuv))};
}

}  // namespace

CpBoundsDetail ComputeCpBoundsDetail(const Chi& chi, const ROI& roi_in,
                                     const ValueRange& range) {
  CpBoundsDetail d;
  const ROI roi = roi_in.ClampTo(chi.width(), chi.height());
  if (roi.Empty() || !(range.lv < range.uv)) {
    // CP is identically zero: empty ROI or empty value interval.
    return d;
  }
  const int64_t roi_area = roi.Area();

  const AlignedRanges a = Align(chi, range);

  // roi⁺: smallest available region covering the ROI.
  const int32_t ox0 = chi.FloorBoundaryX(roi.x0);
  const int32_t oy0 = chi.FloorBoundaryY(roi.y0);
  const int32_t ox1 = chi.CeilBoundaryX(roi.x1);
  const int32_t oy1 = chi.CeilBoundaryY(roi.y1);
  const int64_t outer_area = chi.RegionArea(ox0, oy0, ox1, oy1);

  // roi⁻: largest available region covered by the ROI (possibly empty).
  const int32_t ix0 = chi.CeilBoundaryX(roi.x0);
  const int32_t iy0 = chi.CeilBoundaryY(roi.y0);
  const int32_t ix1 = chi.FloorBoundaryX(roi.x1);
  const int32_t iy1 = chi.FloorBoundaryY(roi.y1);
  const bool has_inner = ix0 < ix1 && iy0 < iy1;
  const int64_t inner_area = has_inner ? chi.RegionArea(ix0, iy0, ix1, iy1) : 0;

  // ---- Upper bounds ----
  // Eq. 3: all pixels of the outer region in the outer value range.
  d.upper1 = chi.RegionCount(ox0, oy0, ox1, oy1, a.lo_out, a.hi_out);
  // Eq. 4: pixels of the inner region in the outer range, plus every pixel of
  // roi \ roi⁻ (each could match).
  const int64_t inner_outer_count =
      has_inner ? chi.RegionCount(ix0, iy0, ix1, iy1, a.lo_out, a.hi_out) : 0;
  d.upper2 = inner_outer_count + (roi_area - inner_area);

  int64_t upper = std::min(d.upper1, d.upper2);
  upper = std::min(upper, roi_area);

  // ---- Lower bounds ----
  int64_t lower = 0;
  if (a.has_inner()) {
    // Approach 1': pixels certainly inside the ROI and certainly in range.
    d.lower1 =
        has_inner ? chi.RegionCount(ix0, iy0, ix1, iy1, a.lo_in, a.hi_in) : 0;
    // Approach 2': in-range pixels of the outer region; at most
    // |roi⁺ \ roi| of them can fall outside the ROI.
    const int64_t outer_inner_count =
        chi.RegionCount(ox0, oy0, ox1, oy1, a.lo_in, a.hi_in);
    d.lower2 = std::max<int64_t>(0, outer_inner_count - (outer_area - roi_area));
    lower = std::max(d.lower1, d.lower2);
  }
  lower = std::min(lower, upper);  // guard against fp-degenerate ranges

  d.combined = CpBounds{lower, upper};
  return d;
}

CpBounds ComputeCpBounds(const Chi& chi, const ROI& roi,
                         const ValueRange& range) {
  return ComputeCpBoundsDetail(chi, roi, range).combined;
}

CpCellSplit SplitCpCells(const Chi& chi, const ROI& roi_in,
                         const ValueRange& range) {
  CpCellSplit split;
  const ROI roi = roi_in.ClampTo(chi.width(), chi.height());
  if (roi.Empty() || !(range.lv < range.uv)) return split;
  const AlignedRanges a = Align(chi, range);
  const int32_t cx0 = chi.FloorBoundaryX(roi.x0);
  const int32_t cx1 = chi.CeilBoundaryX(roi.x1);
  const int32_t cy0 = chi.FloorBoundaryY(roi.y0);
  const int32_t cy1 = chi.CeilBoundaryY(roi.y1);
  for (int32_t cy = cy0; cy < cy1; ++cy) {
    const int32_t y0 = std::max(roi.y0, chi.boundary_y(cy));
    const int32_t y1 = std::min(roi.y1, chi.boundary_y(cy + 1));
    const bool rows_inside =
        y0 == chi.boundary_y(cy) && y1 == chi.boundary_y(cy + 1);
    bool open = false;  // the last rectangle of `uncertain` may still grow
    for (int32_t cx = cx0; cx < cx1; ++cx) {
      const int32_t x0 = std::max(roi.x0, chi.boundary_x(cx));
      const int32_t x1 = std::min(roi.x1, chi.boundary_x(cx + 1));
      const int64_t outer =
          chi.RegionCount(cx, cy, cx + 1, cy + 1, a.lo_out, a.hi_out);
      const int64_t inner =
          a.has_inner()
              ? chi.RegionCount(cx, cy, cx + 1, cy + 1, a.lo_in, a.hi_in)
              : 0;
      if (rows_inside && x0 == chi.boundary_x(cx) &&
          x1 == chi.boundary_x(cx + 1)) {
        if (outer == inner) {  // wholly inside
          split.certain += inner;
          open = false;
          continue;
        }
      } else if (outer == 0) {  // partly inside, nothing in range
        open = false;
        continue;
      } else if (inner == chi.RegionArea(cx, cy, cx + 1, cy + 1)) {
        // Partly inside, every pixel in range.
        split.certain += static_cast<int64_t>(x1 - x0) * (y1 - y0);
        open = false;
        continue;
      }
      if (open) {
        split.uncertain.back().x1 = x1;
      } else {
        split.uncertain.emplace_back(x0, y0, x1, y1);
        open = true;
      }
    }
  }
  return split;
}

}  // namespace masksearch
