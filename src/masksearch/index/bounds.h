// Bounds on CP(mask, roi, (lv, uv)) derived from a mask's CHI (§3.2.1).
//
// Upper bound = min of:
//   Approach 1 (Eq. 3): count over roi⁺ (smallest available region covering
//     the ROI) within the *outer* bin-aligned value range.
//   Approach 2 (Eq. 4): count over roi⁻ (largest available region covered by
//     the ROI) within the outer range, plus the area slack |roi| − |roi⁻|.
//
// Lower bound (omitted "due to space constraints" in the paper; derived
// symmetrically) = max of:
//   Approach 1': count over roi⁻ within the *inner* bin-aligned value range —
//     every such pixel is inside the ROI with a value certainly in [lv, uv).
//   Approach 2': count over roi⁺ within the inner range minus the area slack
//     |roi⁺| − |roi| (at most that many counted pixels can lie outside the
//     ROI), clamped at 0.
//
// Floating-point note: bin edges are found with plain floor/ceil. Rounding
// jitter can only select a *looser* aligned range (outer range grows, inner
// range shrinks), so bounds remain valid — they may just be one bin less
// tight. CountPixels compares float pixels against float(lv) and float(uv);
// where that rounding falls below a bin edge the double does not, the outer
// lower edge and the inner upper edge are taken from the float, so a pixel
// equal to float(lv) is always inside the outer range and one equal to
// float(uv) never inside the inner range.
//
// Cell split (SplitCpCells): the same two aligned ranges, applied per CHI
// cell the clamped ROI touches, pin many cells' counts exactly. A verified
// mask then needs only the pixels of the other cells (docs/ARCHITECTURE.md).

#ifndef MASKSEARCH_INDEX_BOUNDS_H_
#define MASKSEARCH_INDEX_BOUNDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "masksearch/index/chi.h"
#include "masksearch/query/roi.h"

namespace masksearch {

/// \brief Closed interval [lower, upper] bracketing a CP value.
struct CpBounds {
  int64_t lower = 0;
  int64_t upper = 0;

  /// \brief Exact value: the bounds pin the CP value without loading the mask.
  bool Tight() const { return lower == upper; }

  CpBounds operator+(const CpBounds& o) const {
    return {lower + o.lower, upper + o.upper};
  }
  CpBounds operator-(const CpBounds& o) const {
    // Interval subtraction: [a,b] - [c,d] = [a-d, b-c].
    return {lower - o.upper, upper - o.lower};
  }

  std::string ToString() const {
    return "[" + std::to_string(lower) + "," + std::to_string(upper) + "]";
  }
};

/// \brief Computes lower and upper bounds on CP(mask, roi, range) from the
/// mask's CHI, for arbitrary ROI and value range (goals G1/G2 of §3.1).
///
/// The ROI is clamped to the mask extent. Guarantees
/// 0 <= lower <= CP <= upper <= |roi|; bounds are exact when the ROI corners
/// lie on grid boundaries and lv/uv lie on bin edges.
CpBounds ComputeCpBounds(const Chi& chi, const ROI& roi,
                         const ValueRange& range);

/// \brief Diagnostic variant exposing the individual approaches (used by the
/// bound-ablation benchmark).
struct CpBoundsDetail {
  int64_t upper1 = 0;  ///< Eq. 3
  int64_t upper2 = 0;  ///< Eq. 4
  int64_t lower1 = 0;  ///< inner region, inner range
  int64_t lower2 = 0;  ///< outer region, inner range, minus area slack
  CpBounds combined;
};
CpBoundsDetail ComputeCpBoundsDetail(const Chi& chi, const ROI& roi,
                                     const ValueRange& range);

/// \brief CP(mask, roi, range) split over the CHI cells the clamped ROI
/// touches, by whether the CHI pins a cell's count exactly. With the outer
/// and inner bin ranges of ComputeCpBoundsDetail, a cell is *certain* when
///   * it lies wholly inside the ROI and its outer-range count equals its
///     inner-range count (no pixel in a bin straddling lv or uv; with an
///     empty inner range, only when the outer count is 0): value that count;
///   * it lies partly inside the ROI and its outer-range count is 0 (value
///     0), or its inner-range count is its area (value |cell ∩ ROI|).
/// Every other touched cell is uncertain, and
///   CP = certain + Σ CountPixels(mask, r, range) over r in `uncertain`.
struct CpCellSplit {
  /// Exact count of the certain cells' ROI pixels in the range.
  int64_t certain = 0;
  /// The uncertain cells ∩ ROI in mask coordinates, row-major: one
  /// rectangle per run of horizontally adjacent uncertain cells.
  std::vector<ROI> uncertain;
};
CpCellSplit SplitCpCells(const Chi& chi, const ROI& roi,
                         const ValueRange& range);

}  // namespace masksearch

#endif  // MASKSEARCH_INDEX_BOUNDS_H_
