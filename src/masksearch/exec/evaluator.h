// Internal per-mask evaluation helpers shared by the executors.
// Not part of the public API.
//
// Row windows: a verification load reads only the rows its terms' clamped
// ROIs touch (TermRows), as one RowWindow per mask. It reads the whole mask
// instead on a store whose LoadMaskWindows does not save I/O (compressed,
// or a whole-mask cache in front: MaskStore::ReadsRowWindows) and whenever
// the session's ChiSource would retain the mask's CHI (ChiSource::Retains),
// because a CHI is built from the whole mask, never from a slice.
// VerifyWindow applies both rules; the verify kernels shift each ROI by the
// window's first row (WindowRoi).

#ifndef MASKSEARCH_EXEC_EVALUATOR_H_
#define MASKSEARCH_EXEC_EVALUATOR_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "masksearch/exec/query_spec.h"
#include "masksearch/index/bounds.h"
#include "masksearch/index/chi.h"
#include "masksearch/index/chi_source.h"
#include "masksearch/query/cp.h"

namespace masksearch {
namespace internal {

/// \brief Interval bounds of every CP term of a query for one mask, computed
/// from its CHI without touching the data file.
inline std::vector<Interval> TermBoundsFromChi(const Chi& chi,
                                               const MaskMeta& meta,
                                               const std::vector<CpTerm>& terms) {
  std::vector<Interval> out;
  out.reserve(terms.size());
  for (const CpTerm& t : terms) {
    out.push_back(
        Interval::FromBounds(ComputeCpBounds(chi, ResolveRoi(t, meta), t.range)));
  }
  return out;
}

/// \brief The rows of `meta`'s mask that the clamped ROIs of `terms` touch:
/// the hull of their row ranges, so disjoint ROIs read the rows between
/// them too. The whole mask when every ROI is empty.
inline RowWindow TermRows(const MaskMeta& meta,
                          const std::vector<CpTerm>& terms) {
  RowWindow w{meta.height, 0};
  for (const CpTerm& t : terms) {
    const ROI r = ResolveRoi(t, meta).ClampTo(meta.width, meta.height);
    if (r.Empty()) continue;
    w.y0 = std::min(w.y0, r.y0);
    w.y1 = std::max(w.y1, r.y1);
  }
  return w.y0 < w.y1 ? w : RowWindow::Whole(meta);
}

/// \brief `roi` clamped to `meta`'s mask, in the coordinates of its rows
/// `window` (whose row 0 is mask row window.y0). Every nonempty clamped ROI
/// of TermRows' terms lies inside their window.
inline ROI WindowRoi(const ROI& roi, const MaskMeta& meta,
                     const RowWindow& window) {
  ROI r = roi.ClampTo(meta.width, meta.height);
  r.y0 -= window.y0;
  r.y1 -= window.y0;
  return r;
}

/// \brief Exact CP term values from a loaded mask, or from its rows
/// `window` (verification stage).
inline std::vector<double> TermExactFromMask(const Mask& mask,
                                             const MaskMeta& meta,
                                             const std::vector<CpTerm>& terms,
                                             const RowWindow& window) {
  std::vector<double> out;
  out.reserve(terms.size());
  for (const CpTerm& t : terms) {
    out.push_back(static_cast<double>(CountPixels(
        mask, WindowRoi(ResolveRoi(t, meta), meta, window), t.range)));
  }
  return out;
}

/// \brief The window a verification load of mask `id` reads, given the
/// `rows` its terms touch: `rows`, or the whole mask when the store does
/// not read row windows or `chis` (null = no index) would retain the CHI.
/// A ChiCache entry evicted after this decision only means the whole-mask
/// retention is skipped.
inline RowWindow VerifyWindow(const MaskStore& store, const ChiSource* chis,
                              MaskId id, const RowWindow& rows) {
  if (!store.ReadsRowWindows() || (chis != nullptr && chis->Retains(id))) {
    return RowWindow::Whole(store.meta(id));
  }
  return rows;
}

/// \brief Bytes a load of `window` of mask `id` reads: the stored blob when
/// the window is whole, else the window's raw rows.
inline int64_t WindowBytes(const MaskStore& store, MaskId id,
                           const RowWindow& window) {
  const MaskMeta& m = store.meta(id);
  if (window.IsWhole(m)) return static_cast<int64_t>(store.BlobSize(id));
  return static_cast<int64_t>(window.rows()) * m.width *
         static_cast<int64_t>(sizeof(float));
}

}  // namespace internal
}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_EVALUATOR_H_
