// Internal per-mask evaluation helpers shared by the executors.
// Not part of the public API.
//
// Row windows: the executors decide the rows each verification load reads,
// and the verification pipeline reads exactly those (verify_pipeline.h).
// By default a load reads the rows its terms' clamped ROIs touch
// (TermRows), as one RowWindow per mask. VerifyWindow reads the whole mask
// instead on a store whose LoadMaskWindows does not save I/O (compressed,
// or a whole-mask cache in front: MaskStore::ReadsRowWindows) and whenever
// the session's ChiSource would retain the mask's CHI (ChiSource::Retains),
// because a CHI is built from the whole mask, never from a slice. The
// verify kernels shift each ROI by the window's first row (WindowRoi).
//
// Cell bands: where windows save I/O and the session has an index
// (PlansCellBands, decided once per query), the filter, top-k and scalar
// aggregation plan each verified mask from its CHI instead (PlanVerifyLoad):
// SplitCpCells pins the certain cells' counts, and the load reads only the
// row bands of the uncertain cells, one RowWindow per merged band, so a
// unit repeats the mask's id once per band. A mask with no uncertain cell
// reads nothing. Each exact value is the certain count plus CountPixels
// over the uncertain rectangles (TermExactFromPlan). Planned windows are
// final; a mask without a CHI is planned as its TermRows window.

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

/// \brief How one verified mask's exact term values are computed: per term
/// the CHI's certain count and the uncertain rectangles still to count, and
/// the rows to read — the rectangles' row ranges, sorted, with touching or
/// overlapping ranges merged. No windows: the CHI alone answers.
struct CellPlan {
  std::vector<CpCellSplit> terms;
  std::vector<RowWindow> windows;
};

/// \brief True when verification loads on `store` are planned by cell bands:
/// it reads only a window's bytes and there is an index (null = none).
inline bool PlansCellBands(const MaskStore& store, const ChiSource* chis) {
  return chis != nullptr && store.ReadsRowWindows();
}

/// \brief The cell-band plan of a verification load of mask `id` (see the
/// header). A CHI that `chis` finds is held by it, so it is never retained
/// from this load. Without one, every term's clamped ROI is uncertain and
/// the one window is VerifyWindow's of TermRows.
inline CellPlan PlanVerifyLoad(const MaskStore& store, const ChiSource* chis,
                               MaskId id, const std::vector<CpTerm>& terms) {
  const MaskMeta& meta = store.meta(id);
  CellPlan plan;
  plan.terms.reserve(terms.size());
  const std::shared_ptr<const Chi> chi = chis->Find(id);
  if (chi == nullptr) {
    for (const CpTerm& t : terms) {
      const ROI r = ResolveRoi(t, meta).ClampTo(meta.width, meta.height);
      CpCellSplit& split = plan.terms.emplace_back();
      if (!r.Empty()) split.uncertain.push_back(r);
    }
    plan.windows.push_back(
        VerifyWindow(store, chis, id, TermRows(meta, terms)));
    return plan;
  }
  std::vector<RowWindow> bands;
  for (const CpTerm& t : terms) {
    plan.terms.push_back(SplitCpCells(*chi, ResolveRoi(t, meta), t.range));
    for (const ROI& r : plan.terms.back().uncertain) {
      bands.push_back(RowWindow{r.y0, r.y1});
    }
  }
  std::sort(bands.begin(), bands.end(),
            [](const RowWindow& a, const RowWindow& b) { return a.y0 < b.y0; });
  for (const RowWindow& b : bands) {
    if (!plan.windows.empty() && b.y0 <= plan.windows.back().y1) {
      plan.windows.back().y1 = std::max(plan.windows.back().y1, b.y1);
    } else {
      plan.windows.push_back(b);
    }
  }
  return plan;
}

/// \brief Exact CP term values of a planned mask; `rows[w]` holds the rows
/// plan.windows[w]. Each uncertain rectangle lies inside one window.
inline std::vector<double> TermExactFromPlan(const CellPlan& plan,
                                             const Mask* const* rows,
                                             const std::vector<CpTerm>& terms) {
  std::vector<double> out;
  out.reserve(terms.size());
  for (size_t t = 0; t < terms.size(); ++t) {
    const CpCellSplit& split = plan.terms[t];
    int64_t count = split.certain;
    size_t w = 0;
    for (ROI r : split.uncertain) {
      while (plan.windows[w].y1 < r.y1) ++w;
      r.y0 -= plan.windows[w].y0;
      r.y1 -= plan.windows[w].y0;
      count += CountPixels(*rows[w], r, terms[t].range);
    }
    out.push_back(static_cast<double>(count));
  }
  return out;
}

/// \brief The loaded masks of a batch (one vector per load unit) as one list
/// in unit order, and per plan the index of its first window in that list:
/// the plans' windows are the units' entries in order.
inline std::vector<const Mask*> FlattenPlanned(
    const std::vector<std::vector<Mask>>& masks,
    const std::vector<CellPlan>& plans, std::vector<size_t>* first) {
  std::vector<const Mask*> flat;
  for (const std::vector<Mask>& unit : masks) {
    for (const Mask& m : unit) flat.push_back(&m);
  }
  first->resize(plans.size());
  size_t next = 0;
  for (size_t j = 0; j < plans.size(); ++j) {
    (*first)[j] = next;
    next += plans[j].windows.size();
  }
  return flat;
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
