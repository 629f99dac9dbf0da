// Internal per-mask evaluation helpers shared by the executors.
// Not part of the public API.
//
// Load plans: every verified mask, and every verified MASK_AGG group, is
// read and answered through one plan (PlanVerifyLoad, PlanGroupLoad). A
// plan fixes the rows its load reads, one RowWindow per load entry, and per
// CP value a *slot*: the count its CHI pins exactly plus the uncertain
// rectangles still to count in the loaded rows, each in the coordinates of
// the entry it lies in. The exact value is the certain count plus
// CountPixels over the rectangles (SlotCount), or for a group the fused
// DerivedCpCount. The verification pipeline reads exactly the planned
// windows (verify_pipeline.h).
//
// Where windows save I/O and the session has an index (PlansCellBands),
// PlanVerifyLoad splits the mask's CHI cells (SplitCpCells): the certain
// cells' counts are pinned, and the load reads only the merged row bands of
// the uncertain cells, one window per band, so a mask answered by its CHI
// reads nothing. Otherwise, and for a mask without a CHI, the plan is
// degenerate: certain count 0, each term's clamped ROI uncertain, and the
// one window VerifyWindow gives the rows those ROIs touch (TermRows),
// without reading any CHI. VerifyWindow widens it to the whole mask on a
// store whose LoadMaskWindows does not save I/O (compressed, or a
// whole-mask cache in front: MaskStore::ReadsRowWindows) and whenever the
// session's ChiSource would retain the mask's CHI (ChiSource::Retains),
// because a CHI is built from the whole mask, never from a slice.
//
// A batch stores its plans flat (LoadPlans), so a degenerate plan makes no
// allocation of its own.

#ifndef MASKSEARCH_EXEC_EVALUATOR_H_
#define MASKSEARCH_EXEC_EVALUATOR_H_

#include <algorithm>
#include <memory>
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

/// \brief True when verification loads on `store` are planned by cell bands:
/// it reads only a window's bytes and there is an index (null = none).
inline bool PlansCellBands(const MaskStore& store, const ChiSource* chis) {
  return chis != nullptr && store.ReadsRowWindows();
}

/// \brief Mask ids loaded together, with the rows read of each entry
/// (parallel to `ids`; empty = whole masks). The entries of one mask are
/// consecutive.
struct LoadUnit {
  std::vector<MaskId> ids;
  std::vector<RowWindow> windows;
};

/// \brief The load plans of one verification batch, one per batch item,
/// stored flat. A plan's entries are consecutive entries of one LoadUnit;
/// its slots hold one CP value each (per term of a mask, per loaded member
/// for scalar aggregation, one for a MASK_AGG group).
struct LoadPlans {
  std::vector<uint32_t> slots_end;    ///< per plan: end of its slots
  std::vector<uint32_t> entries_end;  ///< per plan: end of its entries
  std::vector<int64_t> certain;       ///< per slot: the count the CHI pins
  std::vector<uint32_t> rects_end;    ///< per slot: end of its rectangles
  /// The uncertain rectangles, each in the coordinates of its entry.
  std::vector<ROI> rects;
  /// Per rectangle: its entry, counted from its plan's first entry.
  std::vector<uint32_t> rect_entry;
  uint32_t entries = 0;  ///< load entries of every plan so far

  size_t size() const { return slots_end.size(); }
  size_t FirstSlot(size_t p) const { return p == 0 ? 0 : slots_end[p - 1]; }
  size_t FirstEntry(size_t p) const {
    return p == 0 ? 0 : entries_end[p - 1];
  }
  size_t FirstRect(size_t s) const { return s == 0 ? 0 : rects_end[s - 1]; }
  /// \brief Closes the plan being appended to; what follows is the next.
  void EndPlan() {
    slots_end.push_back(static_cast<uint32_t>(certain.size()));
    entries_end.push_back(entries);
  }
};

/// \brief Appends to the open plan of `plans` the slots of mask `id`'s
/// `terms`, and to `unit` the entries its load reads (see the header). A
/// CHI that `chis` finds is held by it, so it is never retained from this
/// load; the degenerate plan reads no CHI.
inline void PlanVerifyLoad(const MaskStore& store, const ChiSource* chis,
                           MaskId id, const std::vector<CpTerm>& terms,
                           LoadPlans* plans, LoadUnit* unit) {
  const MaskMeta& meta = store.meta(id);
  const size_t first_rect = plans->rects.size();
  const size_t first_window = unit->windows.size();
  const std::shared_ptr<const Chi> chi =
      PlansCellBands(store, chis) ? chis->Find(id) : nullptr;
  if (chi == nullptr) {
    for (const CpTerm& t : terms) {
      const ROI r = ResolveRoi(t, meta).ClampTo(meta.width, meta.height);
      if (!r.Empty()) plans->rects.push_back(r);
      plans->certain.push_back(0);
      plans->rects_end.push_back(static_cast<uint32_t>(plans->rects.size()));
    }
    unit->windows.push_back(
        VerifyWindow(store, chis, id, TermRows(meta, terms)));
  } else {
    for (const CpTerm& t : terms) {
      plans->certain.push_back(SplitCpCells(*chi, ResolveRoi(t, meta), t.range,
                                            &plans->rects));
      plans->rects_end.push_back(static_cast<uint32_t>(plans->rects.size()));
    }
    // The windows: the rectangles' row ranges, sorted, with touching or
    // overlapping ranges merged.
    for (size_t r = first_rect; r < plans->rects.size(); ++r) {
      unit->windows.push_back(
          RowWindow{plans->rects[r].y0, plans->rects[r].y1});
    }
    const auto begin = unit->windows.begin() + first_window;
    std::sort(begin, unit->windows.end(),
              [](const RowWindow& a, const RowWindow& b) { return a.y0 < b.y0; });
    auto out = begin;
    for (auto w = begin; w != unit->windows.end(); ++w) {
      if (out != begin && w->y0 <= (out - 1)->y1) {
        (out - 1)->y1 = std::max((out - 1)->y1, w->y1);
      } else {
        *out++ = *w;
      }
    }
    unit->windows.erase(out, unit->windows.end());
  }
  // Each rectangle into the coordinates of the window holding it.
  const auto begin = unit->windows.begin() + first_window;
  const size_t entry = plans->entries - plans->FirstEntry(plans->size());
  for (size_t r = first_rect; r < plans->rects.size(); ++r) {
    ROI& rect = plans->rects[r];
    const auto w =
        std::upper_bound(begin, unit->windows.end(), rect.y0,
                         [](int32_t y, const RowWindow& b) { return y < b.y0; }) -
        1;
    rect.y0 -= w->y0;
    rect.y1 -= w->y0;
    plans->rect_entry.push_back(static_cast<uint32_t>(entry + (w - begin)));
  }
  const size_t added = unit->windows.size() - first_window;
  unit->ids.insert(unit->ids.end(), added, id);
  plans->entries += static_cast<uint32_t>(added);
}

/// \brief Appends to the open plan of `plans` the slots of a MASK_AGG
/// group's `terms` over its `members`, and to `unit` the members. The
/// members share one window: their TermRows (computed on the first member,
/// whose shape every member shares), or the whole mask where VerifyWindow
/// widens any member's. A group loads whole blobs without windows instead
/// (LoadMaskBatch) when the store does not read row windows, the members'
/// shapes differ, or `whole_blobs()` (its derived mask is to be built; only
/// asked on a store that reads row windows). Each slot's uncertain
/// rectangle is the term's clamped ROI in the window's coordinates, counted
/// over every member by the fused kernel.
template <typename WholeBlobs>
void PlanGroupLoad(const MaskStore& store, const ChiSource* chis,
                   const std::vector<MaskId>& members,
                   const std::vector<CpTerm>& terms, WholeBlobs&& whole_blobs,
                   LoadPlans* plans, LoadUnit* unit) {
  const MaskMeta& first = store.meta(members.front());
  bool windowed = store.ReadsRowWindows() && !whole_blobs();
  RowWindow window = RowWindow::Whole(first);
  if (windowed) {
    window = TermRows(first, terms);
    for (MaskId id : members) {
      const MaskMeta& m = store.meta(id);
      if (m.width != first.width || m.height != first.height) {
        windowed = false;
        window = RowWindow::Whole(first);
        break;
      }
      if (VerifyWindow(store, chis, id, window).IsWhole(m)) {
        window = RowWindow::Whole(first);
      }
    }
  }
  for (const CpTerm& t : terms) {
    const ROI r = WindowRoi(ResolveRoi(t, first), first, window);
    if (!r.Empty()) {
      plans->rects.push_back(r);
      plans->rect_entry.push_back(0);
    }
    plans->certain.push_back(0);
    plans->rects_end.push_back(static_cast<uint32_t>(plans->rects.size()));
  }
  unit->ids.insert(unit->ids.end(), members.begin(), members.end());
  if (windowed) unit->windows.insert(unit->windows.end(), members.size(), window);
  plans->entries += static_cast<uint32_t>(members.size());
}

/// \brief Exact value of slot `s` of a plan whose entry w is `rows[w]`: the
/// certain count plus CountPixels over the slot's rectangles.
inline int64_t SlotCount(const LoadPlans& plans, size_t s, const Mask* rows,
                         const ValueRange& range) {
  int64_t count = plans.certain[s];
  for (size_t r = plans.FirstRect(s); r < plans.rects_end[s]; ++r) {
    count += CountPixels(rows[plans.rect_entry[r]], plans.rects[r], range);
  }
  return count;
}

/// \brief Exact CP term values of plan `p`, one slot per term, whose entry w
/// is `rows[w]`.
inline std::vector<double> TermExactFromPlan(const LoadPlans& plans, size_t p,
                                             const Mask* rows,
                                             const std::vector<CpTerm>& terms) {
  std::vector<double> out(terms.size());
  const size_t first = plans.FirstSlot(p);
  for (size_t t = 0; t < terms.size(); ++t) {
    out[t] = static_cast<double>(
        SlotCount(plans, first + t, rows, terms[t].range));
  }
  return out;
}

/// \brief Per plan, its first entry among the loaded `masks` (one vector per
/// load unit, entries in plan order), or null for a plan that loads nothing.
inline std::vector<const Mask*> PlanRows(
    const std::vector<std::vector<Mask>>& masks, const LoadPlans& plans) {
  std::vector<const Mask*> rows(plans.size(), nullptr);
  size_t u = 0;
  size_t before = 0;  // entries of units [0, u)
  for (size_t p = 0; p < plans.size(); ++p) {
    const size_t entry = plans.FirstEntry(p);
    if (entry == plans.entries_end[p]) continue;
    while (entry >= before + masks[u].size()) before += masks[u++].size();
    rows[p] = masks[u].data() + (entry - before);
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
