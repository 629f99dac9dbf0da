// The verification stage of every executor — filter, top-k, and the group
// driver of the scalar- and mask-aggregation executors (§3.2): masks the
// filter stage could not decide stream through here in batches. Internal;
// not part of the public API.
//
// A batch is a list of load units, each read with one
// MaskStore::LoadMaskWindows (offset-sorted, coalesced, shard-parallel
// reads). The filter gives one contiguous unit per io_pool thread (one per
// batch without io_pool), top-k one per mask, the aggregations one per
// group. With io_pool every unit is its own io_pool task, so several reads
// are in flight and a device queue stays busy while the host copies and
// verifies. A unit carries the row windows its executor decided
// (evaluator.h): the rows its terms' ROIs touch, widened to the whole mask
// by VerifyWindow on a compressed or cached store or for a CHI the
// session's ChiSource retains, or, planned by cell bands, one window per
// uncertain band, so one mask may appear as several consecutive entries
// and a mask the CHI answers as none. The pipeline reads exactly those
// windows, so on a raw uncached store only their bytes are read, and a CHI
// is only ever built from a whole mask.
//
// With EngineOptions::io_pool set the pipeline is two batches deep: batch
// k+1's units load on io_pool while batch k is verified on
// EngineOptions::pool. Without io_pool it is one batch deep and every unit
// loads at verify time, which is the serial schedule.

#ifndef MASKSEARCH_EXEC_VERIFY_PIPELINE_H_
#define MASKSEARCH_EXEC_VERIFY_PIPELINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "masksearch/common/latch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/options.h"
#include "masksearch/obs/trace.h"

namespace masksearch {
namespace internal {

/// \brief Mask ids loaded together, with the rows read of each entry
/// (parallel to `ids`; empty = whole masks). The entries of one mask are
/// consecutive.
struct LoadUnit {
  std::vector<MaskId> ids;
  std::vector<RowWindow> windows;
};

/// \brief One verification batch. `items` are the executor's own indices
/// (masks for the filter, groups for the aggregations) and are opaque to the
/// pipeline; `units` are loaded one LoadMaskWindows each. `plans` (cell-band
/// executors only, else empty) holds one CellPlan per item, whose windows
/// are the units' entries in order (FlattenPlanned).
struct VerifyBatch {
  std::vector<size_t> items;
  std::vector<LoadUnit> units;
  std::vector<CellPlan> plans;
};

/// \brief The masks of `unit`, one per entry.
inline Result<std::vector<Mask>> LoadUnitMasks(const MaskStore& store,
                                               const LoadUnit& unit) {
  return unit.windows.empty() ? store.LoadMaskBatch(unit.ids)
                              : store.LoadMaskWindows(unit.ids, unit.windows);
}

/// \brief Runs batches from `next_batch` through load and verification until
/// it returns a batch without items.
///
/// `next_batch()` runs on the calling thread whenever the pipeline has room,
/// so with io_pool it forms batch k+1 before batch k is verified.
/// `verify(batch, masks)` runs on the calling thread with masks[u] holding
/// unit u's entries in order, each the rows batch.units[u].windows names;
/// it may fan out across opts.pool. Batches are verified in the order they
/// were formed.
///
/// QueryControl is polled at every batch boundary, so a request overruns its
/// deadline by at most one batch. Loads are counted into
/// stats->masks_loaded (a mask once per unit, however many windows) and
/// bytes_read (window bytes), `chis` (null = no index) retains the CHI of
/// every whole mask it Retains (stats->chis_built), and a unit whose masks
/// were all resident in the buffer pool is loaded at verify time instead of
/// on io_pool (stats->prefetch_skipped, docs/CACHING.md). A unit without
/// ids reads nothing. A load error ends the run with that error; in-flight
/// loads are drained before any return.
template <typename NextBatch, typename Verify>
Status RunVerifyPipeline(const MaskStore& store, ChiSource* chis,
                         const EngineOptions& opts, const char* verify_span,
                         NextBatch&& next_batch, Verify&& verify,
                         ExecStats* stats) {
  struct Stage {
    VerifyBatch batch;
    std::vector<Result<std::vector<Mask>>> masks;  ///< one per unit
    std::vector<char> on_io_pool;  ///< unit load submitted to io_pool
    std::shared_ptr<Latch> done;   ///< counts the submitted loads
  };

  // Pool tasks run on threads without the request's trace installed; capture
  // it here and reinstall inside each task (docs/OBSERVABILITY.md).
  obs::Trace* const trace = obs::Trace::Current();
  // Every launched load counts down a latch; the guard waits on all of them
  // before any return path. It helps drain io_pool, because the caller may
  // itself be an io_pool task.
  LatchDrainGuard drain_on_exit(opts.io_pool);

  auto start = [&](VerifyBatch batch) {
    auto s = std::make_shared<Stage>();
    s->batch = std::move(batch);
    const size_t n = s->batch.units.size();
    s->masks.assign(n, Status::Internal("not loaded"));
    s->on_io_pool.assign(n, 0);
    if (opts.io_pool == nullptr) return s;
    // Cache-aware prefetch: a unit whose masks are all resident needs no
    // physical read, and an io_pool task would only queue a no-op behind real
    // I/O. The probe is advisory; an eviction in between costs a synchronous
    // miss at verify time, nothing more.
    size_t submitted = 0;
    for (size_t u = 0; u < n; ++u) {
      const std::vector<MaskId>& ids = s->batch.units[u].ids;
      if (ids.empty()) continue;
      if (store.CountResident(ids) == ids.size()) {
        ++stats->prefetch_skipped;
      } else {
        s->on_io_pool[u] = 1;
        ++submitted;
      }
    }
    if (submitted == 0) return s;
    s->done = drain_on_exit.Add(std::make_shared<Latch>(submitted));
    for (size_t u = 0; u < n; ++u) {
      if (!s->on_io_pool[u]) continue;
      opts.io_pool->Submit([&store, s, u, trace] {
        obs::TraceScope trace_scope(trace);
        MS_TRACE_SPAN("io_load");
        s->masks[u] = LoadUnitMasks(store, s->batch.units[u]);
        s->done->CountDown();
      });
    }
    return s;
  };

  auto finish = [&](Stage& s) -> Status {
    const std::vector<LoadUnit>& units = s.batch.units;
    {
      MS_TRACE_SPAN("io_wait");
      // Cooperative wait: the caller may itself be an io_pool task, and
      // helping drains queued loads instead of deadlocking the pool.
      if (s.done != nullptr) WaitHelping(s.done.get(), opts.io_pool);
      std::vector<size_t> now;
      for (size_t u = 0; u < units.size(); ++u) {
        if (units[u].ids.empty()) {
          s.masks[u] = std::vector<Mask>{};
        } else if (!s.on_io_pool[u]) {
          now.push_back(u);
        }
      }
      ParallelFor(now.size() > 1 ? opts.pool : nullptr, now.size(),
                  [&](size_t k) {
                    obs::TraceScope trace_scope(trace);
                    s.masks[now[k]] = LoadUnitMasks(store, units[now[k]]);
                  });
    }
    MS_TRACE_SPAN(verify_span);
    std::vector<std::vector<Mask>> masks(units.size());
    std::vector<std::pair<MaskId, const Mask*>> loaded;  ///< whole masks
    for (size_t u = 0; u < units.size(); ++u) {
      MS_RETURN_NOT_OK(s.masks[u].status());
      masks[u] = std::move(*s.masks[u]);
      const LoadUnit& unit = units[u];
      for (size_t j = 0; j < unit.ids.size(); ++j) {
        const MaskId id = unit.ids[j];
        if (j == 0 || id != unit.ids[j - 1]) ++stats->masks_loaded;
        const RowWindow w = unit.windows.empty()
                                ? RowWindow::Whole(store.meta(id))
                                : unit.windows[j];
        stats->bytes_read += WindowBytes(store, id, w);
        if (w.IsWhole(store.meta(id))) loaded.emplace_back(id, &masks[u][j]);
      }
    }
    // Incremental indexing (§3.6) into the session's source, across the pool.
    if (chis != nullptr) {
      std::atomic<int64_t> built{0};
      ParallelFor(loaded.size() > 1 ? opts.pool : nullptr, loaded.size(),
                  [&](size_t i) {
                    const auto [id, mask] = loaded[i];
                    if (!chis->Retains(id)) return;
                    chis->Retain(id, *mask);
                    built.fetch_add(1, std::memory_order_relaxed);
                  });
      stats->chis_built += built.load();
    }
    return verify(s.batch, masks);
  };

  const size_t depth = opts.io_pool != nullptr ? 2 : 1;
  std::deque<std::shared_ptr<Stage>> inflight;
  bool exhausted = false;
  for (;;) {
    MS_RETURN_NOT_OK(CheckControl(opts.control));
    while (!exhausted && inflight.size() < depth) {
      VerifyBatch batch = next_batch();
      if (batch.items.empty()) {
        exhausted = true;
      } else {
        inflight.push_back(start(std::move(batch)));
      }
    }
    if (inflight.empty()) return Status::OK();
    const std::shared_ptr<Stage> s = std::move(inflight.front());
    inflight.pop_front();
    MS_RETURN_NOT_OK(finish(*s));
  }
}

}  // namespace internal
}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_VERIFY_PIPELINE_H_
