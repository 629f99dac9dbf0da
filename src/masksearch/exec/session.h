// Session: the top-level MaskSearch handle.
//
// A session has exactly one CHI source for a mask store — its own
// IndexManager, or the external source of SessionOptions::shared_chis —
// and runs queries through the filter–verification executors, which see
// only that source.
// It implements the three regimes compared in the paper's evaluation:
//
//   * vanilla MaskSearch (MS): indexes are bulk-built when the session opens
//     (§3.1); the build cost is reported so multi-query experiments can
//     amortize it (Figure 11). A complete index never retains anything.
//   * incremental MaskSearch (MS-II): the session starts with no indexes and
//     builds the CHI of each mask the first time a query loads it (§3.6).
//   * index-less execution (use_index = false): the executors get no
//     source, so every query degenerates to load-and-scan — the behaviour
//     of the NumPy/PostgreSQL baselines — through the exact same code.
//
// Session end: Save() persists the CHI set for future sessions (§3.6).

#ifndef MASKSEARCH_EXEC_SESSION_H_
#define MASKSEARCH_EXEC_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/exec/agg_executor.h"
#include "masksearch/exec/filter_executor.h"
#include "masksearch/exec/mask_agg.h"
#include "masksearch/exec/options.h"
#include "masksearch/exec/topk_executor.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

struct SessionOptions {
  ChiConfig chi;
  /// false: bulk-build all CHIs at open (MS). true: start empty and index
  /// incrementally (MS-II).
  bool incremental = false;
  /// false: the executors get no CHI source (baseline behaviour). The
  /// session's own IndexManager stays empty.
  bool use_index = true;
  ThreadPool* pool = nullptr;
  /// I/O pool for the overlapped verification pipeline (see
  /// EngineOptions::io_pool): while one batch is verified, the next batch's
  /// mask reads are already in flight. Null disables overlap. May alias
  /// `pool`.
  ThreadPool* io_pool = nullptr;
  bool sort_by_bound = true;
  /// Verification batch size (EngineOptions::verify_batch; 0 = auto).
  /// Results are batch-size independent; serving deployments pick smaller
  /// batches for finer-grained deadline/cancel checks — executors poll
  /// QueryControl at batch boundaries, so a request can overrun its
  /// deadline by at most one batch of work (docs/SERVING.md).
  size_t verify_batch = 0;
  /// Optional CHI persistence file. If it exists it is loaded at open;
  /// Save() writes it.
  std::string index_path;
  /// With index_path set and the file present: attach it in on-demand mode
  /// (§3.2 — CHIs read from disk on first use) instead of loading every CHI
  /// into memory up front. No bulk index build happens at open.
  bool attach_index = false;
  /// Memory subsystem (docs/CACHING.md): buffer pool backing this session's
  /// per-group derived-index caches. Pass the same pool as
  /// MaskStore::Options::cache to run mask blobs and CHIs under one byte
  /// budget. Null: the derived caches get a private pool with no byte
  /// limit.
  std::shared_ptr<BufferPool> cache;
  /// External per-mask CHI source (caller-owned, must outlive the session;
  /// its ChiConfig must equal `chi`). When set it replaces the session's
  /// own IndexManager: nothing is loaded or bulk-built at open
  /// (`incremental`, `index_path` and `attach_index` do not apply), and
  /// verification retains the CHIs it builds into it. The ingest layer
  /// passes the CHI index a snapshot was published with, so CHIs built at
  /// append time or by any query keep pruning for every later epoch that
  /// shares it (docs/INGEST.md).
  ChiSource* shared_chis = nullptr;
};

/// Thread safety: after Open returns, the query methods (Filter / TopK /
/// Aggregate / MaskAggregate) are safe to call concurrently from many
/// threads — the serving layer (docs/SERVING.md) runs its executor slots
/// against one shared Session. The shared state they touch is concurrency-
/// safe by construction: MaskStore loads, ChiSource lookup/retention,
/// the BufferPool-backed caches, and the (mutex-guarded) derived-cache
/// registry. Save() and the accessors are not synchronized against
/// concurrent queries; call them from one thread at a quiescent point.
class Session {
 public:
  static Result<std::unique_ptr<Session>> Open(const MaskStore* store,
                                               const SessionOptions& options);

  /// Query entry points. `control` (optional, caller-owned, must outlive
  /// the call) carries the per-request deadline / cancellation state the
  /// executors poll at batch boundaries (see QueryControl in options.h).
  Result<FilterResult> Filter(const FilterQuery& q,
                              const QueryControl* control = nullptr);
  Result<TopKResult> TopK(const TopKQuery& q,
                          const QueryControl* control = nullptr);
  Result<AggResult> Aggregate(const AggregationQuery& q,
                              const QueryControl* control = nullptr);
  Result<AggResult> MaskAggregate(const MaskAggQuery& q,
                                  const QueryControl* control = nullptr);

  /// \brief Wall seconds spent bulk-building indexes at open (0 for MS-II).
  double index_build_seconds() const { return index_build_seconds_; }

  /// \brief Persists the current (possibly partial) CHI set (§3.6).
  Status Save();

  const MaskStore& store() const { return *store_; }
  /// \brief The session's own IndexManager; null when shared_chis supplies
  /// the source.
  IndexManager* index() { return index_.get(); }
  /// \brief The one per-mask CHI source every query of the session uses:
  /// its own IndexManager or shared_chis; null when use_index is false.
  ChiSource* chis() const { return chis_; }
  const SessionOptions& options() const { return options_; }

  /// \brief Derived-mask CHI cache for a MASK_AGG template; caches persist
  /// across queries within the session (capacity-bounded when the session
  /// has a buffer pool). Thread-safe: concurrent MASK_AGG queries sharing
  /// one template resolve to one cache instance.
  DerivedIndexCache* derived_cache(MaskAggOp op, double threshold);

  /// \brief The session's buffer pool (null without one). Its CacheStats
  /// cover every cache sharing the pool, including a CachedMaskStore's.
  BufferPool* cache() const { return options_.cache.get(); }

 private:
  Session(const MaskStore* store, SessionOptions options);

  EngineOptions engine_options(const QueryControl* control = nullptr) const {
    EngineOptions e;
    e.pool = options_.pool;
    e.io_pool = options_.io_pool;
    e.sort_by_bound = options_.sort_by_bound;
    e.verify_batch = options_.verify_batch;
    e.control = control;
    return e;
  }

  const MaskStore* store_;
  SessionOptions options_;
  std::unique_ptr<IndexManager> index_;  ///< null with shared_chis
  ChiSource* chis_ = nullptr;
  std::mutex derived_mu_;  ///< guards derived_caches_ (concurrent MASK_AGG)
  std::map<std::pair<int, int64_t>, std::unique_ptr<DerivedIndexCache>>
      derived_caches_;
  double index_build_seconds_ = 0.0;
};

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_SESSION_H_
