// Compactor: online generation rewrite for a live Ingestor
// (docs/COMPACTION.md).
//
// A compaction copies every *live* (non-tombstoned) mask of the current
// store generation into a fresh generation directory, optionally
// re-sharding to a new shard count (the same verbatim-blob machinery as
// ReshardMaskStore — ReadBlob + AppendBlob, no decode/re-encode), fsyncs
// it, and atomically swaps it in as the next epoch. The protocol is
// snapshot-pinned and two-phase:
//
//   phase A (no ingest locks held, I/O-throttled): pin the current
//     Snapshot and bulk-copy its visible masks — writers keep appending
//     and queries keep serving at full speed, with compaction bandwidth
//     bounded by CompactorOptions::throttle_bytes_per_sec;
//   phase B (under the ingest write lock — the measured "swap pause"):
//     catch-up-copy the few masks appended since the pin, translate
//     surviving tombstones into the new id space, write the new
//     generation's manifest + tombstone sidecar, flip the
//     `ingest.generation` sidecar (the atomic swap point), and publish
//     the next epoch.
//
// Queries admitted before the swap keep reading the old generation through
// their pinned Snapshot; the old generation's files are deleted only when
// the last pin drains (GenerationHandle refcounting). Concurrent Compact()
// calls serialize on an internal mutex; cumulative counters are persisted
// to an `ingest.maintenance` sidecar so `masksearch_cli stats` can report
// them offline.

#ifndef MASKSEARCH_MAINTAIN_COMPACTOR_H_
#define MASKSEARCH_MAINTAIN_COMPACTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "masksearch/common/result.h"
#include "masksearch/ingest/ingestor.h"
#include "masksearch/obs/histogram.h"
#include "masksearch/storage/disk_throttle.h"

namespace masksearch {

struct CompactorOptions {
  /// Bulk-copy I/O budget in bytes/sec (charged once per blob, covering
  /// the read + write pair). 0 disables throttling. The default keeps
  /// query p99 under compaction within the acceptance envelope
  /// (bench_ingest's `query_p99_while_compacting_ms`).
  double throttle_bytes_per_sec = 256.0 * 1024 * 1024;
  /// Shard count of the rewritten generation; 0 keeps the current one.
  /// This is the online re-shard path: the new layout serves the next
  /// epoch while pinned snapshots keep reading the old one.
  int32_t target_num_shards = 0;
};

/// \brief Result of one compaction run.
struct CompactionStats {
  int64_t generation = 0;       ///< generation the run produced
  int64_t masks_copied = 0;     ///< live masks rewritten (bulk + catch-up)
  int64_t masks_dropped = 0;    ///< tombstoned masks left behind
  uint64_t bytes_copied = 0;    ///< blob bytes rewritten
  uint64_t dead_bytes_reclaimed = 0;  ///< dead weight shed from disk
  double total_ms = 0.0;        ///< wall time of the whole run
  double swap_pause_ms = 0.0;   ///< time the ingest write lock was held

  std::string ToString() const;
};

/// \brief Cumulative maintenance counters, persisted to the
/// `ingest.maintenance` sidecar after every run (best-effort, atomic).
struct MaintenanceCounters {
  int64_t compactions_completed = 0;
  int64_t compactions_failed = 0;
  uint64_t bytes_copied_total = 0;
  uint64_t dead_bytes_reclaimed_total = 0;
  int64_t masks_dropped_total = 0;
  double last_compaction_ms = 0.0;
  double last_swap_pause_ms = 0.0;
  int64_t last_generation = 0;

  std::string ToString() const;
};

/// \brief Sidecar file holding the persisted MaintenanceCounters.
std::string IngestMaintenancePath(const std::string& dir);

/// \brief Reads the maintenance sidecar of a store directory. A missing
/// file is all-zero counters (the store was never compacted); a damaged
/// header is a typed Corruption.
Result<MaintenanceCounters> ReadMaintenanceCounters(const std::string& dir);

class Compactor {
 public:
  /// `ingestor` must outlive the compactor. Existing persisted counters
  /// are loaded so cumulative totals survive restarts.
  explicit Compactor(Ingestor* ingestor, CompactorOptions opts = {});

  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// \brief Runs one full compaction (phases A and B above) and returns
  /// its stats. Thread-safe: concurrent calls serialize.
  Result<CompactionStats> Compact();

  /// \brief Cumulative counters across this compactor's lifetime plus any
  /// persisted history.
  MaintenanceCounters Counters() const;

  const CompactorOptions& options() const { return opts_; }
  DiskThrottle* throttle() { return &throttle_; }

 private:
  Result<CompactionStats> CompactLocked();  ///< caller holds run_mu_
  /// Best-effort sidecar write; caller holds run_mu_.
  void Persist(const MaintenanceCounters& counters);

  Ingestor* ingestor_;
  CompactorOptions opts_;
  DiskThrottle throttle_;
  std::mutex run_mu_;  ///< serializes Compact() runs
  /// Guards the counters only, so Counters() and metrics scrapes never
  /// wait out a running compaction.
  mutable std::mutex mu_;
  MaintenanceCounters counters_;
  MaintenanceCounters loaded_;  ///< persisted history at construction
  obs::LogHistogram swap_pauses_;  ///< seconds, this process's runs
  size_t metrics_collector_ = 0;   ///< emits ms_maintain_*
};

}  // namespace masksearch

#endif  // MASKSEARCH_MAINTAIN_COMPACTOR_H_
