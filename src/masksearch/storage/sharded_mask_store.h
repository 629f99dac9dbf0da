// ShardedMaskStore: the MaskStore implementation behind MaskStore::Open.
//
// Holds one RandomAccessFile per data-file shard and a per-mask offset table
// (offsets are within the owning shard; placement is the deterministic
// shard = id % num_shards). A single-file (manifest v1) store is the 1-shard
// degenerate case, so the pre-sharding format opens unchanged.
//
// LoadMaskBatch partitions a request by shard, sorts each shard's ids by
// offset, coalesces nearby blobs into scatter reads (ReadVAt) exactly as the
// single-file loader did, and — when Options::io_pool is set — issues the
// per-shard read loops concurrently. On a device with queue depth (real
// NVMe, or DiskThrottle queue_depth > 1) the concurrent shard reads overlap
// their per-request latencies; see docs/PERFORMANCE.md. LoadMaskWindows
// runs the same loader over row windows (and with it the base LoadMaskRows,
// a one-entry LoadMaskWindows): a raw window is the byte range
// [offset + y0·row_bytes, offset + y1·row_bytes) of its blob.

#ifndef MASKSEARCH_STORAGE_SHARDED_MASK_STORE_H_
#define MASKSEARCH_STORAGE_SHARDED_MASK_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "masksearch/storage/mask_store.h"

namespace masksearch {

class ShardedMaskStore final : public MaskStore {
 public:
  /// \brief Opens the shard data files of a parsed manifest. Called by
  /// MaskStore::Open; `offsets` are within-shard blob offsets.
  static Result<std::unique_ptr<MaskStore>> Create(
      const std::string& dir, const Options& opts, StorageKind kind,
      int32_t num_shards, std::vector<MaskMeta> metas,
      std::vector<uint64_t> offsets, std::vector<uint64_t> sizes);

  ~ShardedMaskStore() override;

  int32_t num_shards() const override {
    return static_cast<int32_t>(shards_.size());
  }

  Result<Mask> LoadMask(MaskId id) const override;
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override;
  Result<std::vector<Mask>> LoadMaskWindows(
      const std::vector<MaskId>& ids,
      const std::vector<RowWindow>& windows) const override;
  bool ReadsRowWindows() const override {
    return kind_ == StorageKind::kRawFloat32;
  }
  Status ReadBlob(MaskId id, std::string* out) const override;

 private:
  ShardedMaskStore(std::string dir, Options opts, StorageKind kind,
                   std::vector<MaskMeta> metas, std::vector<uint64_t> offsets,
                   std::vector<uint64_t> sizes,
                   std::vector<std::unique_ptr<RandomAccessFile>> shards);

  int32_t ShardOf(MaskId id) const {
    return static_cast<int32_t>(id % static_cast<MaskId>(shards_.size()));
  }

  /// The throttle modeling shard `shard`'s device: the per-shard throttle
  /// under Options::throttle_per_shard, the shared one otherwise (may be
  /// null = unthrottled).
  DiskThrottle* ThrottleFor(int32_t shard) const {
    if (!shard_throttles_.empty()) return shard_throttles_[shard].get();
    return opts_.throttle.get();
  }

  /// Corruption when a raw blob's manifest shape disagrees with its size:
  /// offsets computed from that shape would read into the next blob.
  Status CheckBlobShape(MaskId id) const;

  /// The bytes one batch entry reads: its whole blob, or for a raw row
  /// window the window's rows (`rows` of them) within the blob.
  struct Extent {
    uint64_t offset = 0;  ///< within the owning shard
    uint64_t size = 0;
    int32_t rows = 0;
  };

  /// The one batch loader behind LoadMaskBatch (`windows` null: whole
  /// masks) and LoadMaskWindows (`windows` parallel to `ids`). Validates every entry, then reads each shard's extents with
  /// LoadShardRuns, shard-parallel on Options::io_pool.
  Result<std::vector<Mask>> LoadWindows(const std::vector<MaskId>& ids,
                                        const RowWindow* windows) const;

  /// The merge gap of row-window reads on shard `shard`: the bytes its
  /// modeled device moves in one request's latency, bytes_per_sec ×
  /// latency_us / 1e6, capped by Options::batch_gap_bytes (reading a
  /// narrower gap is cheaper than a request); batch_gap_bytes when the
  /// shard models no bandwidth. Whole-blob batches always use
  /// batch_gap_bytes (docs/STORAGE_FORMAT.md).
  uint64_t WindowGap(int32_t shard) const;

  /// Coalesced scatter-read loop over one shard's slice
  /// [order, order + count) of the batch order (entries sorted by extent
  /// within this shard), decoding into out[order[p]]. Extents at most
  /// `merge_gap` bytes apart share one read.
  Status LoadShardRuns(int32_t shard, const std::vector<MaskId>& ids,
                       const std::vector<Extent>& extents,
                       const size_t* order, size_t count, uint64_t merge_gap,
                       std::vector<Mask>* out) const;

  std::vector<uint64_t> offsets_;  ///< within the owning shard
  std::vector<std::unique_ptr<RandomAccessFile>> shards_;
  /// One modeled device per shard (Options::throttle_per_shard); empty when
  /// all shards share Options::throttle.
  std::vector<std::shared_ptr<DiskThrottle>> shard_throttles_;
  /// Emits the ms_storage_* read counters (docs/OBSERVABILITY.md).
  size_t metrics_collector_ = 0;
};

/// \brief Rewrites the store at `src` into `dst_dir` with `num_shards` data
/// files (1 converts a sharded store back to the single-file layout). Blobs
/// are copied verbatim (no decode/re-encode); metadata, ids, and per-mask
/// blob bytes are preserved exactly. Reads are counted on `src` as raw blob
/// reads (bytes + requests, not mask loads).
Status ReshardMaskStore(const MaskStore& src, const std::string& dst_dir,
                        int32_t num_shards);

}  // namespace masksearch

#endif  // MASKSEARCH_STORAGE_SHARDED_MASK_STORE_H_
