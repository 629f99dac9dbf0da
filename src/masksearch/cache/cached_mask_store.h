// CachedMaskStore: a buffer-pool caching decorator over any MaskStore.
//
// Returned by MaskStore::Open when Options::cache is set. Serves repeated
// LoadMask / LoadMaskBatch requests for *decoded* masks from the pool — a
// warm pass over a previously touched working set costs memory-copy time
// instead of the (modeled) disk plus decode.
//
// Pinning protocol (docs/CACHING.md): LoadMaskBatch pins every entry it
// touches — hits up front, misses as their loads complete — and copies the
// batch out before releasing the pins, so the inserts of a batch larger
// than the budget can never evict the batch's own members mid-assembly, and
// concurrent batches (the io_pool prefetch pipelines) can never evict each
// other's in-flight entries. Duplicate ids in a batch resolve to one pool
// access and one decode.
//
// Row windows: ReadsRowWindows() stays false and LoadMaskWindows is the
// base default (whole masks through the cache, windows copied out), so the
// executors' verification loads read whole masks and keep filling the
// cache — a slice is never a cache entry.
//
// Accounting: masks_loaded()/bytes_read() forward to the wrapped store, so
// they keep meaning *physical* storage traffic — a warm hit moves neither.
// Cache traffic is reported by cache_hits()/cache_misses() and the pool's
// CacheStats. ReadBlob (migration/replication) deliberately bypasses the
// cache, so ReshardMaskStore sees stored bytes verbatim and its output
// opens under a fresh PoolOwner lease — i.e. with a cold, consistent cache.
// Entries leave the pool when the last holder of the store's lease drops it.

#ifndef MASKSEARCH_CACHE_CACHED_MASK_STORE_H_
#define MASKSEARCH_CACHE_CACHED_MASK_STORE_H_

#include <atomic>
#include <memory>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/storage/mask_store.h"

namespace masksearch {

class CachedMaskStore final : public MaskStore {
 public:
  /// \brief Wraps `inner` with cache `pool` (both non-null) under a fresh
  /// lease: two stores sharing one pool never cross-hit, and reopening a
  /// store starts cold.
  static std::unique_ptr<MaskStore> Wrap(std::unique_ptr<MaskStore> inner,
                                         std::shared_ptr<BufferPool> pool);
  /// \brief Wraps `inner` under the shared lease `owner`: every store on one
  /// lease must return the same mask for each id (docs/INGEST.md).
  static std::unique_ptr<MaskStore> Wrap(std::unique_ptr<MaskStore> inner,
                                         std::shared_ptr<const PoolOwner> owner);

  ~CachedMaskStore() override;

  int32_t num_shards() const override { return inner_->num_shards(); }

  // Catalog accessors forward to the wrapped store: the decorator carries
  // no duplicate per-mask tables.
  int64_t num_masks() const override { return inner_->num_masks(); }
  const MaskMeta& meta(MaskId id) const override { return inner_->meta(id); }
  const std::vector<MaskMeta>& metas() const override {
    return inner_->metas();
  }
  uint64_t BlobSize(MaskId id) const override { return inner_->BlobSize(id); }
  uint64_t TotalDataBytes() const override {
    return inner_->TotalDataBytes();
  }

  size_t CountResident(const std::vector<MaskId>& ids) const override;

  Result<Mask> LoadMask(MaskId id) const override;
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override;
  Result<Mask> LoadMaskRows(MaskId id, int32_t y0, int32_t y1) const override;
  Status ReadBlob(MaskId id, std::string* out) const override;

  uint64_t masks_loaded() const override { return inner_->masks_loaded(); }
  uint64_t bytes_read() const override { return inner_->bytes_read(); }
  void ResetCounters() override {
    inner_->ResetCounters();
    hits_.store(0);
    misses_.store(0);
  }

  /// \brief Cache accesses of this store: one per distinct id per batch.
  uint64_t cache_hits() const { return hits_.load(); }
  uint64_t cache_misses() const { return misses_.load(); }

  const MaskStore& inner() const { return *inner_; }
  const std::shared_ptr<BufferPool>& pool() const { return pool_; }

 private:
  CachedMaskStore(std::unique_ptr<MaskStore> inner,
                  std::shared_ptr<const PoolOwner> lease);

  CacheKey KeyFor(MaskId id) const {
    CacheKey k;
    k.owner = owner_;
    k.id = id;
    k.shard = static_cast<int32_t>(
        id % static_cast<MaskId>(inner_->num_shards()));
    k.space = CacheSpace::kMaskBlob;
    return k;
  }

  /// Pins the cached entry for `id`, loading it through `inner_` on a miss.
  Result<BufferPool::Pin> PinMask(MaskId id) const;

  std::unique_ptr<MaskStore> inner_;
  std::shared_ptr<BufferPool> pool_;
  std::shared_ptr<const PoolOwner> lease_;
  uint64_t owner_;  ///< lease_->id()
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  size_t metrics_collector_ = 0;  ///< emits ms_cache_mask_{hits,misses}_total
};

}  // namespace masksearch

#endif  // MASKSEARCH_CACHE_CACHED_MASK_STORE_H_
