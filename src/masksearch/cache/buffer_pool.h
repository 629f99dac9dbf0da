// BufferPool: the capacity-bounded memory subsystem (docs/CACHING.md).
//
// A sharded (lock-striped) buffer pool caching immutable, variable-size
// objects — decoded mask blobs (CachedMaskStore) and per-mask / per-group
// CHIs (ChiCache) — under one byte budget. Repeated and overlapping query
// workloads (the Figure 11 exploration scenarios) hit memory instead of the
// (modeled) disk on every pass after the first.
//
// Replacement is segmented LRU with a scan-resistant admission policy
// (CacheAdmission::kScanResistant, the default): a newly inserted entry
// enters the *probation* segment and is promoted to the *protected* segment
// only when it is referenced again, so a one-touch full scan churns through
// probation without flushing the re-referenced working set. The protected
// segment is capped at Options::hot_fraction of the budget; overflow demotes
// its LRU tail back to probation. CacheAdmission::kAdmitAll degenerates to a
// plain LRU (every insert goes straight to the protected segment).
//
// Pinning: Lookup/Insert return a Pin — an RAII reference that prevents
// eviction of the entry while it is alive, so an in-flight verification
// batch can never have its members evicted mid-use by a concurrent insert.
// Pinned entries are skipped by the eviction scan; the byte budget is
// therefore a soft bound that can be exceeded transiently while pins are
// outstanding (by at most the pinned bytes). Entry payloads are held by
// shared_ptr, so a caller that keeps the Pin's value alive past the Pin's
// lifetime still holds valid (if no longer budget-accounted) data.
//
// Thread safety: all operations are safe for concurrent use; each pool
// shard is protected by its own mutex (Options::shards lock stripes).

#ifndef MASKSEARCH_CACHE_BUFFER_POOL_H_
#define MASKSEARCH_CACHE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <string>

namespace masksearch {

/// \brief Namespace of a cache entry: what kind of object the key's id
/// refers to. Keys of different spaces never collide.
enum class CacheSpace : uint8_t {
  kMaskBlob = 0,    ///< decoded mask (CachedMaskStore), id = mask_id
  kMaskChi = 1,     ///< individual-mask CHI (ChiCache), id = mask_id
  kDerivedChi = 2,  ///< derived/per-group CHI (ChiCache), id = group key
};

/// \brief Admission/replacement policy of a BufferPool.
enum class CacheAdmission : uint8_t {
  /// Plain LRU: every insert is admitted as most-recently-used. A one-touch
  /// scan larger than the budget evicts everything else.
  kAdmitAll = 0,
  /// Segmented LRU (default): inserts enter probation and must be
  /// re-referenced to reach the protected segment, so one-touch scans
  /// cannot flush the working set.
  kScanResistant = 1,
};

/// \brief Key of a cached object. `owner` is the identity of the opened
/// store / cache instance that put the entry (BufferPool::NewOwnerId), so
/// one pool can be shared by several stores and sessions without key
/// collisions — a store produced by ReshardMaskStore opens under a fresh
/// owner and therefore with a cold, consistent cache. `shard` is the
/// data-file shard owning the blob (0 for CHI spaces): shard identity is
/// part of the key, and it also spreads one store's entries across the
/// pool's lock stripes.
struct CacheKey {
  uint64_t owner = 0;
  int64_t id = 0;
  int32_t shard = 0;
  CacheSpace space = CacheSpace::kMaskBlob;

  bool operator==(const CacheKey& o) const {
    return owner == o.owner && id == o.id && shard == o.shard &&
           space == o.space;
  }
};

/// \brief Byte charge added to every entry on top of its payload, covering
/// the map node, LRU links, and shared_ptr control block.
constexpr uint64_t kCacheEntryOverheadBytes = 64;

/// \brief Point-in-time counters of a BufferPool (aggregated over all
/// shards). Monotonic counters (hits/misses/...) reset only with the pool.
struct CacheStats {
  uint64_t budget_bytes = 0;
  int32_t shards = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_entries = 0;
  uint64_t pinned_entries = 0;
  uint64_t pinned_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts refused admission (payload larger than one shard's budget).
  uint64_t admission_rejects = 0;

  double HitRatio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  std::string ToString() const;
};

class BufferPool {
 public:
  struct Options {
    /// Total byte budget across all shards (a soft bound under pinning).
    uint64_t budget_bytes = 256ull << 20;
    /// Lock stripes. Each shard owns budget_bytes / shards and evicts
    /// independently. Clamped to [1, 1024].
    int32_t shards = 8;
    CacheAdmission admission = CacheAdmission::kScanResistant;
    /// Cap of the protected segment as a fraction of the (per-shard)
    /// budget; only meaningful under kScanResistant.
    double hot_fraction = 0.8;
  };

  /// \brief RAII eviction pin. While alive, the referenced entry cannot be
  /// evicted. A default-constructed / moved-from Pin is empty (false). A
  /// Pin returned for a rejected insert is *detached*: it owns the payload
  /// but references no pool entry.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }
    Pin(Pin&& o) noexcept { *this = std::move(o); }
    Pin& operator=(Pin&& o) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    explicit operator bool() const { return value_ != nullptr; }
    const void* get() const { return value_.get(); }
    /// Shared ownership of the payload; outlives the Pin (and any
    /// eviction) if copied out.
    const std::shared_ptr<const void>& value() const { return value_; }

    void Release();

   private:
    friend class BufferPool;
    Pin(BufferPool* pool, void* shard, void* entry,
        std::shared_ptr<const void> value)
        : pool_(pool), shard_(shard), entry_(entry),
          value_(std::move(value)) {}

    BufferPool* pool_ = nullptr;
    void* shard_ = nullptr;  ///< Shard*; void to keep the impl private
    void* entry_ = nullptr;  ///< Entry*
    std::shared_ptr<const void> value_;
  };

  explicit BufferPool(const Options& opts);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Process-unique owner identity for CacheKey::owner.
  static uint64_t NewOwnerId();

  /// \brief Resolves the "shared pool or private-pool knobs" configuration
  /// pattern of IngestorOptions and the CLI and bench flags: returns
  /// `shared` when set, a fresh pool built from the knobs when
  /// budget_bytes > 0, null otherwise.
  static std::shared_ptr<BufferPool> MaybeCreate(
      std::shared_ptr<BufferPool> shared, uint64_t budget_bytes,
      int32_t shards, CacheAdmission admission);

  /// \brief Looks up `key`; counts a hit or miss. A hit promotes the entry
  /// (probation -> protected) and returns it pinned.
  Pin Lookup(const CacheKey& key);

  /// \brief Inserts `value` (charged `bytes`, which should include
  /// kCacheEntryOverheadBytes) and returns it pinned. First insert wins: if
  /// the key is already resident the existing entry is returned and `value`
  /// is dropped. A payload larger than one shard's budget is rejected
  /// (admission_rejects) and returned as a detached Pin so the caller's use
  /// of the value is uniform. Eviction back to budget happens here and
  /// skips pinned entries.
  Pin Insert(const CacheKey& key, std::shared_ptr<const void> value,
             uint64_t bytes);

  /// \brief Residency probe: no promotion, no hit/miss accounting.
  bool Contains(const CacheKey& key) const;

  /// \brief Evicts every unpinned entry of `owner` (store/cache teardown).
  void EraseOwner(uint64_t owner);

  /// \brief Evicts every unpinned entry (all owners).
  void Clear();

  /// \brief Resident entry/byte count of one owner (CLI stats; O(entries)).
  void OwnerUsage(uint64_t owner, uint64_t* entries, uint64_t* bytes) const;

  CacheStats Stats() const;
  const Options& options() const { return opts_; }

 private:
  struct Entry;
  struct Lru;
  struct Shard;

  Shard& ShardFor(const CacheKey& key) const;
  void PinLocked(Shard& s, Entry* e);
  void Unpin(Shard* s, Entry* e);
  void TouchLocked(Shard& s, Entry* e);
  void EnforceHotCapLocked(Shard& s);
  bool EvictOneLocked(Shard& s);
  void EvictToBudgetLocked(Shard& s);

  Options opts_;
  uint64_t shard_budget_ = 0;
  uint64_t hot_cap_ = 0;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace masksearch

#endif  // MASKSEARCH_CACHE_BUFFER_POOL_H_
