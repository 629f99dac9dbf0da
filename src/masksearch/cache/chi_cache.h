// ChiCache: a capacity-bounded CHI collection backed by a BufferPool.
//
// Where IndexManager holds CHIs resident forever (the paper's MS / MS-II
// regimes), a ChiCache keeps them under the pool's byte budget and evicts
// cold ones. Two uses (docs/CACHING.md):
//
//   * individual-mask CHIs (CacheSpace::kMaskChi, key = mask_id): a
//     session's ChiSource under a byte budget. Verification retains the
//     CHI of every whole mask it loads that the cache does not hold.
//   * derived/per-group CHIs (CacheSpace::kDerivedChi, key = the
//     DerivedIndexCache's number for a group's member set): the backing of
//     DerivedIndexCache (§3.4's aggregated-mask indexes), one ChiCache per
//     aggregation template.
//
// Each instance holds its own PoolOwner lease, so many caches (and
// CachedMaskStores) share one pool — one memory budget — without key
// collisions, and a destroyed cache's entries leave the pool with the
// lease. Without a pool a cache gets a private pool with no byte limit, so
// nothing is ever evicted. Get/Put return shared_ptr<const Chi>: the
// returned CHI stays valid even if the entry is evicted while in use.

#ifndef MASKSEARCH_CACHE_CHI_CACHE_H_
#define MASKSEARCH_CACHE_CHI_CACHE_H_

#include <memory>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/index/chi.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/index/chi_source.h"

namespace masksearch {

class ChiCache final : public ChiSource {
 public:
  /// \brief A cache of CHIs built with `config` in `pool`; null = a private
  /// pool with no byte limit. All entries of this instance live under one
  /// fresh lease.
  ChiCache(std::shared_ptr<BufferPool> pool, ChiConfig config,
           CacheSpace space = CacheSpace::kMaskChi);

  ChiCache(const ChiCache&) = delete;
  ChiCache& operator=(const ChiCache&) = delete;

  /// \brief The cached CHI for `key`, or null. Counts a pool hit/miss and
  /// promotes the entry.
  std::shared_ptr<const Chi> Get(int64_t key) const;
  std::shared_ptr<const Chi> Find(MaskId id) const override { return Get(id); }

  /// \brief Registers a CHI (first insert wins; deterministic builds make
  /// the race benign). Returns the resident CHI — the existing one on a
  /// lost race, or `chi` itself if the pool rejected admission.
  std::shared_ptr<const Chi> Put(int64_t key, Chi chi);

  /// \brief Residency probe without hit/miss accounting or promotion.
  bool Contains(int64_t key) const;

  bool Retains(MaskId id) const override { return !Contains(id); }
  void Retain(MaskId id, const Mask& mask) override {
    Put(id, BuildChi(mask, config_));
  }

  /// \brief Resident entry count of this cache (O(pool entries)).
  size_t size() const override;

  const ChiConfig& config() const override { return config_; }

 private:
  CacheKey KeyFor(int64_t key) const {
    CacheKey k;
    k.owner = owner_.id();
    k.id = key;
    k.space = space_;
    return k;
  }

  PoolOwner owner_;
  ChiConfig config_;
  CacheSpace space_;
};

}  // namespace masksearch

#endif  // MASKSEARCH_CACHE_CHI_CACHE_H_
