#include "masksearch/cache/cached_mask_store.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "masksearch/obs/metrics.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

namespace {

uint64_t ChargeFor(const Mask& mask) {
  return mask.ByteSize() + kCacheEntryOverheadBytes;
}

/// Counts one cache access on the store and on the current trace.
void Count(std::atomic<uint64_t>& counter, const char* trace_count) {
  counter.fetch_add(1, std::memory_order_relaxed);
  obs::Trace::CurrentAddCount(trace_count, 1);
}

}  // namespace

CachedMaskStore::CachedMaskStore(std::unique_ptr<MaskStore> inner,
                                 std::shared_ptr<const PoolOwner> lease)
    // Empty catalog tables: every accessor forwards to the wrapped store,
    // so the decorator does not duplicate the per-mask metadata.
    : MaskStore(inner->dir(), inner->options(), inner->kind(), {}, {}),
      inner_(std::move(inner)),
      pool_(lease->pool()),
      lease_(std::move(lease)),
      owner_(lease_->id()) {
  // Only the cache traffic: the storage counters are the wrapped store's.
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        sink.Counter("ms_cache_mask_hits_total", cache_hits());
        sink.Counter("ms_cache_mask_misses_total", cache_misses());
      });
}

CachedMaskStore::~CachedMaskStore() {
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

std::unique_ptr<MaskStore> CachedMaskStore::Wrap(
    std::unique_ptr<MaskStore> inner, std::shared_ptr<BufferPool> pool) {
  return Wrap(std::move(inner),
              std::make_shared<const PoolOwner>(std::move(pool)));
}

std::unique_ptr<MaskStore> CachedMaskStore::Wrap(
    std::unique_ptr<MaskStore> inner, std::shared_ptr<const PoolOwner> owner) {
  return std::unique_ptr<MaskStore>(
      new CachedMaskStore(std::move(inner), std::move(owner)));
}

size_t CachedMaskStore::CountResident(const std::vector<MaskId>& ids) const {
  size_t resident = 0;
  for (MaskId id : ids) {
    // Contains is a pure probe: no hit/miss accounting, no promotion — a
    // prefetch decision must not distort the cache statistics or the LRU
    // order the real accesses will see.
    if (id >= 0 && id < num_masks() && pool_->Contains(KeyFor(id))) {
      ++resident;
    }
  }
  return resident;
}

Result<BufferPool::Pin> CachedMaskStore::PinMask(MaskId id) const {
  BufferPool::Pin pin = pool_->Lookup(KeyFor(id));
  if (pin) {
    Count(hits_, "cache_hits");
    return pin;
  }
  Count(misses_, "cache_misses");
  MS_TRACE_SPAN("cache_miss_load");
  MS_ASSIGN_OR_RETURN(Mask mask, inner_->LoadMask(id));
  auto value = std::make_shared<const Mask>(std::move(mask));
  const uint64_t bytes = ChargeFor(*value);
  return pool_->Insert(KeyFor(id), std::move(value), bytes);
}

Result<Mask> CachedMaskStore::LoadMask(MaskId id) const {
  MS_RETURN_NOT_OK(CheckId(id));
  MS_ASSIGN_OR_RETURN(BufferPool::Pin pin, PinMask(id));
  return *static_cast<const Mask*>(pin.get());  // copy out while pinned
}

Result<std::vector<Mask>> CachedMaskStore::LoadMaskBatch(
    const std::vector<MaskId>& ids) const {
  std::vector<Mask> out(ids.size());
  if (ids.empty()) return out;
  for (MaskId id : ids) MS_RETURN_NOT_OK(CheckId(id));

  // One pool access per distinct id: duplicates share the entry.
  std::vector<MaskId> uniq;
  std::vector<std::vector<size_t>> positions;  // uniq slot -> out indexes
  std::unordered_map<MaskId, size_t> slot_of;
  uniq.reserve(ids.size());
  slot_of.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto [it, fresh] = slot_of.try_emplace(ids[i], uniq.size());
    if (fresh) {
      uniq.push_back(ids[i]);
      positions.emplace_back();
    }
    positions[it->second].push_back(i);
  }

  // Pin hits up front so the miss-side inserts below can never evict a
  // member of this very batch before it is copied out.
  std::vector<BufferPool::Pin> pins(uniq.size());
  std::vector<MaskId> missing;
  std::vector<size_t> missing_slot;
  for (size_t u = 0; u < uniq.size(); ++u) {
    pins[u] = pool_->Lookup(KeyFor(uniq[u]));
    if (pins[u]) {
      Count(hits_, "cache_hits");
    } else {
      Count(misses_, "cache_misses");
      missing.push_back(uniq[u]);
      missing_slot.push_back(u);
    }
  }

  if (!missing.empty()) {
    MS_TRACE_SPAN("cache_miss_load");
    // One coalesced, shard-parallel inner batch for all misses.
    MS_ASSIGN_OR_RETURN(std::vector<Mask> loaded,
                        inner_->LoadMaskBatch(missing));
    for (size_t j = 0; j < missing.size(); ++j) {
      auto value = std::make_shared<const Mask>(std::move(loaded[j]));
      const uint64_t bytes = ChargeFor(*value);
      pins[missing_slot[j]] =
          pool_->Insert(KeyFor(missing[j]), std::move(value), bytes);
    }
  }

  for (size_t u = 0; u < uniq.size(); ++u) {
    const Mask& mask = *static_cast<const Mask*>(pins[u].get());
    for (size_t i : positions[u]) out[i] = mask;
  }
  return out;  // pins released here, after every copy is made
}

Status CachedMaskStore::ReadBlob(MaskId id, std::string* out) const {
  return inner_->ReadBlob(id, out);  // raw bytes: bypass by design
}

}  // namespace masksearch
