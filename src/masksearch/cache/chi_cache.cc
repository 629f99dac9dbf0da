#include "masksearch/cache/chi_cache.h"

#include <limits>
#include <utility>

namespace masksearch {

namespace {

std::shared_ptr<BufferPool> UnboundedPool() {
  BufferPool::Options opts;
  opts.budget_bytes = std::numeric_limits<uint64_t>::max();
  return std::make_shared<BufferPool>(opts);
}

}  // namespace

ChiCache::ChiCache(std::shared_ptr<BufferPool> pool, ChiConfig config,
                   CacheSpace space)
    : pool_(pool != nullptr ? std::move(pool) : UnboundedPool()),
      config_(std::move(config)),
      space_(space),
      owner_(BufferPool::NewOwnerId()) {}

ChiCache::~ChiCache() { pool_->EraseOwner(owner_); }

std::shared_ptr<const Chi> ChiCache::Get(int64_t key) const {
  BufferPool::Pin pin = pool_->Lookup(KeyFor(key));
  if (!pin) return nullptr;
  return std::static_pointer_cast<const Chi>(pin.value());
}

std::shared_ptr<const Chi> ChiCache::Put(int64_t key, Chi chi) {
  auto value = std::make_shared<const Chi>(std::move(chi));
  const uint64_t bytes = value->MemoryBytes() + kCacheEntryOverheadBytes;
  BufferPool::Pin pin = pool_->Insert(KeyFor(key), value, bytes);
  return std::static_pointer_cast<const Chi>(pin.value());
}

bool ChiCache::Contains(int64_t key) const {
  return pool_->Contains(KeyFor(key));
}

size_t ChiCache::size() const {
  uint64_t entries = 0;
  pool_->OwnerUsage(owner_, &entries, nullptr);
  return static_cast<size_t>(entries);
}

}  // namespace masksearch
