#include "masksearch/cache/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace masksearch {

namespace {

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer: spreads adjacent ids across shards and buckets.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashKey(const CacheKey& k) {
  uint64_t h = Mix64(k.owner);
  h = Mix64(h ^ static_cast<uint64_t>(k.id));
  h = Mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(k.shard)) << 8) ^
            static_cast<uint64_t>(k.space));
  return h;
}

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    return static_cast<size_t>(HashKey(k));
  }
};

}  // namespace

std::string CacheStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "budget %.2f MiB in %d shards | resident %.2f MiB / %llu entries "
      "(pinned %llu / %.2f MiB) | hits %llu misses %llu (ratio %.3f) | "
      "insertions %llu evictions %llu admission_rejects %llu",
      budget_bytes / 1048576.0, shards, resident_bytes / 1048576.0,
      static_cast<unsigned long long>(resident_entries),
      static_cast<unsigned long long>(pinned_entries),
      pinned_bytes / 1048576.0, static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), HitRatio(),
      static_cast<unsigned long long>(insertions),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(admission_rejects));
  return buf;
}

struct BufferPool::Entry {
  CacheKey key;
  std::shared_ptr<const void> value;
  uint64_t bytes = 0;
  uint32_t pins = 0;
  bool hot = false;
  Entry* prev = nullptr;
  Entry* next = nullptr;
};

/// Intrusive LRU list: head = most recently used, tail = eviction end.
struct BufferPool::Lru {
  Entry* head = nullptr;
  Entry* tail = nullptr;
  uint64_t bytes = 0;

  void PushFront(Entry* e) {
    e->prev = nullptr;
    e->next = head;
    if (head != nullptr) head->prev = e;
    head = e;
    if (tail == nullptr) tail = e;
    bytes += e->bytes;
  }

  void Remove(Entry* e) {
    if (e->prev != nullptr) e->prev->next = e->next;
    if (e->next != nullptr) e->next->prev = e->prev;
    if (head == e) head = e->next;
    if (tail == e) tail = e->prev;
    e->prev = e->next = nullptr;
    bytes -= e->bytes;
  }
};

struct BufferPool::Shard {
  mutable std::mutex mu;
  std::unordered_map<CacheKey, std::unique_ptr<Entry>, CacheKeyHash> map;
  Lru cold;  ///< probation segment (insert side under kScanResistant)
  Lru hot;   ///< protected segment
  uint64_t bytes = 0;  ///< cold.bytes + hot.bytes
  // Monotonic counters (under mu).
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;
  // Current pin accounting: entries with pins > 0.
  uint64_t pinned_entries = 0;
  uint64_t pinned_bytes = 0;
};

BufferPool::Pin& BufferPool::Pin::operator=(Pin&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    shard_ = o.shard_;
    entry_ = o.entry_;
    value_ = std::move(o.value_);
    o.pool_ = nullptr;
    o.shard_ = nullptr;
    o.entry_ = nullptr;
    o.value_.reset();
  }
  return *this;
}

void BufferPool::Pin::Release() {
  if (pool_ != nullptr && entry_ != nullptr) {
    pool_->Unpin(static_cast<Shard*>(shard_), static_cast<Entry*>(entry_));
  }
  pool_ = nullptr;
  shard_ = nullptr;
  entry_ = nullptr;
  value_.reset();
}

BufferPool::BufferPool(const Options& opts) : opts_(opts) {
  opts_.shards = std::clamp(opts_.shards, 1, 1024);
  opts_.hot_fraction = std::clamp(opts_.hot_fraction, 0.0, 1.0);
  shard_budget_ = opts_.budget_bytes / static_cast<uint64_t>(opts_.shards);
  hot_cap_ = static_cast<uint64_t>(
      static_cast<double>(shard_budget_) * opts_.hot_fraction);
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(opts_.shards));
  for (int32_t i = 0; i < opts_.shards; ++i) {
    shards_[i].map.reserve(64);
  }
}

BufferPool::~BufferPool() = default;

std::shared_ptr<BufferPool> BufferPool::MaybeCreate(
    std::shared_ptr<BufferPool> shared, uint64_t budget_bytes, int32_t shards,
    CacheAdmission admission) {
  if (shared != nullptr) return shared;
  if (budget_bytes == 0) return nullptr;
  Options opts;
  opts.budget_bytes = budget_bytes;
  opts.shards = shards;
  opts.admission = admission;
  return std::make_shared<BufferPool>(opts);
}

BufferPool::Shard& BufferPool::ShardFor(const CacheKey& key) const {
  return shards_[HashKey(key) % static_cast<uint64_t>(opts_.shards)];
}

void BufferPool::PinLocked(Shard& s, Entry* e) {
  if (e->pins++ == 0) {
    ++s.pinned_entries;
    s.pinned_bytes += e->bytes;
  }
}

void BufferPool::Unpin(Shard* s, Entry* e) {
  std::lock_guard<std::mutex> lock(s->mu);
  if (--e->pins == 0) {
    --s->pinned_entries;
    s->pinned_bytes -= e->bytes;
    // Pins can carry a shard over budget; settle the debt as they drop.
    if (s->bytes > shard_budget_) EvictToBudgetLocked(*s);
  }
}

void BufferPool::TouchLocked(Shard& s, Entry* e) {
  (e->hot ? s.hot : s.cold).Remove(e);
  e->hot = true;
  s.hot.PushFront(e);
  EnforceHotCapLocked(s);
}

void BufferPool::EnforceHotCapLocked(Shard& s) {
  if (opts_.admission != CacheAdmission::kScanResistant) return;
  // Demote the protected tail back to probation until the segment fits;
  // pinned entries and the just-promoted head stay put.
  while (s.hot.bytes > hot_cap_ && s.hot.tail != s.hot.head) {
    Entry* victim = s.hot.tail;
    while (victim != nullptr && victim->pins > 0) victim = victim->prev;
    if (victim == nullptr || victim == s.hot.head) break;
    s.hot.Remove(victim);
    victim->hot = false;
    s.cold.PushFront(victim);
  }
}

bool BufferPool::EvictOneLocked(Shard& s) {
  for (Lru* lru : {&s.cold, &s.hot}) {
    for (Entry* e = lru->tail; e != nullptr; e = e->prev) {
      if (e->pins > 0) continue;
      lru->Remove(e);
      s.bytes -= e->bytes;
      ++s.evictions;
      const CacheKey key = e->key;  // copy: erase destroys e
      s.map.erase(key);             // payload lives on via shared_ptr
      return true;
    }
  }
  return false;
}

void BufferPool::EvictToBudgetLocked(Shard& s) {
  while (s.bytes > shard_budget_ && EvictOneLocked(s)) {
  }
}

BufferPool::Pin BufferPool::Lookup(const CacheKey& key) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    return Pin();
  }
  ++s.hits;
  Entry* e = it->second.get();
  TouchLocked(s, e);
  PinLocked(s, e);
  return Pin(this, &s, e, e->value);
}

BufferPool::Pin BufferPool::Insert(const CacheKey& key,
                                   std::shared_ptr<const void> value,
                                   uint64_t bytes) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    // First insert wins (concurrent loaders of one key race benignly: the
    // payloads are deterministic decodes of the same blob).
    Entry* e = it->second.get();
    TouchLocked(s, e);
    PinLocked(s, e);
    return Pin(this, &s, e, e->value);
  }
  if (bytes > shard_budget_) {
    ++s.admission_rejects;
    return Pin(nullptr, nullptr, nullptr, std::move(value));  // detached
  }
  auto owned = std::make_unique<Entry>();
  Entry* e = owned.get();
  e->key = key;
  e->value = std::move(value);
  e->bytes = bytes;
  e->hot = opts_.admission == CacheAdmission::kAdmitAll;
  s.map.emplace(key, std::move(owned));
  (e->hot ? s.hot : s.cold).PushFront(e);
  s.bytes += bytes;
  ++s.insertions;
  PinLocked(s, e);
  EvictToBudgetLocked(s);
  return Pin(this, &s, e, e->value);
}

bool BufferPool::Contains(const CacheKey& key) const {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.map.find(key) != s.map.end();
}

void BufferPool::EraseOwner(uint64_t owner) {
  for (int32_t i = 0; i < opts_.shards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<Entry*> victims;
    for (const auto& [key, entry] : s.map) {
      if (key.owner == owner && entry->pins == 0) victims.push_back(entry.get());
    }
    for (Entry* e : victims) {
      (e->hot ? s.hot : s.cold).Remove(e);
      s.bytes -= e->bytes;
      ++s.evictions;
      const CacheKey key = e->key;  // copy: erase destroys e
      s.map.erase(key);
    }
  }
}

PoolOwner::PoolOwner(std::shared_ptr<BufferPool> pool)
    : pool_(std::move(pool)) {
  static std::atomic<uint64_t> next{1};
  id_ = next.fetch_add(1, std::memory_order_relaxed);
}

PoolOwner::~PoolOwner() { pool_->EraseOwner(id_); }

void BufferPool::Clear() {
  for (int32_t i = 0; i < opts_.shards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    while (EvictOneLocked(s)) {
    }
  }
}

void BufferPool::OwnerUsage(uint64_t owner, uint64_t* entries,
                            uint64_t* bytes) const {
  uint64_t n = 0;
  uint64_t b = 0;
  for (int32_t i = 0; i < opts_.shards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [key, entry] : s.map) {
      if (key.owner == owner) {
        ++n;
        b += entry->bytes;
      }
    }
  }
  if (entries != nullptr) *entries = n;
  if (bytes != nullptr) *bytes = b;
}

CacheStats BufferPool::Stats() const {
  CacheStats out;
  out.budget_bytes = opts_.budget_bytes;
  out.shards = opts_.shards;
  for (int32_t i = 0; i < opts_.shards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    out.resident_bytes += s.bytes;
    out.resident_entries += s.map.size();
    out.pinned_entries += s.pinned_entries;
    out.pinned_bytes += s.pinned_bytes;
    out.hits += s.hits;
    out.misses += s.misses;
    out.insertions += s.insertions;
    out.evictions += s.evictions;
    out.admission_rejects += s.admission_rejects;
  }
  return out;
}

}  // namespace masksearch
