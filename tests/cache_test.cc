// Tests for the memory subsystem (docs/CACHING.md): BufferPool replacement
// order, pinning, scan-resistant admission, and stats; CachedMaskStore
// byte parity against the uncached store, dup-id batch behavior, counter
// forwarding, budget-overflow eviction, and cold caches after resharding.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/cache/cached_mask_store.h"
#include "masksearch/cache/chi_cache.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/ingest/ingestor.h"
#include "masksearch/maintain/compactor.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::RandomMask;
using testing_util::TempDir;

CacheKey Key(uint64_t owner, int64_t id, int32_t shard = 0) {
  CacheKey k;
  k.owner = owner;
  k.id = id;
  k.shard = shard;
  k.space = CacheSpace::kMaskBlob;
  return k;
}

std::shared_ptr<const void> Payload(int tag) {
  return std::make_shared<const int>(tag);
}

int Tag(const BufferPool::Pin& pin) {
  return *static_cast<const int*>(pin.get());
}

// --- BufferPool ---

TEST(BufferPoolTest, InsertLookupAndStats) {
  BufferPool::Options opts;
  opts.budget_bytes = 1024;
  opts.shards = 1;
  BufferPool pool(opts);
  const uint64_t owner = 1;  // the pool is private: any id

  EXPECT_FALSE(pool.Lookup(Key(owner, 1)));  // miss
  {
    BufferPool::Pin pin = pool.Insert(Key(owner, 1), Payload(41), 100);
    ASSERT_TRUE(pin);
    EXPECT_EQ(Tag(pin), 41);
    const CacheStats mid = pool.Stats();
    EXPECT_EQ(mid.pinned_entries, 1u);
    EXPECT_EQ(mid.pinned_bytes, 100u);
  }
  BufferPool::Pin hit = pool.Lookup(Key(owner, 1));
  ASSERT_TRUE(hit);
  EXPECT_EQ(Tag(hit), 41);

  const CacheStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_EQ(stats.resident_bytes, 100u);
  EXPECT_EQ(stats.budget_bytes, 1024u);
  EXPECT_EQ(stats.shards, 1);
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.5);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(BufferPoolTest, FirstInsertWins) {
  BufferPool::Options opts;
  opts.budget_bytes = 1024;
  opts.shards = 1;
  BufferPool pool(opts);
  const uint64_t owner = 1;  // the pool is private: any id

  pool.Insert(Key(owner, 5), Payload(1), 64);
  BufferPool::Pin second = pool.Insert(Key(owner, 5), Payload(2), 64);
  EXPECT_EQ(Tag(second), 1);  // the racing duplicate is dropped
  EXPECT_EQ(pool.Stats().insertions, 1u);
}

TEST(BufferPoolTest, BudgetOverflowEvictsInLruOrder) {
  BufferPool::Options opts;
  opts.budget_bytes = 300;  // fits three 100-byte entries
  opts.shards = 1;
  opts.admission = CacheAdmission::kAdmitAll;  // plain LRU: deterministic
  BufferPool pool(opts);
  const uint64_t owner = 1;  // the pool is private: any id

  pool.Insert(Key(owner, 1), Payload(1), 100);
  pool.Insert(Key(owner, 2), Payload(2), 100);
  pool.Insert(Key(owner, 3), Payload(3), 100);
  // Touch 1: recency order (MRU first) is now 1, 3, 2.
  EXPECT_TRUE(pool.Lookup(Key(owner, 1)));

  pool.Insert(Key(owner, 4), Payload(4), 100);  // evicts 2 (LRU)
  EXPECT_FALSE(pool.Contains(Key(owner, 2)));
  EXPECT_TRUE(pool.Contains(Key(owner, 1)));
  EXPECT_TRUE(pool.Contains(Key(owner, 3)));
  EXPECT_TRUE(pool.Contains(Key(owner, 4)));

  pool.Insert(Key(owner, 5), Payload(5), 100);  // evicts 3 (next LRU)
  EXPECT_FALSE(pool.Contains(Key(owner, 3)));
  EXPECT_TRUE(pool.Contains(Key(owner, 1)));

  const CacheStats stats = pool.Stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_entries, 3u);
  EXPECT_LE(stats.resident_bytes, 300u);
}

TEST(BufferPoolTest, PinnedEntriesAreNeverEvicted) {
  BufferPool::Options opts;
  opts.budget_bytes = 200;
  opts.shards = 1;
  opts.admission = CacheAdmission::kAdmitAll;
  BufferPool pool(opts);
  const uint64_t owner = 1;  // the pool is private: any id

  BufferPool::Pin pinned = pool.Insert(Key(owner, 1), Payload(1), 100);
  BufferPool::Pin pinned2 = pool.Insert(Key(owner, 2), Payload(2), 100);
  // Over budget with everything pinned: the budget is a soft bound.
  pool.Insert(Key(owner, 3), Payload(3), 100);
  EXPECT_TRUE(pool.Contains(Key(owner, 1)));
  EXPECT_TRUE(pool.Contains(Key(owner, 2)));
  // Entry 3 was unpinned the moment its returned Pin was dropped, so the
  // over-budget shard reclaimed it; the pinned pair must survive.
  EXPECT_GE(pool.Stats().resident_bytes, 200u);

  // Releasing the pins settles the byte debt back under budget.
  pinned.Release();
  pinned2.Release();
  pool.Insert(Key(owner, 4), Payload(4), 100);
  EXPECT_LE(pool.Stats().resident_bytes, 200u);
  EXPECT_EQ(pool.Stats().pinned_entries, 0u);
}

TEST(BufferPoolTest, ScanResistantAdmissionKeepsWorkingSet) {
  BufferPool::Options opts;
  opts.budget_bytes = 400;
  opts.shards = 1;
  opts.admission = CacheAdmission::kScanResistant;
  BufferPool pool(opts);
  const uint64_t owner = 1;  // the pool is private: any id

  // Working set: two entries, re-referenced once -> protected segment.
  pool.Insert(Key(owner, 1), Payload(1), 100);
  pool.Insert(Key(owner, 2), Payload(2), 100);
  EXPECT_TRUE(pool.Lookup(Key(owner, 1)));
  EXPECT_TRUE(pool.Lookup(Key(owner, 2)));

  // One-touch scan of 20 entries, each seen exactly once: they churn
  // through probation without displacing the protected working set.
  for (int64_t id = 100; id < 120; ++id) {
    pool.Insert(Key(owner, id), Payload(static_cast<int>(id)), 100);
  }
  EXPECT_TRUE(pool.Contains(Key(owner, 1)));
  EXPECT_TRUE(pool.Contains(Key(owner, 2)));

  // The same scan under kAdmitAll flushes everything.
  BufferPool::Options all = opts;
  all.admission = CacheAdmission::kAdmitAll;
  BufferPool lru(all);
  lru.Insert(Key(owner, 1), Payload(1), 100);
  lru.Insert(Key(owner, 2), Payload(2), 100);
  EXPECT_TRUE(lru.Lookup(Key(owner, 1)));
  EXPECT_TRUE(lru.Lookup(Key(owner, 2)));
  for (int64_t id = 100; id < 120; ++id) {
    lru.Insert(Key(owner, id), Payload(static_cast<int>(id)), 100);
  }
  EXPECT_FALSE(lru.Contains(Key(owner, 1)));
  EXPECT_FALSE(lru.Contains(Key(owner, 2)));
}

TEST(BufferPoolTest, OversizedPayloadIsRejectedButUsable) {
  BufferPool::Options opts;
  opts.budget_bytes = 100;
  opts.shards = 1;
  BufferPool pool(opts);
  const uint64_t owner = 1;  // the pool is private: any id

  BufferPool::Pin pin = pool.Insert(Key(owner, 1), Payload(9), 1000);
  ASSERT_TRUE(pin);          // detached: the caller can still use the value
  EXPECT_EQ(Tag(pin), 9);
  EXPECT_FALSE(pool.Contains(Key(owner, 1)));
  EXPECT_EQ(pool.Stats().admission_rejects, 1u);
  EXPECT_EQ(pool.Stats().resident_entries, 0u);
}

TEST(BufferPoolTest, EraseOwnerAndClear) {
  BufferPool::Options opts;
  opts.budget_bytes = 4096;
  opts.shards = 2;
  auto pool = std::make_shared<BufferPool>(opts);
  auto a = std::make_unique<PoolOwner>(pool);
  PoolOwner b(pool);
  const uint64_t a_id = a->id();
  for (int64_t id = 0; id < 8; ++id) {
    pool->Insert(Key(a_id, id), Payload(1), 64);
    pool->Insert(Key(b.id(), id), Payload(2), 64);
  }
  uint64_t entries = 0;
  uint64_t bytes = 0;
  pool->OwnerUsage(a_id, &entries, &bytes);
  EXPECT_EQ(entries, 8u);
  EXPECT_EQ(bytes, 8u * 64u);

  a.reset();  // releasing the lease erases its owner
  pool->OwnerUsage(a_id, &entries, &bytes);
  EXPECT_EQ(entries, 0u);
  pool->OwnerUsage(b.id(), &entries, nullptr);
  EXPECT_EQ(entries, 8u);

  pool->Clear();
  EXPECT_EQ(pool->Stats().resident_entries, 0u);
}

// A lease shared by several holders erases its owner when the last holder
// drops it, and not earlier. Every lease mints a fresh id and keeps its
// pool alive.
TEST(BufferPoolTest, PoolOwnerErasesAtLastRelease) {
  BufferPool::Options opts;
  opts.budget_bytes = 1 << 20;
  opts.shards = 2;
  auto pool = std::make_shared<BufferPool>(opts);
  const std::weak_ptr<BufferPool> weak_pool = pool;
  auto first = std::make_shared<const PoolOwner>(pool);
  std::shared_ptr<const PoolOwner> second = first;
  const uint64_t id = first->id();
  EXPECT_NE(PoolOwner(pool).id(), id);
  for (int64_t k = 0; k < 4; ++k) pool->Insert(Key(id, k), Payload(1), 64);
  pool.reset();

  first.reset();
  uint64_t entries = 0;
  second->pool()->OwnerUsage(id, &entries, nullptr);
  EXPECT_EQ(entries, 4u);  // `second` still holds the lease
  EXPECT_TRUE(second->pool()->Contains(Key(id, 3)));

  pool = second->pool();
  second.reset();
  pool->OwnerUsage(id, &entries, nullptr);
  EXPECT_EQ(entries, 0u);
  EXPECT_EQ(pool->Stats().resident_bytes, 0u);
  pool.reset();
  EXPECT_TRUE(weak_pool.expired());
}

TEST(ChiCacheTest, PutGetFirstWinsAndSurvivesEviction) {
  BufferPool::Options opts;
  opts.budget_bytes = 1 << 20;
  opts.shards = 1;
  auto pool = std::make_shared<BufferPool>(opts);
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 4;
  cfg.num_bins = 4;
  ChiCache cache(pool, cfg);

  Rng rng(3);
  EXPECT_EQ(cache.Get(7), nullptr);
  EXPECT_FALSE(cache.Contains(7));
  const Mask m = RandomMask(&rng, 16, 16);
  cache.Put(7, BuildChi(m, cfg));
  const std::shared_ptr<const Chi> first = cache.Get(7);
  ASSERT_NE(first, nullptr);
  cache.Put(7, BuildChi(RandomMask(&rng, 16, 16), cfg));
  EXPECT_EQ(cache.Get(7).get(), first.get());  // first build wins
  EXPECT_EQ(cache.size(), 1u);

  // Shared ownership keeps an evicted CHI valid for its holder.
  pool->Clear();
  EXPECT_EQ(cache.Get(7), nullptr);
  EXPECT_EQ(first->width(), 16);
}

// --- CachedMaskStore ---

struct StorePair {
  std::unique_ptr<TempDir> dir;
  std::shared_ptr<BufferPool> pool;
  std::unique_ptr<MaskStore> cached;
  std::unique_ptr<MaskStore> plain;
};

StorePair MakePair(int count, int32_t num_shards, StorageKind kind,
                   uint64_t budget = 64ull << 20, int32_t pool_shards = 4) {
  StorePair p;
  p.dir = std::make_unique<TempDir>("cachedstore");
  Rng rng(19);
  MaskStoreWriter::Options wopts;
  wopts.kind = kind;
  wopts.num_shards = num_shards;
  auto writer = MaskStoreWriter::Create(p.dir->path(), wopts).ValueOrDie();
  for (int i = 0; i < count; ++i) {
    MaskMeta meta;
    meta.image_id = i / 2;
    meta.model_id = i % 2;
    meta.object_box = ROI(1, 1, 10, 8);
    writer->Append(meta, RandomMask(&rng, 12, 10)).ValueOrDie();
  }
  writer->Finish().CheckOK();

  BufferPool::Options popts;
  popts.budget_bytes = budget;
  popts.shards = pool_shards;
  p.pool = std::make_shared<BufferPool>(popts);
  MaskStore::Options copts;
  copts.cache = p.pool;
  p.cached = MaskStore::Open(p.dir->path(), copts).ValueOrDie();
  p.plain = MaskStore::Open(p.dir->path()).ValueOrDie();
  return p;
}

void ExpectMaskEq(const Mask& got, const Mask& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  EXPECT_EQ(got.data(), want.data());  // byte-identical float payloads
}

TEST(CachedMaskStoreTest, OpenWrapsWhenCacheConfigured) {
  StorePair p = MakePair(6, 1, StorageKind::kRawFloat32);
  EXPECT_NE(dynamic_cast<CachedMaskStore*>(p.cached.get()), nullptr);
  EXPECT_EQ(dynamic_cast<CachedMaskStore*>(p.plain.get()), nullptr);
}

TEST(CachedMaskStoreTest, LoadMaskParityColdAndWarm) {
  for (StorageKind kind :
       {StorageKind::kRawFloat32, StorageKind::kCompressed}) {
    StorePair p = MakePair(8, 2, kind);
    for (int pass = 0; pass < 2; ++pass) {
      for (MaskId id = 0; id < p.plain->num_masks(); ++id) {
        const Mask want = p.plain->LoadMask(id).ValueOrDie();
        const Mask got = p.cached->LoadMask(id).ValueOrDie();
        ExpectMaskEq(got, want);
      }
    }
    auto* cached = static_cast<CachedMaskStore*>(p.cached.get());
    EXPECT_EQ(cached->cache_misses(), 8u);  // pass 1
    EXPECT_EQ(cached->cache_hits(), 8u);    // pass 2
    // Physical-traffic counters move only on misses.
    EXPECT_EQ(cached->masks_loaded(), 8u);
    EXPECT_EQ(p.plain->masks_loaded(), 16u);
  }
}

TEST(CachedMaskStoreTest, BatchParityDupsHitOnce) {
  StorePair p = MakePair(10, 4, StorageKind::kRawFloat32);
  const std::vector<MaskId> ids = {7, 3, 7, 0, 3, 7, 9};
  const std::vector<Mask> want = p.plain->LoadMaskBatch(ids).ValueOrDie();
  const std::vector<Mask> got = p.cached->LoadMaskBatch(ids).ValueOrDie();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) ExpectMaskEq(got[i], want[i]);

  auto* cached = static_cast<CachedMaskStore*>(p.cached.get());
  // 4 distinct ids in the batch: one pool access (miss) each, duplicates
  // served from the pinned entry.
  EXPECT_EQ(cached->cache_misses(), 4u);
  EXPECT_EQ(cached->cache_hits(), 0u);

  const std::vector<Mask> warm = p.cached->LoadMaskBatch(ids).ValueOrDie();
  for (size_t i = 0; i < warm.size(); ++i) ExpectMaskEq(warm[i], want[i]);
  EXPECT_EQ(cached->cache_hits(), 4u);  // one hit per distinct id
  EXPECT_EQ(cached->masks_loaded(), 4u);  // no new physical loads
}

TEST(CachedMaskStoreTest, TinyBudgetStillByteIdentical) {
  // Budget fits roughly two decoded masks (one pool shard so nothing is
  // rejected as oversized): every pass thrashes, results must not change.
  const uint64_t budget =
      2 * (12 * 10 * sizeof(float) + kCacheEntryOverheadBytes);
  StorePair p = MakePair(12, 2, StorageKind::kRawFloat32, budget,
                         /*pool_shards=*/1);
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<MaskId> ids;
    for (MaskId id = 0; id < 12; ++id) ids.push_back(id);
    const std::vector<Mask> want = p.plain->LoadMaskBatch(ids).ValueOrDie();
    const std::vector<Mask> got = p.cached->LoadMaskBatch(ids).ValueOrDie();
    for (size_t i = 0; i < got.size(); ++i) ExpectMaskEq(got[i], want[i]);
  }
  EXPECT_GT(p.pool->Stats().evictions, 0u);
  // Per-shard budgets are enforced once all pins are released.
  EXPECT_LE(p.pool->Stats().resident_bytes, p.pool->options().budget_bytes);
}

TEST(CachedMaskStoreTest, LoadMaskRowsServedFromCacheWithParity) {
  StorePair p = MakePair(4, 1, StorageKind::kRawFloat32);
  const Mask wantRows = p.plain->LoadMaskRows(2, 3, 7).ValueOrDie();
  // Cold: forwarded to the inner store.
  ExpectMaskEq(p.cached->LoadMaskRows(2, 3, 7).ValueOrDie(), wantRows);
  // Warm the full mask, then the row slice comes from the pool.
  (void)p.cached->LoadMask(2).ValueOrDie();
  const uint64_t physical = p.cached->masks_loaded();
  ExpectMaskEq(p.cached->LoadMaskRows(2, 3, 7).ValueOrDie(), wantRows);
  EXPECT_EQ(p.cached->masks_loaded(), physical);  // no inner traffic

  // Error parity with the uncached path.
  EXPECT_TRUE(p.cached->LoadMaskRows(2, 5, 3).status().IsInvalidArgument());
  EXPECT_TRUE(p.cached->LoadMask(99).status().IsNotFound());
  EXPECT_TRUE(p.cached->LoadMaskBatch({0, 99}).status().IsNotFound());
}

TEST(CachedMaskStoreTest, SharedPoolStoresDoNotCrossTalk) {
  StorePair a = MakePair(4, 1, StorageKind::kRawFloat32);
  // Second store over the same pool: same mask ids, different directory.
  TempDir dir_b("cachedstore_b");
  Rng rng(99);
  auto writer = MaskStoreWriter::Create(dir_b.path()).ValueOrDie();
  for (int i = 0; i < 4; ++i) {
    MaskMeta meta;
    meta.object_box = ROI(0, 0, 4, 4);
    writer->Append(meta, RandomMask(&rng, 12, 10)).ValueOrDie();
  }
  writer->Finish().CheckOK();
  MaskStore::Options opts;
  opts.cache = a.pool;
  auto b = MaskStore::Open(dir_b.path(), opts).ValueOrDie();

  (void)a.cached->LoadMask(1).ValueOrDie();
  const Mask from_b = b->LoadMask(1).ValueOrDie();
  auto* cached_b = static_cast<CachedMaskStore*>(b.get());
  EXPECT_EQ(cached_b->cache_hits(), 0u);  // never a's entry
  EXPECT_EQ(cached_b->cache_misses(), 1u);
  ExpectMaskEq(from_b, MaskStore::Open(dir_b.path())
                           .ValueOrDie()
                           ->LoadMask(1)
                           .ValueOrDie());
}

TEST(CachedMaskStoreTest, ReshardedStoreOpensWithColdCache) {
  StorePair p = MakePair(9, 1, StorageKind::kRawFloat32);
  // Warm the source cache, then migrate. ReadBlob bypasses the cache, so
  // the migration copies stored bytes verbatim.
  for (MaskId id = 0; id < 9; ++id) (void)p.cached->LoadMask(id).ValueOrDie();
  TempDir dst("reshard_dst");
  MS_ASSERT_OK(ReshardMaskStore(*p.cached, dst.path(), 3));

  MaskStore::Options opts;
  opts.cache = p.pool;  // same pool, fresh owner -> cold and consistent
  auto out = MaskStore::Open(dst.path(), opts).ValueOrDie();
  auto* cached_out = static_cast<CachedMaskStore*>(out.get());
  EXPECT_EQ(cached_out->cache_hits(), 0u);
  EXPECT_EQ(cached_out->cache_misses(), 0u);
  for (MaskId id = 0; id < 9; ++id) {
    ExpectMaskEq(out->LoadMask(id).ValueOrDie(),
                 p.plain->LoadMask(id).ValueOrDie());
  }
  EXPECT_EQ(cached_out->cache_hits(), 0u);  // every first touch was a miss
  EXPECT_EQ(cached_out->cache_misses(), 9u);
}

TEST(CachedMaskStoreTest, DroppedSnapshotReturnsPoolBytesToBaseline) {
  // Regression (docs/COMPACTION.md): the snapshots of one live-dataset
  // generation share one blob-cache lease, and once a compaction swap
  // supersedes the generation, dropping its last snapshot pin must erase
  // that owner. Otherwise each generation leaks its blob-cache bytes into
  // the shared pool forever.
  auto pool = std::make_shared<BufferPool>([] {
    BufferPool::Options opts;
    opts.budget_bytes = 8ull << 20;
    opts.shards = 1;
    return opts;
  }());
  IngestorOptions iopts;
  iopts.chi.cell_width = iopts.chi.cell_height = 8;
  iopts.chi.num_bins = 8;
  iopts.num_shards = 2;
  iopts.cache = pool;
  TempDir dir("cachedstore_snapshot_baseline");
  auto ingestor = Ingestor::Create(dir.path(), iopts).ValueOrDie();
  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    MaskMeta meta;
    (void)ingestor->Append(meta, RandomMask(&rng, 16, 16)).ValueOrDie();
  }
  MS_ASSERT_OK(ingestor->Delete(2));
  MS_ASSERT_OK(ingestor->Publish());
  const uint64_t baseline = pool->Stats().resident_bytes;

  std::shared_ptr<const Snapshot> pinned = ingestor->snapshot();
  // Warm the pinned generation's blob cache; keep one batch live while a
  // compaction swap supersedes the generation.
  for (MaskId id = 0; id < 5; ++id) (void)pinned->store().LoadMask(id);
  const uint64_t warm = pool->Stats().resident_bytes;
  EXPECT_GT(warm, baseline);
  {
    auto batch = pinned->store().LoadMaskBatch({0, 3}).ValueOrDie();
    Compactor compactor(ingestor.get());
    MS_ASSERT_OK(compactor.Compact().status());
    EXPECT_EQ(ingestor->generation(), 1);
    // The pinned snapshot still holds the old generation's lease.
    EXPECT_EQ(pool->Stats().resident_bytes, warm);
    ExpectMaskEq(batch[1], pinned->store().LoadMask(3).ValueOrDie());
  }
  pinned.reset();
  // The superseded generation's owner is fully swept: back to baseline.
  EXPECT_EQ(pool->Stats().resident_bytes, baseline);
  EXPECT_EQ(ingestor->Stats().live_snapshots, 0);
}

}  // namespace
}  // namespace masksearch
