// Executor-level tests of the memory subsystem (docs/CACHING.md):
// cached-vs-uncached byte parity on filter / top-k / scalar-agg / mask-agg
// queries (warm passes and thrashing budgets included), a bounded ChiCache
// as the per-mask CHI source, Session cache threading, and a pin-safety
// stress under the concurrent overlapped ExecuteMaskAgg pipelines (the TSan
// lane runs this suite).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/cache/cached_mask_store.h"
#include "masksearch/exec/filter_executor.h"
#include "masksearch/exec/mask_agg.h"
#include "masksearch/exec/session.h"
#include "masksearch/exec/topk_executor.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

FilterQuery MakeFilter() {
  FilterQuery q;
  q.terms.push_back(CpTerm{RoiSource::kObjectBox, ROI(), ValueRange(0.6, 1.0)});
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 120.0);
  return q;
}

TopKQuery MakeTopK() {
  TopKQuery q;
  q.terms.push_back(CpTerm{RoiSource::kObjectBox, ROI(), ValueRange(0.7, 1.0)});
  q.order_expr = CpExpr::Term(0);
  q.k = 6;
  q.descending = true;
  return q;
}

MaskAggQuery MakeMaskAgg() {
  MaskAggQuery q;
  q.op = MaskAggOp::kIntersectThreshold;
  q.agg_threshold = 0.6;
  q.term.roi_source = RoiSource::kObjectBox;
  q.term.range = ValueRange(0.6, 1.0);
  q.group_key = GroupKey::kImageId;
  q.k = 5;
  q.descending = true;
  return q;
}

/// A store opened three ways over one directory: uncached (reference),
/// cached with an ample budget, and cached with a thrashing budget.
class CachedExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("cacheexec");
    plain_ = MakeStore(dir_->path(), 14, 2, 40, 40, /*seed=*/91);

    BufferPool::Options big;
    big.budget_bytes = 64ull << 20;
    pool_ = std::make_shared<BufferPool>(big);
    MaskStore::Options copts;
    copts.cache = pool_;
    cached_ = MaskStore::Open(dir_->path(), copts).ValueOrDie();

    BufferPool::Options tiny;
    tiny.budget_bytes = 3 * (40 * 40 * sizeof(float) + 256);
    tiny.shards = 1;
    MaskStore::Options topts;
    topts.cache = std::make_shared<BufferPool>(tiny);
    thrash_ = MaskStore::Open(dir_->path(), topts).ValueOrDie();

    index_ = std::make_unique<IndexManager>(plain_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*plain_));
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> plain_;
  std::shared_ptr<BufferPool> pool_;
  std::unique_ptr<MaskStore> cached_;
  std::unique_ptr<MaskStore> thrash_;
  std::unique_ptr<IndexManager> index_;
};

TEST_F(CachedExecTest, FilterByteParityColdWarmAndThrashing) {
  const FilterQuery q = MakeFilter();
  const FilterResult want = ExecuteFilter(*plain_, index_.get(), q).ValueOrDie();
  for (MaskStore* store : {cached_.get(), thrash_.get()}) {
    for (int pass = 0; pass < 3; ++pass) {
      const FilterResult got =
          ExecuteFilter(*store, index_.get(), q).ValueOrDie();
      EXPECT_EQ(got.mask_ids, want.mask_ids);
      EXPECT_EQ(got.stats.candidates, want.stats.candidates);
    }
  }
  if (want.stats.candidates > 0) {
    EXPECT_GT(pool_->Stats().hits, 0u);  // warm passes hit memory
  }
}

TEST_F(CachedExecTest, TopKByteParityColdWarmAndThrashing) {
  const TopKQuery q = MakeTopK();
  const TopKResult want = ExecuteTopK(*plain_, index_.get(), q).ValueOrDie();
  for (MaskStore* store : {cached_.get(), thrash_.get()}) {
    for (int pass = 0; pass < 3; ++pass) {
      const TopKResult got = ExecuteTopK(*store, index_.get(), q).ValueOrDie();
      ASSERT_EQ(got.items.size(), want.items.size());
      for (size_t i = 0; i < want.items.size(); ++i) {
        EXPECT_EQ(got.items[i].mask_id, want.items[i].mask_id);
        EXPECT_EQ(std::memcmp(&got.items[i].value, &want.items[i].value,
                              sizeof(double)),
                  0);
      }
    }
  }
}

TEST_F(CachedExecTest, MaskAggByteParityColdWarmAndThrashing) {
  const MaskAggQuery q = MakeMaskAgg();
  DerivedIndexCache ref_cache(TestConfig());
  const AggResult want =
      ExecuteMaskAgg(*plain_, index_.get(), &ref_cache, q).ValueOrDie();
  for (MaskStore* store : {cached_.get(), thrash_.get()}) {
    DerivedIndexCache cache(TestConfig(), pool_);
    for (int pass = 0; pass < 3; ++pass) {
      const AggResult got =
          ExecuteMaskAgg(*store, index_.get(), &cache, q).ValueOrDie();
      ASSERT_EQ(got.groups.size(), want.groups.size());
      for (size_t i = 0; i < want.groups.size(); ++i) {
        EXPECT_EQ(got.groups[i].group, want.groups[i].group);
        EXPECT_EQ(std::memcmp(&got.groups[i].value, &want.groups[i].value,
                              sizeof(double)),
                  0);
      }
    }
  }
}

TEST_F(CachedExecTest, WarmPassAvoidsPhysicalIo) {
  const FilterQuery q = MakeFilter();
  cached_->ResetCounters();
  (void)ExecuteFilter(*cached_, index_.get(), q).ValueOrDie();
  const uint64_t cold_loads = cached_->masks_loaded();
  (void)ExecuteFilter(*cached_, index_.get(), q).ValueOrDie();
  // The warm pass verifies the same candidates without touching storage.
  EXPECT_EQ(cached_->masks_loaded(), cold_loads);
  if (cold_loads > 0) {
    auto* c = static_cast<CachedMaskStore*>(cached_.get());
    EXPECT_GT(c->cache_hits(), 0u);
  }
}

// --- a bounded ChiCache as the per-mask CHI source ---

TEST_F(CachedExecTest, ChiCacheSuppliesBoundsOnSecondPass) {
  // No IndexManager at all: the first pass must verify everything; the
  // second pass gets bounds from the ChiCache and prunes/accepts whatever
  // is bound-decidable — with byte-identical result sets.
  ChiCache chi_cache(pool_, TestConfig());

  const FilterQuery q = MakeFilter();
  const FilterResult want = ExecuteFilter(*plain_, nullptr, q).ValueOrDie();

  const FilterResult first =
      ExecuteFilter(*cached_, &chi_cache, q).ValueOrDie();
  EXPECT_EQ(first.mask_ids, want.mask_ids);
  EXPECT_EQ(first.stats.candidates, first.stats.masks_targeted);
  EXPECT_EQ(first.stats.chis_built, first.stats.masks_targeted);
  EXPECT_EQ(static_cast<int64_t>(chi_cache.size()), first.stats.chis_built);

  const FilterResult second =
      ExecuteFilter(*cached_, &chi_cache, q).ValueOrDie();
  EXPECT_EQ(second.mask_ids, want.mask_ids);
  EXPECT_EQ(second.stats.chis_built, 0);  // already cached, never rebuilt
  EXPECT_LE(second.stats.candidates, first.stats.candidates);
  EXPECT_GT(second.stats.pruned + second.stats.accepted_by_bounds, 0);

  // Top-k through the same cache: parity with the index-less reference.
  const TopKQuery tq = MakeTopK();
  const TopKResult twant = ExecuteTopK(*plain_, nullptr, tq).ValueOrDie();
  const TopKResult tgot =
      ExecuteTopK(*cached_, &chi_cache, tq).ValueOrDie();
  ASSERT_EQ(tgot.items.size(), twant.items.size());
  for (size_t i = 0; i < twant.items.size(); ++i) {
    EXPECT_EQ(tgot.items[i].mask_id, twant.items[i].mask_id);
    EXPECT_EQ(tgot.items[i].value, twant.items[i].value);
  }
}

TEST_F(CachedExecTest, SessionThreadsCacheThroughQueries) {
  SessionOptions sopts;
  sopts.chi = TestConfig();
  sopts.cache = pool_;
  auto session = Session::Open(cached_.get(), sopts).ValueOrDie();
  ASSERT_EQ(session->cache(), pool_.get());
  // The bulk-built IndexManager is the session's one CHI source.
  ASSERT_EQ(session->chis(), session->index());

  const MaskAggQuery q = MakeMaskAgg();
  const AggResult first = session->MaskAggregate(q).ValueOrDie();
  // Derived CHIs land in the session pool's per-template cache.
  auto* derived = session->derived_cache(q.op, q.agg_threshold);
  EXPECT_GT(derived->size(), 0u);

  cached_->ResetCounters();
  const AggResult second = session->MaskAggregate(q).ValueOrDie();
  ASSERT_EQ(second.groups.size(), first.groups.size());
  for (size_t i = 0; i < first.groups.size(); ++i) {
    EXPECT_EQ(second.groups[i].group, first.groups[i].group);
    EXPECT_EQ(second.groups[i].value, first.groups[i].value);
  }
  // The repeat run answers from derived CHIs + cached blobs: no storage.
  EXPECT_EQ(cached_->masks_loaded(), 0u);

  // A session without a pool keeps derived CHIs in a private pool with no
  // byte limit: the same answers, nothing in the shared pool.
  SessionOptions plain_opts;
  plain_opts.chi = TestConfig();
  auto plain_session = Session::Open(plain_.get(), plain_opts).ValueOrDie();
  EXPECT_EQ(plain_session->cache(), nullptr);
  const uint64_t shared_before = pool_->Stats().insertions;
  const AggResult plain = plain_session->MaskAggregate(q).ValueOrDie();
  ASSERT_EQ(plain.groups.size(), first.groups.size());
  for (size_t i = 0; i < first.groups.size(); ++i) {
    EXPECT_EQ(plain.groups[i].group, first.groups[i].group);
    EXPECT_EQ(plain.groups[i].value, first.groups[i].value);
  }
  EXPECT_EQ(plain_session->derived_cache(q.op, q.agg_threshold)->size(),
            derived->size());
  EXPECT_EQ(pool_->Stats().insertions, shared_before);
}

// --- pin-safety stress under the concurrent overlapped pipelines ---
//
// A small shared pool (forced eviction) behind a sharded store, with the
// double-buffered ExecuteMaskAgg pipeline and a LoadMaskBatch hammer
// running concurrently. Pinning must keep every in-flight batch's entries
// resident until copied out; TSan must see no races. Results must be
// byte-identical across threads and repetitions.
TEST(CachePinStressTest, ConcurrentMaskAggAndBatchLoads) {
  TempDir dir("cachestress");
  auto seed_store = MakeStore(dir.path(), 12, 2, 32, 32, /*seed=*/17);
  TempDir sharded_dir("cachestress_sharded");
  MS_ASSERT_OK(ReshardMaskStore(*seed_store, sharded_dir.path(), 4));

  BufferPool::Options popts;
  // ~5 decoded 32x32 masks: far below the 24-mask working set.
  popts.budget_bytes = 5 * (32 * 32 * sizeof(float) + 256);
  popts.shards = 2;
  auto pool = std::make_shared<BufferPool>(popts);

  ThreadPool io_pool(3);
  MaskStore::Options sopts;
  sopts.cache = pool;
  sopts.io_pool = &io_pool;
  auto store = MaskStore::Open(sharded_dir.path(), sopts).ValueOrDie();

  IndexManager index(store->num_masks(), TestConfig());
  MS_ASSERT_OK(index.BuildAll(*seed_store));

  const MaskAggQuery q = MakeMaskAgg();
  DerivedIndexCache ref_cache(TestConfig());
  const AggResult want =
      ExecuteMaskAgg(*seed_store, &index, &ref_cache, q).ValueOrDie();

  ThreadPool compute(4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      EngineOptions opts;
      opts.pool = &compute;
      opts.io_pool = &io_pool;
      opts.verify_batch = 3;
      for (int rep = 0; rep < 4; ++rep) {
        DerivedIndexCache cache(TestConfig(), pool);
        auto got = ExecuteMaskAgg(*store, &index, &cache, q, opts);
        if (!got.ok() || got->groups.size() != want.groups.size()) {
          ++failures;
          continue;
        }
        for (size_t i = 0; i < want.groups.size(); ++i) {
          if (got->groups[i].group != want.groups[i].group ||
              std::memcmp(&got->groups[i].value, &want.groups[i].value,
                          sizeof(double)) != 0) {
            ++failures;
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    std::vector<MaskId> ids;
    for (MaskId id = 0; id < store->num_masks(); ++id) ids.push_back(id);
    ids.push_back(3);  // dup in flight with the pipelines
    for (int rep = 0; rep < 6; ++rep) {
      auto masks = store->LoadMaskBatch(ids);
      if (!masks.ok()) ++failures;
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  const CacheStats stats = pool->Stats();
  EXPECT_GT(stats.evictions, 0u);  // the budget really was under pressure
  EXPECT_EQ(stats.pinned_entries, 0u);  // every pin was released
}

// Cache-aware prefetch (ROADMAP open item): once the working set is
// resident, the overlapped pipelines must stop scheduling io_pool batch
// loads — the ExecStats::prefetch_skipped counter proves the skips and the
// wrapped store's physical counters prove no reads happened.
TEST(CachePrefetchTest, WarmCacheSkipsPrefetchBatchLoads) {
  TempDir dir("cache_prefetch");
  auto plain = MakeStore(dir.path(), 14, 2, 40, 40, /*seed=*/37);

  BufferPool::Options popts;
  popts.budget_bytes = 64ull << 20;  // ample: everything stays resident
  MaskStore::Options copts;
  copts.cache = std::make_shared<BufferPool>(popts);
  auto cached = MaskStore::Open(dir.path(), copts).ValueOrDie();

  ThreadPool io(2);
  EngineOptions opts;  // no index: every mask verifies, maximal batch traffic
  opts.io_pool = &io;
  opts.verify_batch = 4;

  const FilterQuery fq = MakeFilter();
  const FilterResult cold = ExecuteFilter(*cached, nullptr, fq, opts).ValueOrDie();
  EXPECT_EQ(cold.stats.prefetch_skipped, 0);  // nothing resident yet
  const uint64_t physical_after_cold = cached->masks_loaded();
  EXPECT_GT(physical_after_cold, 0u);

  const FilterResult warm = ExecuteFilter(*cached, nullptr, fq, opts).ValueOrDie();
  EXPECT_EQ(warm.mask_ids, cold.mask_ids);  // results never change
  EXPECT_GT(warm.stats.prefetch_skipped, 0);
  // The skipped batch loads were true no-ops: zero new physical reads.
  EXPECT_EQ(cached->masks_loaded(), physical_after_cold);

  // Same contract for the per-group mask-agg pipeline.
  const MaskAggQuery mq = MakeMaskAgg();
  const AggResult agg_cold =
      ExecuteMaskAgg(*cached, nullptr, nullptr, mq, opts).ValueOrDie();
  const uint64_t physical_after_agg = cached->masks_loaded();
  const AggResult agg_warm =
      ExecuteMaskAgg(*cached, nullptr, nullptr, mq, opts).ValueOrDie();
  ASSERT_EQ(agg_warm.groups.size(), agg_cold.groups.size());
  for (size_t i = 0; i < agg_cold.groups.size(); ++i) {
    EXPECT_EQ(agg_warm.groups[i].group, agg_cold.groups[i].group);
    EXPECT_EQ(agg_warm.groups[i].value, agg_cold.groups[i].value);
  }
  EXPECT_GT(agg_warm.stats.prefetch_skipped, 0);
  EXPECT_EQ(cached->masks_loaded(), physical_after_agg);

  // An uncached store never reports residency, so the pipelines never skip.
  auto uncached = MaskStore::Open(dir.path()).ValueOrDie();
  const FilterResult raw = ExecuteFilter(*uncached, nullptr, fq, opts).ValueOrDie();
  EXPECT_EQ(raw.stats.prefetch_skipped, 0);
  EXPECT_EQ(raw.mask_ids, cold.mask_ids);
}

}  // namespace
}  // namespace masksearch
