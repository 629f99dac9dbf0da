// Tests for mask aggregation (§3.4, Q5): derived masks, derived-index
// caching, and the monotone-aggregation bounds extension; plus the group
// driver both aggregation executors share (pipeline parity, cancellation).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/cache/buffer_pool.h"
#include "masksearch/exec/agg_executor.h"
#include "masksearch/exec/group_driver.h"
#include "masksearch/exec/mask_agg.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::RandomMask;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

TEST(DerivedMaskTest, IntersectThreshold) {
  Mask a(2, 2), b(2, 2);
  a.set(0, 0, 0.9f);
  b.set(0, 0, 0.85f);
  a.set(1, 0, 0.9f);
  b.set(1, 0, 0.5f);  // below threshold in b
  auto d = ComputeDerivedMask(MaskAggOp::kIntersectThreshold, 0.8, {a, b});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->at(0, 0), DerivedMaskOne());
  EXPECT_EQ(d->at(1, 0), 0.0f);
  EXPECT_EQ(d->at(0, 1), 0.0f);
}

TEST(DerivedMaskTest, UnionThreshold) {
  Mask a(2, 1), b(2, 1);
  a.set(0, 0, 0.9f);
  b.set(1, 0, 0.85f);
  auto d = ComputeDerivedMask(MaskAggOp::kUnionThreshold, 0.8, {a, b});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->at(0, 0), DerivedMaskOne());
  EXPECT_EQ(d->at(1, 0), DerivedMaskOne());
}

TEST(DerivedMaskTest, Average) {
  Mask a(1, 1), b(1, 1);
  a.set(0, 0, 0.2f);
  b.set(0, 0, 0.6f);
  auto d = ComputeDerivedMask(MaskAggOp::kAverage, 0.0, {a, b});
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->at(0, 0), 0.4f, 1e-6);
}

TEST(DerivedMaskTest, ValidatesInputs) {
  EXPECT_TRUE(ComputeDerivedMask(MaskAggOp::kAverage, 0, {})
                  .status()
                  .IsInvalidArgument());
  Mask a(2, 2), b(3, 3);
  EXPECT_TRUE(ComputeDerivedMask(MaskAggOp::kAverage, 0, {a, b})
                  .status()
                  .IsInvalidArgument());
}

TEST(DerivedIndexCacheTest, PutGetAndFirstWins) {
  BufferPool::Options popts;
  popts.budget_bytes = 1ull << 20;
  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pool-backed" : "private pool");
    DerivedIndexCache cache(
        TestConfig(), pooled ? std::make_shared<BufferPool>(popts) : nullptr);
    EXPECT_EQ(cache.Get({7}), nullptr);
    Rng rng(1);
    Mask m = RandomMask(&rng, 16, 16);
    cache.Put({7}, BuildChi(m, TestConfig()));
    const std::shared_ptr<const Chi> first = cache.Get({7});
    ASSERT_NE(first, nullptr);
    cache.Put({7}, BuildChi(RandomMask(&rng, 16, 16), TestConfig()));
    EXPECT_EQ(cache.Get({7}).get(), first.get());
    EXPECT_EQ(cache.size(), 1u);
    // Entries are keyed by the exact member set, not by a group value.
    EXPECT_EQ(cache.Get({7, 8}), nullptr);
    EXPECT_EQ(cache.Get({8}), nullptr);
  }
}

class MaskAggExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("maskagg");
    store_ = MakeStore(dir_->path(), 16, 2, 48, 48, /*seed=*/55);
    index_ = std::make_unique<IndexManager>(store_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*store_));
    store_->ResetCounters();
  }

  MaskAggQuery IntersectQuery(size_t k) const {
    MaskAggQuery q;
    q.op = MaskAggOp::kIntersectThreshold;
    q.agg_threshold = 0.7;
    q.term.roi_source = RoiSource::kObjectBox;
    q.term.range = ValueRange(0.7, 1.0);  // counts the "1" pixels
    q.group_key = GroupKey::kImageId;
    q.k = k;
    q.descending = true;
    return q;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<IndexManager> index_;
};

TEST_F(MaskAggExecTest, IntersectTopKMatchesReference) {
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok()) << got.status();
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group) << "rank " << i;
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, UnionAndAverageMatchReference) {
  FullScanBaseline reference(store_.get());
  for (MaskAggOp op : {MaskAggOp::kUnionThreshold, MaskAggOp::kAverage}) {
    MaskAggQuery q = IntersectQuery(4);
    q.op = op;
    if (op == MaskAggOp::kAverage) q.term.range = ValueRange(0.5, 1.0);
    DerivedIndexCache cache(TestConfig());
    auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
    ASSERT_TRUE(got.ok());
    auto want = reference.MaskAggregate(q);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->groups.size(), want->groups.size());
    for (size_t i = 0; i < got->groups.size(); ++i) {
      EXPECT_EQ(got->groups[i].group, want->groups[i].group);
      EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
    }
  }
}

TEST_F(MaskAggExecTest, MemberBoundsPruneWithoutDerivedIndex) {
  // Even with no derived CHIs cached, the member-CHI bounds (§3.4 extension)
  // must prune some groups for a selective having predicate.
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 1e9;  // nothing passes; member upper bounds prove it
  auto r = ExecuteMaskAgg(*store_, index_.get(), nullptr, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->groups.empty());
  EXPECT_EQ(r->stats.masks_loaded, 0);
}

TEST_F(MaskAggExecTest, DerivedCacheAmortizesLoads) {
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto first = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(first.ok());
  const int64_t first_loads = first->stats.masks_loaded;
  EXPECT_GT(cache.size(), 0u);

  auto second = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->stats.masks_loaded, first_loads);
  ASSERT_EQ(second->groups.size(), first->groups.size());
  for (size_t i = 0; i < first->groups.size(); ++i) {
    EXPECT_EQ(second->groups[i].group, first->groups[i].group);
    EXPECT_DOUBLE_EQ(second->groups[i].value, first->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, ZeroRangeCountsComplement) {
  // CP over the derived mask counting *zero* pixels (range excludes the ONE
  // value): complement accounting in the member-derived bounds.
  MaskAggQuery q = IntersectQuery(4);
  q.term.range = ValueRange(0.0, 0.5);
  DerivedIndexCache cache(TestConfig());
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, AheadOfTimeDerivedIndexBuild) {
  // §3.4: derived indexes "built ahead of time". After BuildDerivedIndexes,
  // a selective HAVING query runs without loading any mask.
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  MS_ASSERT_OK(BuildDerivedIndexes(*store_, q.selection, q.op,
                                   q.agg_threshold, q.group_key, &cache));
  EXPECT_EQ(cache.size(), 16u);  // one derived CHI per image

  MaskAggQuery having = q;
  having.k.reset();
  having.having_op = CompareOp::kGt;
  having.having_threshold = 1e9;  // certainly false from bounds
  auto r = ExecuteMaskAgg(*store_, index_.get(), &cache, having);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.masks_loaded, 0);

  // Results via the prebuilt cache equal the reference.
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
  // Idempotent: a second build call touches nothing.
  const uint64_t loads_before = store_->masks_loaded();
  MS_ASSERT_OK(BuildDerivedIndexes(*store_, q.selection, q.op,
                                   q.agg_threshold, q.group_key, &cache));
  EXPECT_EQ(store_->masks_loaded(), loads_before);
}

TEST_F(MaskAggExecTest, InvalidQueriesRejected) {
  MaskAggQuery neither = IntersectQuery(0);
  neither.k.reset();
  EXPECT_TRUE(ExecuteMaskAgg(*store_, index_.get(), nullptr, neither)
                  .status()
                  .IsInvalidArgument());
}

// A group whose derived CHI was cached when its unit was formed reads only
// its members' ROI rows and is answered by the fused count, even when the
// CHI is evicted before the group is verified: here every load floods the
// shared pool. No derived CHI is ever built from row windows.
TEST_F(MaskAggExecTest, WindowedGroupsNeverBuildDerivedChisFromSlices) {
  BufferPool::Options popts;
  popts.budget_bytes = 256 << 10;  // less than one load's flood
  popts.shards = 1;
  popts.admission = CacheAdmission::kAdmitAll;  // plain LRU
  const auto pool = std::make_shared<BufferPool>(popts);
  DerivedIndexCache cache(TestConfig(), pool);
  const MaskAggQuery q = IntersectQuery(5);
  FullScanBaseline reference(store_.get());
  const AggResult want = reference.MaskAggregate(q).ValueOrDie();
  ASSERT_TRUE(ExecuteMaskAgg(*store_, index_.get(), &cache, q).ok());
  ASSERT_GT(cache.size(), 0u);

  ChiCache flood(pool, TestConfig(), CacheSpace::kMaskChi);
  const Chi big = BuildChi(Mask(256, 256), TestConfig());
  int64_t next_key = 0;
  testing_util::ForwardingStore store(*store_, [&] {
    for (int i = 0; i < 8; ++i) flood.Put(next_key++, big);
  });
  auto got = ExecuteMaskAgg(store, index_.get(), &cache, q);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->groups.size(), want.groups.size());
  for (size_t i = 0; i < want.groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want.groups[i].group) << "rank " << i;
    EXPECT_EQ(got->groups[i].value, want.groups[i].value) << "rank " << i;
  }
  bool windowed = false;
  for (const auto& [id, w] : store.TakeLoads()) {
    windowed = windowed || !w.IsWhole(store_->meta(id));
  }
  EXPECT_TRUE(windowed);
  // Every derived CHI the cache holds is the whole derived mask's.
  for (const internal::AggGroup& g :
       internal::ResolveGroups(*store_, q.selection, q.group_key)) {
    const std::shared_ptr<const Chi> chi = cache.Get(g.members);
    if (chi == nullptr) continue;
    const std::vector<Mask> members =
        store_->LoadMaskBatch(g.members).ValueOrDie();
    const Mask derived =
        ComputeDerivedMask(q.op, q.agg_threshold, members).ValueOrDie();
    EXPECT_EQ(testing_util::ChiBytes(*chi),
              testing_util::ChiBytes(BuildChi(derived, TestConfig())))
        << "group " << g.key;
  }
}

// Parallel batched verification must return byte-identical results to the
// serial schedule, and its filter-stage stats must stay consistent: the
// same groups are partitioned across pruned / accepted / candidates, with
// batching (and prefetch-ahead) only allowed to move groups from pruned to
// candidates (stale heap at decision time — strictly conservative).
class MaskAggParallelTest : public MaskAggExecTest {
 protected:
  /// Runs the query under `parallel` with the CHIs of `chis` and compares
  /// against the exact serial schedule on the same store with index_.
  void ExpectMatchesSerial(const MaskStore& store, ChiSource* chis,
                           const MaskAggQuery& q,
                           const EngineOptions& parallel) {
    EngineOptions serial;
    serial.pool = nullptr;  // batch size degenerates to 1: exact serial path
    DerivedIndexCache serial_cache(TestConfig());
    auto want = ExecuteMaskAgg(store, index_.get(), &serial_cache, q, serial);
    ASSERT_TRUE(want.ok()) << want.status();

    DerivedIndexCache parallel_cache(TestConfig());
    auto got = ExecuteMaskAgg(store, chis, &parallel_cache, q, parallel);
    ASSERT_TRUE(got.ok()) << got.status();

    ASSERT_EQ(got->groups.size(), want->groups.size());
    for (size_t i = 0; i < want->groups.size(); ++i) {
      EXPECT_EQ(got->groups[i].group, want->groups[i].group) << "rank " << i;
      // Byte-identical values (both are exact integer counts or identical
      // tight bounds).
      EXPECT_EQ(std::memcmp(&got->groups[i].value, &want->groups[i].value,
                            sizeof(double)),
                0)
          << "rank " << i;
    }
    const ExecStats& ps = got->stats;
    const ExecStats& ss = want->stats;
    EXPECT_EQ(ps.pruned + ps.accepted_by_bounds + ps.candidates,
              ss.pruned + ss.accepted_by_bounds + ss.candidates);
    // Batching can only move serial-pruned groups into the other buckets.
    EXPECT_LE(ps.pruned, ss.pruned);
    EXPECT_GE(ps.accepted_by_bounds, ss.accepted_by_bounds);
    EXPECT_GE(ps.candidates, ss.candidates);
    // Every group the serial run indexed is indexed by the parallel run too.
    EXPECT_GE(parallel_cache.size(), serial_cache.size());
  }

  void ExpectParallelMatchesSerial(const MaskAggQuery& q) {
    ThreadPool pool(4);
    EngineOptions parallel;
    parallel.pool = &pool;
    parallel.verify_batch = 8;
    ExpectMatchesSerial(*store_, index_.get(), q, parallel);
  }

  /// The overlapped pipeline (io_pool, depth 2) over a sharded copy of the
  /// store, with shard-parallel batch reads, must still match the serial
  /// schedule byte for byte.
  void ExpectOverlappedShardedMatchesSerial(const MaskAggQuery& q) {
    TempDir sharded_dir("maskagg_sharded");
    MS_ASSERT_OK(ReshardMaskStore(*store_, sharded_dir.path(), 4));
    ThreadPool pool(4);
    ThreadPool io_pool(3);
    MaskStore::Options sopts;
    sopts.io_pool = &io_pool;
    auto sharded = MaskStore::Open(sharded_dir.path(), sopts).ValueOrDie();

    EngineOptions overlapped;
    overlapped.pool = &pool;
    overlapped.io_pool = &io_pool;
    overlapped.verify_batch = 4;
    ExpectMatchesSerial(*sharded, index_.get(), q, overlapped);

    // io_pool aliasing the compute pool must also be safe (ParallelFor
    // caller participation keeps nested loops deadlock-free).
    EngineOptions aliased = overlapped;
    aliased.io_pool = &pool;
    ExpectMatchesSerial(*sharded, index_.get(), q, aliased);
  }
};

TEST_F(MaskAggParallelTest, TopKDeterministic) {
  for (MaskAggOp op : {MaskAggOp::kIntersectThreshold,
                       MaskAggOp::kUnionThreshold, MaskAggOp::kAverage}) {
    MaskAggQuery q = IntersectQuery(5);
    q.op = op;
    ExpectParallelMatchesSerial(q);
  }
}

TEST_F(MaskAggParallelTest, TopKAscendingWithHavingDeterministic) {
  MaskAggQuery q = IntersectQuery(4);
  q.descending = false;
  q.having_op = CompareOp::kGt;
  q.having_threshold = 10.0;
  ExpectParallelMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, HavingOnlyDeterministic) {
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 50.0;
  ExpectParallelMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, OverlappedShardedTopKDeterministic) {
  for (MaskAggOp op : {MaskAggOp::kIntersectThreshold,
                       MaskAggOp::kUnionThreshold, MaskAggOp::kAverage}) {
    MaskAggQuery q = IntersectQuery(5);
    q.op = op;
    ExpectOverlappedShardedMatchesSerial(q);
  }
}

TEST_F(MaskAggParallelTest, OverlappedShardedHavingOnlyDeterministic) {
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 50.0;
  ExpectOverlappedShardedMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, OverlappedShardedAscendingWithHavingDeterministic) {
  MaskAggQuery q = IntersectQuery(4);
  q.descending = false;
  q.having_op = CompareOp::kGt;
  q.having_threshold = 10.0;
  ExpectOverlappedShardedMatchesSerial(q);
}

TEST_F(MaskAggParallelTest, ParallelMatchesFullScanReference) {
  ThreadPool pool(3);
  EngineOptions opts;
  opts.pool = &pool;
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto got = ExecuteMaskAgg(*store_, index_.get(), &cache, q, opts);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.MaskAggregate(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(MaskAggExecTest, RepeatedQueryDoesNotRebuildDerivedChis) {
  const MaskAggQuery q = IntersectQuery(5);
  DerivedIndexCache cache(TestConfig());
  auto first = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.chis_built, 0);
  const size_t cached = cache.size();

  // Every verified group's derived CHI is now cached: a repeat of the same
  // query must not pay any CHI build again.
  auto second = ExecuteMaskAgg(*store_, index_.get(), &cache, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.chis_built, 0);
  EXPECT_EQ(cache.size(), cached);
}

// Every pipeline configuration — pools {none, pool, pool + io_pool, io_pool
// aliased to pool} x store {cold, warm buffer pool} x verify_batch {1, 5,
// auto} x CHI source {IndexManager, shared ChiCache} — matches the serial
// schedule byte for byte. Only io_pool
// configurations may skip prefetches; on the warm store every verified
// group is resident, so each one is skipped and nothing is read. A repeat
// on the same derived cache, and a run without one, answer with the fused
// count: on the raw uncached store they read only the members' ROI rows.
TEST_F(MaskAggParallelTest, PipelineMatrixMatchesSerial) {
  BufferPool::Options popts;
  popts.budget_bytes = 64ull << 20;  // ample: everything stays resident
  MaskStore::Options copts;
  copts.cache = std::make_shared<BufferPool>(popts);
  auto warm = MaskStore::Open(dir_->path(), copts).ValueOrDie();
  std::vector<MaskId> all;
  for (MaskId id = 0; id < warm->num_masks(); ++id) all.push_back(id);
  MS_ASSERT_OK(warm->LoadMaskBatch(all).status());

  const std::unique_ptr<ChiCache> shared =
      testing_util::CopyToChiCache(*index_);
  ChiSource* const sources[] = {index_.get(), shared.get()};
  const size_t batches[] = {1, 5, 0};

  MaskAggQuery topk = IntersectQuery(5);
  MaskAggQuery having = IntersectQuery(0);
  having.k.reset();
  having.having_op = CompareOp::kGt;
  having.having_threshold = 50.0;

  ThreadPool pool(4);
  ThreadPool io_pool(2);
  struct Pools {
    ThreadPool* pool;
    ThreadPool* io_pool;
  };
  const Pools pool_sets[] = {
      {nullptr, nullptr}, {&pool, nullptr}, {&pool, &io_pool}, {&pool, &pool}};
  FullScanBaseline mask_agg_reference(store_.get());
  for (const MaskAggQuery& q : {topk, having}) {
    const Result<AggResult> want = mask_agg_reference.MaskAggregate(q);
    ASSERT_TRUE(want.ok());
    for (const MaskStore* store : {store_.get(), warm.get()}) {
      for (const Pools& p : pool_sets) {
        for (size_t run = 0; run < 6; ++run) {
          const size_t batch = batches[run / 2];
          ChiSource* const chis = sources[run % 2];
          SCOPED_TRACE(std::string(q.k ? "top-k" : "having") + " warm " +
                       std::to_string(store == warm.get()) + " pools " +
                       std::to_string(p.pool != nullptr) +
                       std::to_string(p.io_pool != nullptr) + " batch " +
                       std::to_string(batch) + " shared cache " +
                       std::to_string(chis == shared.get()));
          EngineOptions opts;
          opts.pool = p.pool;
          opts.io_pool = p.io_pool;
          opts.verify_batch = batch;
          ExpectMatchesSerial(*store, chis, q, opts);

          const uint64_t physical_before = store->masks_loaded();
          DerivedIndexCache cache(TestConfig());
          auto got = ExecuteMaskAgg(*store, chis, &cache, q, opts);
          ASSERT_TRUE(got.ok()) << got.status();
          if (p.io_pool == nullptr || store != warm.get()) {
            EXPECT_EQ(got->stats.prefetch_skipped, 0);
          } else {
            EXPECT_EQ(got->stats.prefetch_skipped, got->stats.candidates);
            EXPECT_EQ(store->masks_loaded(), physical_before);
          }

          const bool windowed = store == store_.get();
          for (DerivedIndexCache* again :
               {&cache, static_cast<DerivedIndexCache*>(nullptr)}) {
            testing_util::ForwardingStore fwd(*store);
            auto repeat = ExecuteMaskAgg(fwd, chis, again, q, opts);
            ASSERT_TRUE(repeat.ok()) << repeat.status();
            ASSERT_EQ(repeat->groups.size(), want->groups.size());
            for (size_t i = 0; i < want->groups.size(); ++i) {
              EXPECT_EQ(repeat->groups[i].group, want->groups[i].group);
              // NaN: a HAVING group accepted by non-tight bounds.
              if (!std::isnan(repeat->groups[i].value)) {
                EXPECT_EQ(repeat->groups[i].value, want->groups[i].value);
              }
            }
            EXPECT_EQ(repeat->stats.chis_built, 0);
            if (again == nullptr) {
              EXPECT_EQ(testing_util::ExpectLoadedRows(
                            &fwd, {q.term}, windowed, repeat->stats.bytes_read),
                        repeat->stats.masks_loaded);
            }
          }
        }
      }
    }
  }

  // Scalar aggregation runs on the same group driver and pipeline: every
  // op, HAVING-only and top-k both ways, under the same pool sets and four
  // stores holding the same masks (raw uncached, raw cached cold and warm,
  // compressed), matches the serial schedule and the full-scan reference
  // with equal stats on every store. The raw uncached store reads only the
  // rows of each loaded member's object box.
  TempDir raw_dir("maskagg_raw");
  TempDir compressed_dir("maskagg_compressed");
  testing_util::WriteQuantizedTwins(*store_, raw_dir.path(),
                                    compressed_dir.path());
  auto raw = MaskStore::Open(raw_dir.path()).ValueOrDie();
  auto compressed = MaskStore::Open(compressed_dir.path()).ValueOrDie();
  IndexManager index(raw->num_masks(), TestConfig());
  MS_ASSERT_OK(index.BuildAll(*raw));
  auto open_cached = [&] {
    MaskStore::Options cached;
    cached.cache = std::make_shared<BufferPool>(popts);
    return MaskStore::Open(raw_dir.path(), cached).ValueOrDie();
  };
  auto raw_warm = open_cached();
  MS_ASSERT_OK(raw_warm->LoadMaskBatch(all).status());
  enum Kind { kUncached, kCold, kWarm, kCompressed, kNumKinds };

  FullScanBaseline reference(raw.get());
  const int64_t num_groups = 16;
  for (ScalarAggOp op : {ScalarAggOp::kSum, ScalarAggOp::kAvg,
                         ScalarAggOp::kMin, ScalarAggOp::kMax}) {
    AggregationQuery base;
    base.term.roi_source = RoiSource::kObjectBox;
    base.term.range = ValueRange(0.7, 1.0);
    base.op = op;
    base.group_key = GroupKey::kImageId;
    // HAVING at the median group value: some groups on each side.
    AggregationQuery every = base;
    every.k = num_groups;
    const AggResult ranked = reference.Aggregate(every).ValueOrDie();
    ASSERT_EQ(ranked.groups.size(), static_cast<size_t>(num_groups));
    AggregationQuery over_median = base;
    over_median.having_op = CompareOp::kGt;
    over_median.having_threshold = ranked.groups[num_groups / 2].value;
    AggregationQuery desc = base;
    desc.k = 5;
    AggregationQuery asc = desc;
    asc.descending = false;

    for (const AggregationQuery& q : {over_median, desc, asc}) {
      const AggResult want = reference.Aggregate(q).ValueOrDie();
      const AggResult serial =
          ExecuteAggregation(*raw, &index, q).ValueOrDie();
      for (const Pools& p : pool_sets) {
        for (size_t batch : {size_t{1}, size_t{3}, size_t{0}}) {
          std::optional<ExecStats> first;
          int64_t loaded[kNumKinds] = {};
          for (int kind = 0; kind < kNumKinds; ++kind) {
            SCOPED_TRACE(std::string(ScalarAggOpToString(op)) +
                         (q.k ? (q.descending ? " top-k desc" : " top-k asc")
                              : " having") +
                         " store " + std::to_string(kind) + " pools " +
                         std::to_string(p.pool != nullptr) +
                         std::to_string(p.io_pool != nullptr) + " batch " +
                         std::to_string(batch));
            std::unique_ptr<MaskStore> cold =
                kind == kCold ? open_cached() : nullptr;
            testing_util::ForwardingStore store(
                kind == kUncached ? *raw
                : kind == kCold   ? *cold
                : kind == kWarm   ? *raw_warm
                                  : *compressed);
            EngineOptions opts;
            opts.pool = p.pool;
            opts.io_pool = p.io_pool;
            opts.verify_batch = batch;
            auto got = ExecuteAggregation(store, &index, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            ASSERT_EQ(got->groups.size(), serial.groups.size());
            ASSERT_EQ(got->groups.size(), want.groups.size());
            for (size_t i = 0; i < got->groups.size(); ++i) {
              const ScoredGroup& g = got->groups[i];
              EXPECT_EQ(g.group, serial.groups[i].group) << "rank " << i;
              EXPECT_EQ(g.group, want.groups[i].group) << "rank " << i;
              EXPECT_EQ(std::memcmp(&g.value, &serial.groups[i].value,
                                    sizeof(double)),
                        0)
                  << "rank " << i;
              // Only a HAVING group accepted by non-tight bounds has no
              // value (NaN); every other value is the exact aggregate.
              if (!std::isnan(g.value)) {
                EXPECT_EQ(std::memcmp(&g.value, &want.groups[i].value,
                                      sizeof(double)),
                          0)
                    << "rank " << i;
              }
            }
            const ExecStats& st = got->stats;
            EXPECT_EQ(st.pruned + st.accepted_by_bounds + st.candidates,
                      num_groups);
            if (!q.k) {
              EXPECT_EQ(st.candidates, serial.stats.candidates);
              if (kind == kUncached) {
                EXPECT_EQ(st.masks_loaded, serial.stats.masks_loaded);
              }
            }
            if (!first) first = st;
            EXPECT_EQ(st.pruned, first->pruned);
            EXPECT_EQ(st.accepted_by_bounds, first->accepted_by_bounds);
            EXPECT_EQ(st.candidates, first->candidates);
            loaded[kind] = st.masks_loaded;
            EXPECT_EQ(testing_util::ExpectLoadedRows(&store, {q.term},
                                                     kind == kUncached,
                                                     st.bytes_read, &index),
                      st.masks_loaded);
          }
          // Whole members everywhere but on the raw uncached store, which
          // skips members whose cells the CHI all pins.
          EXPECT_EQ(loaded[kWarm], loaded[kCold]);
          EXPECT_EQ(loaded[kCompressed], loaded[kCold]);
          EXPECT_LE(loaded[kUncached], loaded[kCold]);
        }
      }
    }
  }

  // The ragged edge store (pixels on and beside bin edges) under the 8-bin,
  // 20-bin and equi-depth CHIs of testing_util::EdgeChiConfigs: SUM and
  // MIN aggregations (top-k both ways, HAVING at the median) over each edge
  // range, and AVG / INTERSECT mask aggregations run cold, repeated on
  // their derived cache and without one, on the raw uncached store (cell
  // bands, ROI rows) and a cached one, serial and overlapped, match the
  // full-scan reference.
  TempDir edge_dir("maskagg_edge");
  auto edge = testing_util::MakeEdgeStore(edge_dir.path(), 12, 45, 37, 29);
  auto edge_cached = [&] {
    MaskStore::Options cached;
    cached.cache = std::make_shared<BufferPool>(popts);
    return MaskStore::Open(edge_dir.path(), cached).ValueOrDie();
  }();
  FullScanBaseline edge_reference(edge.get());
  const Pools edge_pools[] = {{nullptr, nullptr}, {&pool, &io_pool}};
  const std::vector<ValueRange> ranges = testing_util::EdgeValueRanges();
  for (const ChiConfig& cfg : testing_util::EdgeChiConfigs()) {
    IndexManager edge_index(edge->num_masks(), cfg);
    MS_ASSERT_OK(edge_index.BuildAll(*edge));
    for (size_t r = 0; r < ranges.size(); ++r) {
      CpTerm term;
      term.roi_source =
          r % 2 == 0 ? RoiSource::kObjectBox : RoiSource::kConstant;
      term.constant_roi = r % 4 == 1 ? ROI(5, 3, 41, 35) : ROI(30, 20, 80, 60);
      term.range = ranges[r];
      std::vector<AggregationQuery> scalar;
      for (ScalarAggOp op : {ScalarAggOp::kSum, ScalarAggOp::kMin}) {
        AggregationQuery base;
        base.term = term;
        base.op = op;
        base.group_key = GroupKey::kImageId;
        AggregationQuery every = base;
        every.k = 12;
        const AggResult ranked =
            edge_reference.Aggregate(every).ValueOrDie();
        AggregationQuery over = base;
        over.having_op = CompareOp::kGt;
        over.having_threshold = ranked.groups[6].value;
        AggregationQuery desc = base;
        desc.k = 3;
        AggregationQuery asc = desc;
        asc.descending = false;
        scalar.insert(scalar.end(), {over, desc, asc});
      }
      std::vector<MaskAggQuery> derived(2);
      derived[0].op = MaskAggOp::kAverage;
      derived[1].op = MaskAggOp::kIntersectThreshold;
      derived[1].agg_threshold = 0.35;
      derived[1].having_op = CompareOp::kGt;
      derived[1].having_threshold = 0.0;
      for (MaskAggQuery& q : derived) {
        q.term = term;
        if (q.op == MaskAggOp::kIntersectThreshold) {
          q.term.range = ValueRange(0.5, 1.0);  // the "1" pixels
        } else {
          q.k = 3;
        }
        q.group_key = GroupKey::kImageId;
      }
      for (const MaskStore* inner : {edge.get(), edge_cached.get()}) {
        const bool windowed = inner == edge.get();
        for (const Pools& p : edge_pools) {
          SCOPED_TRACE("edge bins " + std::to_string(cfg.num_bins) +
                       " range " + ranges[r].ToString() + " roi " +
                       std::to_string(r % 4) + " cached " +
                       std::to_string(!windowed) + " io_pool " +
                       std::to_string(p.io_pool != nullptr));
          EngineOptions opts;
          opts.pool = p.pool;
          opts.io_pool = p.io_pool;
          for (const AggregationQuery& q : scalar) {
            const AggResult want = edge_reference.Aggregate(q).ValueOrDie();
            testing_util::ForwardingStore store(*inner);
            auto got = ExecuteAggregation(store, &edge_index, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            ASSERT_EQ(got->groups.size(), want.groups.size());
            for (size_t i = 0; i < got->groups.size(); ++i) {
              EXPECT_EQ(got->groups[i].group, want.groups[i].group);
              if (!std::isnan(got->groups[i].value)) {
                EXPECT_EQ(got->groups[i].value, want.groups[i].value);
              }
            }
            EXPECT_EQ(testing_util::ExpectLoadedRows(&store, {q.term},
                                                     windowed,
                                                     got->stats.bytes_read,
                                                     &edge_index),
                      got->stats.masks_loaded);
          }
          for (const MaskAggQuery& q : derived) {
            const AggResult want =
                edge_reference.MaskAggregate(q).ValueOrDie();
            DerivedIndexCache cache(cfg);
            for (DerivedIndexCache* c :
                 {&cache, &cache, static_cast<DerivedIndexCache*>(nullptr)}) {
              auto got = ExecuteMaskAgg(*inner, &edge_index, c, q, opts);
              ASSERT_TRUE(got.ok()) << got.status();
              ASSERT_EQ(got->groups.size(), want.groups.size());
              for (size_t i = 0; i < got->groups.size(); ++i) {
                EXPECT_EQ(got->groups[i].group, want.groups[i].group);
                if (!std::isnan(got->groups[i].value)) {
                  EXPECT_EQ(got->groups[i].value, want.groups[i].value);
                }
              }
            }
          }
        }
      }
    }
  }
}

// A HAVING-only query without io_pool polls QueryControl between
// verification batches like every other shape: a cancel that arrives while
// the first batch loads ends the query with kCancelled at the next boundary.
TEST_F(MaskAggExecTest, HavingOnlyCancelMidQueryStopsAtBatchBoundary) {
  QueryControl control;
  // Cancels from inside the first verification load, whole or windowed.
  const testing_util::ForwardingStore store(*store_,
                                            [&] { control.Cancel(); });
  MaskAggQuery q = IntersectQuery(0);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 50.0;
  EngineOptions opts;
  opts.control = &control;
  // No index: every group is a candidate, in several batches.
  auto r = ExecuteMaskAgg(store, nullptr, nullptr, q, opts);
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();

  // Scalar aggregation shares the driver and stops the same way.
  control.cancelled.store(false);
  AggregationQuery agg;
  agg.term = q.term;
  agg.op = ScalarAggOp::kSum;
  agg.having_op = CompareOp::kGt;
  agg.having_threshold = 50.0;
  auto a = ExecuteAggregation(store, nullptr, agg, opts);
  EXPECT_TRUE(a.status().IsCancelled()) << a.status();
}

}  // namespace
}  // namespace masksearch
