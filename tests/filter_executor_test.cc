// Tests for filter–verification execution (§3.2): correctness against the
// brute-force reference, pruning accounting, and all indexing regimes.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/cache/buffer_pool.h"
#include "masksearch/cache/chi_cache.h"
#include "masksearch/exec/filter_executor.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "masksearch/workload/query_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

class FilterExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("filter");
    store_ = MakeStore(dir_->path(), /*num_images=*/20, /*num_models=*/2,
                       /*w=*/48, /*h=*/48, /*seed=*/11);
    index_ = std::make_unique<IndexManager>(store_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*store_));
    store_->ResetCounters();
  }

  FilterQuery ObjectQuery(double lv, double uv, double threshold) const {
    FilterQuery q;
    CpTerm term;
    term.roi_source = RoiSource::kObjectBox;
    term.range = ValueRange(lv, uv);
    q.terms.push_back(term);
    q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, threshold);
    return q;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<IndexManager> index_;
};

TEST_F(FilterExecutorTest, MatchesReferenceAcrossThresholds) {
  FullScanBaseline reference(store_.get());
  for (double threshold : {0.0, 50.0, 200.0, 800.0, 2000.0}) {
    const FilterQuery q = ObjectQuery(0.6, 1.0, threshold);
    auto got = ExecuteFilter(*store_, index_.get(), q);
    ASSERT_TRUE(got.ok()) << got.status();
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->mask_ids, want->mask_ids) << "threshold " << threshold;
  }
}

TEST_F(FilterExecutorTest, StatsPartitionTargetedMasks) {
  const FilterQuery q = ObjectQuery(0.5, 0.9, 300.0);
  auto r = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  const ExecStats& s = r->stats;
  EXPECT_EQ(s.masks_targeted, store_->num_masks());
  EXPECT_EQ(s.pruned + s.accepted_by_bounds + s.candidates, s.masks_targeted);
  // Cell bands: a verified mask whose cells the CHI all pins reads nothing.
  EXPECT_LE(s.masks_loaded, s.candidates);
  EXPECT_GE(s.FML(), 0.0);
  EXPECT_LE(s.FML(), 1.0);
}

TEST_F(FilterExecutorTest, IndexReducesLoadsButNotResults) {
  const FilterQuery q = ObjectQuery(0.6, 1.0, 100.0);
  auto with_index = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(with_index.ok());

  auto without = ExecuteFilter(*store_, nullptr, q);
  ASSERT_TRUE(without.ok());

  EXPECT_EQ(with_index->mask_ids, without->mask_ids);
  EXPECT_EQ(without->stats.masks_loaded, store_->num_masks());
  EXPECT_LT(with_index->stats.masks_loaded, without->stats.masks_loaded);
}

TEST_F(FilterExecutorTest, IncrementalIndexingBuildsOnlyLoadedMasks) {
  IndexManager empty(store_->num_masks(), TestConfig());
  const FilterQuery q = ObjectQuery(0.6, 1.0, 100.0);
  auto first = ExecuteFilter(*store_, &empty, q);
  ASSERT_TRUE(first.ok());
  // No index yet: every mask is loaded and indexed (§3.6).
  EXPECT_EQ(first->stats.masks_loaded, store_->num_masks());
  EXPECT_EQ(first->stats.chis_built, store_->num_masks());
  EXPECT_EQ(static_cast<int64_t>(empty.num_built()), store_->num_masks());

  // Every CHI was built from the whole mask, never from a row window.
  for (MaskId id = 0; id < store_->num_masks(); ++id) {
    ASSERT_NE(empty.Get(id), nullptr) << "mask " << id;
    EXPECT_EQ(testing_util::ChiBytes(*empty.Get(id)),
              testing_util::ChiBytes(
                  BuildChi(store_->LoadMask(id).ValueOrDie(), TestConfig())))
        << "mask " << id;
  }

  // Second identical query now benefits from the incrementally built index,
  // and with every CHI built it reads only the object boxes' uncertain
  // cell bands.
  testing_util::ForwardingStore store(*store_);
  auto second = ExecuteFilter(store, &empty, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->mask_ids, first->mask_ids);
  EXPECT_LT(second->stats.masks_loaded, first->stats.masks_loaded);
  EXPECT_EQ(second->stats.chis_built, 0);
  EXPECT_EQ(testing_util::ExpectLoadedRows(&store, q.terms, /*windowed=*/true,
                                           second->stats.bytes_read, &empty),
            second->stats.masks_loaded);
}

// Bounded incremental indexing: with a ChiCache as the source, a mask
// missing from it is read whole and its CHI retained; once cached, its
// loads read only its uncertain cell bands.
TEST_F(FilterExecutorTest, ChiCacheRetentionBuildsFromWholeMasks) {
  BufferPool::Options popts;
  popts.budget_bytes = 64ull << 20;
  ChiCache cache(std::make_shared<BufferPool>(popts), TestConfig());
  const FilterQuery q = ObjectQuery(0.6, 1.0, 100.0);
  testing_util::ForwardingStore store(*store_);
  auto first = ExecuteFilter(store, &cache, q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.chis_built, store_->num_masks());
  testing_util::ExpectLoadedRows(&store, q.terms, /*windowed=*/false,
                                 first->stats.bytes_read);
  for (MaskId id = 0; id < store_->num_masks(); ++id) {
    ASSERT_TRUE(cache.Contains(id));
    EXPECT_EQ(testing_util::ChiBytes(*cache.Get(id)),
              testing_util::ChiBytes(
                  BuildChi(store_->LoadMask(id).ValueOrDie(), TestConfig())))
        << "mask " << id;
  }
  auto second = ExecuteFilter(store, &cache, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->mask_ids, first->mask_ids);
  EXPECT_EQ(second->stats.chis_built, 0);
  EXPECT_LT(second->stats.masks_loaded, first->stats.masks_loaded);
  EXPECT_EQ(testing_util::ExpectLoadedRows(&store, q.terms, /*windowed=*/true,
                                           second->stats.bytes_read, &cache),
            second->stats.masks_loaded);
}

TEST_F(FilterExecutorTest, SelectionByModel) {
  FilterQuery q = ObjectQuery(0.5, 1.0, -1.0);  // always true
  q.selection.model_ids = {1};
  auto r = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.masks_targeted, store_->num_masks() / 2);
  for (MaskId id : r->mask_ids) {
    EXPECT_EQ(store_->meta(id).model_id, 1);
  }
}

TEST_F(FilterExecutorTest, SelectionByExplicitIds) {
  FilterQuery q = ObjectQuery(0.5, 1.0, -1.0);
  q.selection.mask_ids = {3, 1, 7, 3};  // duplicates and disorder
  auto r = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->mask_ids, (std::vector<MaskId>{1, 3, 7}));
}

TEST_F(FilterExecutorTest, TrivialPredicatesShortCircuit) {
  // Always-true predicate: every mask accepted from bounds, zero loads.
  const FilterQuery yes = ObjectQuery(0.0, 1.0, -1.0);
  auto r1 = ExecuteFilter(*store_, index_.get(), yes);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.masks_loaded, 0);
  EXPECT_EQ(static_cast<int64_t>(r1->mask_ids.size()), store_->num_masks());

  // Impossible predicate (> area): every mask pruned, zero loads.
  const FilterQuery no = ObjectQuery(0.0, 1.0, 1e9);
  auto r2 = ExecuteFilter(*store_, index_.get(), no);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.masks_loaded, 0);
  EXPECT_TRUE(r2->mask_ids.empty());
}

TEST_F(FilterExecutorTest, CompoundPredicate) {
  FilterQuery q;
  CpTerm t0;
  t0.roi_source = RoiSource::kObjectBox;
  t0.range = ValueRange(0.7, 1.0);
  CpTerm t1;
  t1.roi_source = RoiSource::kFullMask;
  t1.range = ValueRange(0.7, 1.0);
  q.terms = {t0, t1};
  std::vector<Predicate> kids;
  // Salient mass inside the object is less than half the total: the
  // dispersed-mask hunt of Scenario 1.
  kids.push_back(Predicate::Compare(
      CpExpr::Term(0) - CpExpr::Constant(0.5) * CpExpr::Term(1),
      CompareOp::kLt, 0.0));
  kids.push_back(Predicate::Compare(CpExpr::Term(1), CompareOp::kGt, 50.0));
  q.predicate = Predicate::And(std::move(kids));

  auto got = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.Filter(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->mask_ids, want->mask_ids);
  EXPECT_FALSE(got->mask_ids.empty());  // dataset contains dispersed masks
}

TEST_F(FilterExecutorTest, LessThanPredicate) {
  FilterQuery q = ObjectQuery(0.8, 1.0, 0.0);
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kLt, 50.0);
  auto got = ExecuteFilter(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.Filter(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->mask_ids, want->mask_ids);
}

TEST_F(FilterExecutorTest, ParallelExecutionMatchesSequential) {
  ThreadPool pool(4);
  EngineOptions par;
  par.pool = &pool;
  for (int i = 0; i < 5; ++i) {
    Rng rng(500 + i);
    const FilterQuery q = GenerateFilterQuery(&rng, *store_);
    auto seq = ExecuteFilter(*store_, index_.get(), q);
    auto parr = ExecuteFilter(*store_, index_.get(), q, par);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(parr.ok());
    EXPECT_EQ(seq->mask_ids, parr->mask_ids);
    EXPECT_EQ(seq->stats.masks_loaded, parr->stats.masks_loaded);
  }
}

TEST_F(FilterExecutorTest, RandomizedQueriesMatchReference) {
  FullScanBaseline reference(store_.get());
  Rng rng(999);
  for (int i = 0; i < 25; ++i) {
    const FilterQuery q = GenerateFilterQuery(&rng, *store_);
    auto got = ExecuteFilter(*store_, index_.get(), q);
    ASSERT_TRUE(got.ok());
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->mask_ids, want->mask_ids) << "query " << i;
    // The index never loads more than the baseline.
    ASSERT_LE(got->stats.masks_loaded, want->stats.masks_loaded);
  }
}

// Every pipeline configuration — store {raw uncached, raw cached cold, raw
// cached warm, compressed} x pools {none, pool, pool + io_pool, io_pool
// aliased to pool} x verify_batch {1, 5, auto} x CHI source {IndexManager,
// shared ChiCache, none} —
// returns the reference answer with identical per-mask stats. The queries
// cover one object-box term, two disjoint ROIs (object box + a rectangle),
// an ROI partly outside the mask, and an empty ROI. The raw uncached store
// reads each verified mask's uncertain cell bands with an index and its ROI
// rows without; the others read every verified mask whole, so bytes_read
// and masks_loaded are equal per store, not across stores (a mask whose
// cells the CHI all pins is verified without a read). Only io_pool
// configurations may skip prefetches, and on the warm store every batch is
// resident, so every one of them is skipped and nothing is read. A second
// part runs a ragged store with pixels on and beside the bin edges under
// 8-bin, 20-bin and equi-depth CHIs (testing_util::EdgeChiConfigs).
TEST_F(FilterExecutorTest, PipelineMatrixMatchesReference) {
  TempDir raw_dir("filter_raw");
  TempDir compressed_dir("filter_compressed");
  testing_util::WriteQuantizedTwins(*store_, raw_dir.path(),
                                    compressed_dir.path());
  auto raw = MaskStore::Open(raw_dir.path()).ValueOrDie();
  auto compressed = MaskStore::Open(compressed_dir.path()).ValueOrDie();
  IndexManager index(raw->num_masks(), TestConfig());
  MS_ASSERT_OK(index.BuildAll(*raw));
  const std::unique_ptr<ChiCache> shared = testing_util::CopyToChiCache(index);
  ChiSource* const sources[] = {&index, shared.get(), nullptr};
  BufferPool::Options popts;
  popts.budget_bytes = 64ull << 20;  // ample: everything stays resident
  auto open_cached = [&] {
    MaskStore::Options copts;
    copts.cache = std::make_shared<BufferPool>(popts);
    return MaskStore::Open(raw_dir.path(), copts).ValueOrDie();
  };
  auto warm = open_cached();
  std::vector<MaskId> all;
  for (MaskId id = 0; id < warm->num_masks(); ++id) all.push_back(id);
  MS_ASSERT_OK(warm->LoadMaskBatch(all).status());

  auto term = [](RoiSource source, ROI roi, double lv) {
    CpTerm t;
    t.roi_source = source;
    t.constant_roi = roi;
    t.range = ValueRange(lv, 1.0);
    return t;
  };
  const CpExpr sum = CpExpr::Term(0) + CpExpr::Term(1);
  std::vector<FilterQuery> queries;
  for (double threshold : {0.0, 100.0, 500.0}) {
    queries.push_back(ObjectQuery(0.55, 1.0, threshold));
  }
  FilterQuery disjoint;  // object box + the bottom rows
  disjoint.terms = {term(RoiSource::kObjectBox, {}, 0.6),
                    term(RoiSource::kConstant, ROI(0, 44, 48, 48), 0.3)};
  disjoint.predicate = Predicate::Compare(sum, CompareOp::kGt, 150.0);
  queries.push_back(disjoint);
  FilterQuery outside;  // rows 30..60 of a 48-row mask
  outside.terms = {term(RoiSource::kConstant, ROI(20, 30, 70, 60), 0.5)};
  outside.predicate =
      Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 100.0);
  queries.push_back(outside);
  FilterQuery empty_roi;  // a zero-width ROI beside a rectangle
  empty_roi.terms = {term(RoiSource::kConstant, ROI(9, 2, 9, 40), 0.0),
                     term(RoiSource::kConstant, ROI(4, 12, 30, 20), 0.6)};
  empty_roi.predicate = Predicate::Compare(sum, CompareOp::kGt, 40.0);
  queries.push_back(empty_roi);
  FilterQuery only_empty;  // every ROI empty: whole masks
  only_empty.terms = {term(RoiSource::kConstant, ROI(60, 0, 70, 48), 0.0)};
  only_empty.predicate =
      Predicate::Compare(CpExpr::Term(0), CompareOp::kLt, 1.0);
  queries.push_back(only_empty);

  ThreadPool pool(4);
  ThreadPool io_pool(2);
  struct Pools {
    ThreadPool* pool;
    ThreadPool* io_pool;
  };
  const Pools pool_sets[] = {
      {nullptr, nullptr}, {&pool, nullptr}, {&pool, &io_pool}, {&pool, &pool}};
  enum Kind { kUncached, kCold, kWarm, kCompressed, kNumKinds };
  FullScanBaseline reference(raw.get());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const FilterQuery& q = queries[qi];
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    for (ChiSource* chis : sources) {
      std::optional<ExecStats> first;
      std::optional<int64_t> bytes[kNumKinds];
      std::optional<int64_t> loaded[kNumKinds];
      for (int kind = 0; kind < kNumKinds; ++kind) {
        for (const Pools& p : pool_sets) {
          for (size_t batch : {size_t{1}, size_t{5}, size_t{0}}) {
            std::unique_ptr<MaskStore> cold =
                kind == kCold ? open_cached() : nullptr;
            const MaskStore& inner = kind == kUncached    ? *raw
                                     : kind == kCold      ? *cold
                                     : kind == kWarm      ? *warm
                                                          : *compressed;
            testing_util::ForwardingStore store(inner);
            EngineOptions opts;
            opts.pool = p.pool;
            opts.io_pool = p.io_pool;
            opts.verify_batch = batch;
            const uint64_t physical_before = store.masks_loaded();
            auto got = ExecuteFilter(store, chis, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            SCOPED_TRACE("query " + std::to_string(qi) + " source " +
                         std::to_string(chis == nullptr         ? 0
                                        : chis == shared.get() ? 2
                                                               : 1) +
                         " store " +
                         std::to_string(kind) + " pools " +
                         std::to_string(p.pool != nullptr) +
                         std::to_string(p.io_pool != nullptr) + " batch " +
                         std::to_string(batch));
            EXPECT_EQ(got->mask_ids, want->mask_ids);
            const ExecStats& s = got->stats;
            if (!first) first = s;
            EXPECT_EQ(s.pruned, first->pruned);
            EXPECT_EQ(s.accepted_by_bounds, first->accepted_by_bounds);
            EXPECT_EQ(s.candidates, first->candidates);
            if (!bytes[kind]) bytes[kind] = s.bytes_read;
            EXPECT_EQ(s.bytes_read, *bytes[kind]);
            if (!loaded[kind]) loaded[kind] = s.masks_loaded;
            EXPECT_EQ(s.masks_loaded, *loaded[kind]);
            if (kind == kUncached && chis != nullptr) {
              EXPECT_LE(s.masks_loaded, s.candidates);
            } else {
              EXPECT_EQ(s.masks_loaded, s.candidates);
            }
            EXPECT_EQ(testing_util::ExpectLoadedRows(&store, q.terms,
                                                     kind == kUncached,
                                                     s.bytes_read, chis),
                      s.masks_loaded);
            if (p.io_pool == nullptr || kind != kWarm) {
              EXPECT_EQ(s.prefetch_skipped, 0);
            } else {
              // Every unit is resident: a batch of m masks loads as
              // min(m, io_pool threads) units.
              const int64_t b =
                  batch > 0 ? static_cast<int64_t>(batch) : int64_t{64};
              const int64_t n =
                  static_cast<int64_t>(p.io_pool->num_threads());
              const int64_t rest = s.candidates % b;
              EXPECT_EQ(s.prefetch_skipped,
                        s.candidates / b * std::min(b, n) + std::min(rest, n));
            }
            if (kind == kWarm) {
              EXPECT_EQ(store.masks_loaded(), physical_before);
            }
          }
        }
      }
      // Windows read fewer bytes wherever an ROI spans part of the rows.
      if (qi != queries.size() - 1 && first->candidates > 0) {
        EXPECT_LT(*bytes[kUncached], *bytes[kCold]);
      }
      EXPECT_EQ(*bytes[kCold], *bytes[kWarm]);
    }
  }

  // Cell bands on awkward values: the ragged edge store under each CHI
  // geometry, raw uncached (cell bands) and cached (whole masks), serial
  // and overlapped, for object-box, partly-outside, ragged and two-term
  // queries with each edge range, thresholded at the median exact value.
  TempDir edge_dir("filter_edge");
  auto edge = testing_util::MakeEdgeStore(edge_dir.path(), 12, 45, 37, 17);
  FullScanBaseline edge_reference(edge.get());
  const Pools edge_pools[] = {{nullptr, nullptr}, {&pool, &io_pool}};
  int64_t verified = 0;
  int64_t read = 0;
  for (const ChiConfig& cfg : testing_util::EdgeChiConfigs()) {
    IndexManager edge_index(edge->num_masks(), cfg);
    MS_ASSERT_OK(edge_index.BuildAll(*edge));
    for (const ValueRange& range : testing_util::EdgeValueRanges()) {
      auto edge_term = [&](RoiSource source, ROI roi) {
        CpTerm t = term(source, roi, 0.0);
        t.range = range;
        return t;
      };
      std::vector<std::vector<CpTerm>> term_sets = {
          {edge_term(RoiSource::kObjectBox, {})},
          {edge_term(RoiSource::kConstant, ROI(30, 20, 80, 60))},
          {edge_term(RoiSource::kConstant, ROI(5, 3, 41, 35))},
          {edge_term(RoiSource::kObjectBox, {}),
           term(RoiSource::kConstant, ROI(2, 28, 44, 37), 0.5)}};
      for (const std::vector<CpTerm>& terms : term_sets) {
        FilterQuery q;
        q.terms = terms;
        const CpExpr expr = terms.size() == 1
                                 ? CpExpr::Term(0)
                                 : CpExpr::Term(0) + CpExpr::Term(1);
        std::vector<double> values;
        for (MaskId id = 0; id < edge->num_masks(); ++id) {
          const Mask m = edge->LoadMask(id).ValueOrDie();
          std::vector<double> exact;
          for (const CpTerm& t : terms) {
            exact.push_back(static_cast<double>(
                CountPixels(m, ResolveRoi(t, edge->meta(id)), t.range)));
          }
          values.push_back(expr.EvalExact(exact));
        }
        std::sort(values.begin(), values.end());
        q.predicate = Predicate::Compare(expr, CompareOp::kGt,
                                         values[values.size() / 2]);
        auto want = edge_reference.Filter(q);
        ASSERT_TRUE(want.ok());
        std::optional<ExecStats> first;
        for (const bool cached : {false, true}) {
          for (const Pools& p : edge_pools) {
            SCOPED_TRACE("edge bins " + std::to_string(cfg.num_bins) +
                         " range " + range.ToString() + " terms " +
                         std::to_string(terms.size()) + " roi " +
                         ResolveRoi(terms[0], edge->meta(0)).ToString() +
                         " cached " + std::to_string(cached) + " io_pool " +
                         std::to_string(p.io_pool != nullptr));
            MaskStore::Options copts;
            if (cached) copts.cache = std::make_shared<BufferPool>(popts);
            auto inner = MaskStore::Open(edge_dir.path(), copts).ValueOrDie();
            testing_util::ForwardingStore store(*inner);
            EngineOptions opts;
            opts.pool = p.pool;
            opts.io_pool = p.io_pool;
            auto got = ExecuteFilter(store, &edge_index, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(got->mask_ids, want->mask_ids);
            const ExecStats& s = got->stats;
            if (!first) first = s;
            EXPECT_EQ(s.pruned, first->pruned);
            EXPECT_EQ(s.accepted_by_bounds, first->accepted_by_bounds);
            EXPECT_EQ(s.candidates, first->candidates);
            EXPECT_EQ(s.masks_loaded, cached ? s.candidates
                                             : first->masks_loaded);
            EXPECT_EQ(testing_util::ExpectLoadedRows(&store, q.terms, !cached,
                                                     s.bytes_read, &edge_index),
                      s.masks_loaded);
            if (!cached && p.io_pool == nullptr) {
              verified += s.candidates;
              read += s.masks_loaded;
            }
          }
        }
      }
    }
  }
  // Some verified masks are read in bands, and some not at all.
  EXPECT_GT(read, 0);
  EXPECT_LT(read, verified);
}

TEST_F(FilterExecutorTest, StagedPathOnShardedStoreMatchesReference) {
  TempDir sharded_dir("filter_sharded");
  MS_ASSERT_OK(ReshardMaskStore(*store_, sharded_dir.path(), 4));
  ThreadPool io_pool(3);
  MaskStore::Options sopts;
  sopts.io_pool = &io_pool;
  auto sharded = MaskStore::Open(sharded_dir.path(), sopts).ValueOrDie();

  FullScanBaseline reference(store_.get());
  ThreadPool pool(4);
  EngineOptions opts;
  opts.pool = &pool;
  opts.io_pool = &io_pool;
  opts.verify_batch = 7;
  for (double threshold : {50.0, 400.0}) {
    const FilterQuery q = ObjectQuery(0.6, 1.0, threshold);
    auto got = ExecuteFilter(*sharded, index_.get(), q, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    auto want = reference.Filter(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->mask_ids, want->mask_ids) << "threshold " << threshold;
  }
}

// With an io_pool of N threads, a verification batch of m masks loads as
// min(m, N) LoadMaskWindows calls whose ids and windows partition the
// batch into contiguous runs; without io_pool it is one call per batch.
TEST_F(FilterExecutorTest, BatchesLoadAsConcurrentUnits) {
  FilterQuery q = ObjectQuery(0.6, 1.0, 200.0);
  q.terms.push_back(q.terms[0]);
  q.terms[1].roi_source = RoiSource::kConstant;
  q.terms[1].constant_roi = ROI(0, 30, 48, 40);
  q.predicate = Predicate::Compare(CpExpr::Term(0) + CpExpr::Term(1),
                                   CompareOp::kGt, 200.0);
  FullScanBaseline reference(store_.get());
  auto want = reference.Filter(q);
  ASSERT_TRUE(want.ok());
  ThreadPool pool(2);
  ThreadPool io3(3);
  ThreadPool io8(8);
  for (ThreadPool* io_pool : {static_cast<ThreadPool*>(nullptr), &io3, &io8}) {
    for (size_t batch : {size_t{1}, size_t{2}, size_t{7}, size_t{0}}) {
      SCOPED_TRACE("io threads " +
                   std::to_string(io_pool ? io_pool->num_threads() : 0) +
                   " batch " + std::to_string(batch));
      testing_util::ForwardingStore store(*store_);
      EngineOptions opts;
      opts.pool = &pool;
      opts.io_pool = io_pool;
      opts.verify_batch = batch;
      auto got = ExecuteFilter(store, nullptr, q, opts);  // all undecided
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->mask_ids, want->mask_ids);

      std::vector<std::vector<testing_util::ForwardingStore::Load>> calls =
          store.TakeCalls();
      auto first_id = [](const auto& call) {
        return call.empty() ? MaskId{-1} : call[0].first;
      };
      std::sort(calls.begin(), calls.end(),
                [&](const auto& a, const auto& b) {
                  return first_id(a) < first_id(b);
                });
      const size_t m = batch > 0 ? batch : 64;
      const size_t n = io_pool != nullptr ? io_pool->num_threads() : 1;
      const size_t total = static_cast<size_t>(store_->num_masks());
      size_t c = 0;
      for (size_t first = 0; first < total; first += m) {
        // Batch [first, end): min(size, n) calls of consecutive ids.
        const size_t end = std::min(total, first + m);
        const size_t units = std::min(end - first, n);
        size_t next = first;
        for (size_t u = 0; u < units; ++u, ++c) {
          ASSERT_LT(c, calls.size());
          ASSERT_FALSE(calls[c].empty());
          for (const auto& [id, window] : calls[c]) {
            EXPECT_EQ(id, static_cast<MaskId>(next++));
            const RowWindow rows =
                testing_util::RoiRows(store_->meta(id), q.terms);
            EXPECT_EQ(window.y0, rows.y0) << "mask " << id;
            EXPECT_EQ(window.y1, rows.y1) << "mask " << id;
          }
        }
        EXPECT_EQ(next, end);
      }
      EXPECT_EQ(c, calls.size());
    }
  }
}

TEST_F(FilterExecutorTest, InvalidQueriesRejected) {
  FilterQuery empty;
  EXPECT_TRUE(
      ExecuteFilter(*store_, index_.get(), empty).status().IsInvalidArgument());

  FilterQuery bad_term;
  bad_term.predicate =
      Predicate::Compare(CpExpr::Term(3), CompareOp::kGt, 0.0);
  EXPECT_TRUE(ExecuteFilter(*store_, index_.get(), bad_term)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace masksearch
