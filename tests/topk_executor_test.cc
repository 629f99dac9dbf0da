// Tests for top-k execution (§3.5): exactness against brute force, pruning
// effectiveness, ordering semantics, and MS-II behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/cache/buffer_pool.h"
#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/topk_executor.h"
#include "masksearch/obs/trace.h"
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

class TopKExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("topk");
    store_ = MakeStore(dir_->path(), 25, 2, 48, 48, /*seed=*/21);
    index_ = std::make_unique<IndexManager>(store_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*store_));
    store_->ResetCounters();
  }

  TopKQuery ConstantRoiQuery(size_t k, bool descending) const {
    TopKQuery q;
    CpTerm term;
    term.roi_source = RoiSource::kConstant;
    term.constant_roi = ROI(10, 10, 40, 40);
    term.range = ValueRange(0.7, 1.0);
    q.terms.push_back(term);
    q.order_expr = CpExpr::Term(0);
    q.k = k;
    q.descending = descending;
    return q;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<IndexManager> index_;
};

void ExpectSameItems(const TopKResult& got, const TopKResult& want) {
  ASSERT_EQ(got.items.size(), want.items.size());
  for (size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_EQ(got.items[i].mask_id, want.items[i].mask_id) << "rank " << i;
    if (std::isnan(want.items[i].value)) {
      EXPECT_TRUE(std::isnan(got.items[i].value)) << "rank " << i;
    } else {
      EXPECT_DOUBLE_EQ(got.items[i].value, want.items[i].value) << "rank " << i;
    }
  }
}

TEST_F(TopKExecutorTest, DescendingMatchesReference) {
  const TopKQuery q = ConstantRoiQuery(10, /*descending=*/true);
  auto got = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok()) << got.status();
  FullScanBaseline reference(store_.get());
  auto want = reference.TopK(q);
  ASSERT_TRUE(want.ok());
  ExpectSameItems(*got, *want);
  // Results are sorted best-first.
  for (size_t i = 1; i < got->items.size(); ++i) {
    EXPECT_GE(got->items[i - 1].value, got->items[i].value);
  }
}

TEST_F(TopKExecutorTest, AscendingMatchesReference) {
  const TopKQuery q = ConstantRoiQuery(10, /*descending=*/false);
  auto got = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.TopK(q);
  ASSERT_TRUE(want.ok());
  ExpectSameItems(*got, *want);
  for (size_t i = 1; i < got->items.size(); ++i) {
    EXPECT_LE(got->items[i - 1].value, got->items[i].value);
  }
}

TEST_F(TopKExecutorTest, PruningLoadsFarFewerThanAllMasks) {
  const TopKQuery q = ConstantRoiQuery(5, true);
  auto r = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->stats.masks_loaded, store_->num_masks());
  EXPECT_GT(r->stats.pruned, 0);
}

TEST_F(TopKExecutorTest, KLargerThanDatasetReturnsAll) {
  const TopKQuery q = ConstantRoiQuery(1000, true);
  auto r = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int64_t>(r->items.size()), store_->num_masks());
}

TEST_F(TopKExecutorTest, TieBreakByMaskIdAscending) {
  // A constant-valued dataset region makes all values tie; the winners must
  // be the smallest mask ids.
  TopKQuery q = ConstantRoiQuery(3, true);
  q.terms[0].range = ValueRange(0.0, 1.0);  // value == |roi| for every mask
  auto r = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 3u);
  EXPECT_EQ(r->items[0].mask_id, 0);
  EXPECT_EQ(r->items[1].mask_id, 1);
  EXPECT_EQ(r->items[2].mask_id, 2);
  // Every value is pinned by bounds → nothing needs loading.
  EXPECT_EQ(r->stats.masks_loaded, 0);
}

TEST_F(TopKExecutorTest, SequentialOrderSameResult) {
  // The paper's strict sequential processing (no bound-sorted order) must
  // return the identical result, possibly loading more masks.
  const TopKQuery q = ConstantRoiQuery(8, true);
  EngineOptions sequential;
  sequential.sort_by_bound = false;
  auto a = ExecuteTopK(*store_, index_.get(), q);
  auto b = ExecuteTopK(*store_, index_.get(), q, sequential);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameItems(*a, *b);
  EXPECT_LE(a->stats.masks_loaded, b->stats.masks_loaded);
}

TEST_F(TopKExecutorTest, RatioExpressionTopK) {
  // Example 1: top-k lowest ratio of salient pixels inside the object box to
  // salient pixels overall, with the denominator guarded (+1) and not. A
  // mask with no pixel in (0.8, 1.0) then scores 0 / 0 = NaN, which ranks
  // last in either direction. (A NaN in the running heap once made every
  // value compare equivalent, leaving a single entry.)
  CpTerm obj;
  obj.roi_source = RoiSource::kObjectBox;
  obj.range = ValueRange(0.8, 1.0);
  CpTerm full;
  full.roi_source = RoiSource::kFullMask;
  full.range = ValueRange(0.8, 1.0);
  TopKQuery q;
  q.terms = {obj, full};
  FullScanBaseline reference(store_.get());
  for (const double guard : {1.0, 0.0}) {
    q.order_expr =
        CpExpr::Term(0) / (CpExpr::Term(1) + CpExpr::Constant(guard));
    for (const size_t k : {size_t{5}, size_t{25}}) {
      for (const bool descending : {false, true}) {
        SCOPED_TRACE("guard " + std::to_string(guard) + " k " +
                     std::to_string(k) + " desc " +
                     std::to_string(descending));
        q.k = k;
        q.descending = descending;
        auto want = reference.TopK(q);
        ASSERT_TRUE(want.ok());
        auto got = ExecuteTopK(*store_, index_.get(), q);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameItems(*got, *want);
      }
    }
  }

  // Every mask kept: the NaN-valued ones form the tail, by ascending id.
  q.k = static_cast<size_t>(store_->num_masks());
  q.descending = false;
  auto got = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->items.size(), q.k);
  size_t first_nan = 0;
  while (first_nan < q.k && !std::isnan(got->items[first_nan].value)) {
    ++first_nan;
  }
  EXPECT_LT(first_nan, q.k);
  for (size_t j = first_nan; j < q.k; ++j) {
    EXPECT_TRUE(std::isnan(got->items[j].value)) << "rank " << j;
    if (j > first_nan) {
      EXPECT_GT(got->items[j].mask_id, got->items[j - 1].mask_id);
    }
  }
}

TEST_F(TopKExecutorTest, IncrementalIndexingStillExact) {
  IndexManager empty(store_->num_masks(), TestConfig());
  const TopKQuery q = ConstantRoiQuery(7, true);
  auto first = ExecuteTopK(*store_, &empty, q);
  ASSERT_TRUE(first.ok());
  auto second = ExecuteTopK(*store_, &empty, q);
  ASSERT_TRUE(second.ok());
  ExpectSameItems(*first, *second);
  EXPECT_GT(first->stats.chis_built, 0);
  EXPECT_LT(second->stats.masks_loaded, first->stats.masks_loaded);
}

// Random queries, DESC and ASC, on four stores holding the same masks —
// raw uncached, raw cached cold and warm, compressed — under every pool set
// and batch size, with the CHIs in an IndexManager or (first query) in a
// shared ChiCache, match the full-scan reference. Per schedule, stats
// are equal on every store and from both sources. The raw uncached store
// reads only the rows of each loaded mask's ROIs; the others read whole
// masks. Batches are pruned against the heap as of their formation, so
// they may load more masks than the serial schedule (no io_pool, batch 1),
// never fewer. The 25 queries of one Rng sequence run as five slices of
// five, each its own ctest entry (tests/CMakeLists.txt), so no entry nears
// the time limit under the thread sanitizer.
constexpr int kQueriesPerSlice = 5;

class TopKRandomizedTest : public TopKExecutorTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(TopKRandomizedTest, RandomizedQueriesMatchReference) {
  TempDir raw_dir("topk_raw");
  TempDir compressed_dir("topk_compressed");
  testing_util::WriteQuantizedTwins(*store_, raw_dir.path(),
                                    compressed_dir.path());
  auto raw = MaskStore::Open(raw_dir.path()).ValueOrDie();
  auto compressed = MaskStore::Open(compressed_dir.path()).ValueOrDie();
  IndexManager index(raw->num_masks(), TestConfig());
  MS_ASSERT_OK(index.BuildAll(*raw));
  const std::unique_ptr<ChiCache> shared = testing_util::CopyToChiCache(index);
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
  enum Kind { kUncached, kCold, kWarm, kCompressed, kNumKinds };
  ChiSource* const sources[] = {&index, shared.get()};

  ThreadPool pool(4);
  ThreadPool io_pool(3);
  struct Pools {
    ThreadPool* pool;
    ThreadPool* io_pool;
  };
  const Pools pool_sets[] = {
      {nullptr, nullptr}, {&pool, nullptr}, {&pool, &io_pool}, {&pool, &pool}};
  FullScanBaseline reference(raw.get());
  Rng rng(31337);
  for (int i = 0; i < 25; ++i) {
    TopKQuery q = GenerateTopKQuery(&rng, *raw);
    if (i / kQueriesPerSlice != GetParam()) continue;
    for (const bool descending : {true, false}) {
      q.descending = descending;
      auto want = reference.TopK(q);
      ASSERT_TRUE(want.ok());
      std::optional<ExecStats> serial;
      for (const Pools& p : pool_sets) {
        for (size_t batch : {size_t{1}, size_t{3}, size_t{0}}) {
          std::optional<ExecStats> first;
          // The shared ChiCache runs on the first query only: the suite is
          // near its time limit under the thread sanitizer.
          const int num_sources = i == 0 ? 2 : 1;
          for (int run = 0; run < num_sources * kNumKinds; ++run) {
            const int kind = run / num_sources;
            ChiSource* const chis = sources[run % num_sources];
            SCOPED_TRACE("query " + std::to_string(i) + " desc " +
                         std::to_string(descending) + " store " +
                         std::to_string(kind) + " pools " +
                         std::to_string(p.pool != nullptr) +
                         std::to_string(p.io_pool != nullptr) + " batch " +
                         std::to_string(batch) + " shared cache " +
                         std::to_string(chis == shared.get()));
            std::unique_ptr<MaskStore> cold =
                kind == kCold ? open_cached() : nullptr;
            testing_util::ForwardingStore store(kind == kUncached ? *raw
                                                : kind == kCold   ? *cold
                                                : kind == kWarm   ? *warm
                                                                  : *compressed);
            EngineOptions opts;
            opts.pool = p.pool;
            opts.io_pool = p.io_pool;
            opts.verify_batch = batch;
            auto got = ExecuteTopK(store, chis, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            ASSERT_EQ(got->items.size(), want->items.size());
            for (size_t j = 0; j < got->items.size(); ++j) {
              ASSERT_EQ(got->items[j].mask_id, want->items[j].mask_id)
                  << "rank " << j;
              ASSERT_EQ(got->items[j].value, want->items[j].value)
                  << "rank " << j;
            }
            const ExecStats& s = got->stats;
            EXPECT_EQ(s.pruned + s.accepted_by_bounds + s.candidates,
                      s.masks_targeted);
            EXPECT_EQ(s.masks_loaded, s.candidates);
            if (!serial) serial = s;  // the first schedule is the serial one
            EXPECT_GE(s.masks_loaded, serial->masks_loaded);
            if (p.io_pool == nullptr && batch != 3) {  // 0 means 1 here
              EXPECT_EQ(s.masks_loaded, serial->masks_loaded);
            }
            if (!first) first = s;
            EXPECT_EQ(s.masks_loaded, first->masks_loaded);
            EXPECT_EQ(s.pruned, first->pruned);
            EXPECT_EQ(s.accepted_by_bounds, first->accepted_by_bounds);
            EXPECT_EQ(s.candidates, first->candidates);
            testing_util::ExpectLoadedRows(&store, q.terms, kind == kUncached,
                                           s.bytes_read);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, TopKRandomizedTest, ::testing::Range(0, 5));

// A cancel that arrives while a batch loads ends the query with kCancelled
// at the next batch boundary: without io_pool after that one load, with it
// before a third batch is formed.
TEST_F(TopKExecutorTest, CancelMidQueryStopsAtBatchBoundary) {
  ThreadPool pool(2);
  for (ThreadPool* io_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    QueryControl control;
    testing_util::ForwardingStore store(*store_, [&] { control.Cancel(); });
    EngineOptions opts;
    opts.pool = &pool;
    opts.io_pool = io_pool;
    opts.control = &control;
    // No index: every mask is loaded, in many batches.
    auto r = ExecuteTopK(store, nullptr, ConstantRoiQuery(5, true), opts);
    EXPECT_TRUE(r.status().IsCancelled()) << r.status();
    const size_t calls = store.TakeCalls().size();
    if (io_pool == nullptr) {
      EXPECT_EQ(calls, 1u);
    } else {
      EXPECT_GE(calls, 1u);
      EXPECT_LE(calls, 2 * pool.num_threads());  // two batches in flight
    }
  }
}

// A traced top-k records its verify span topk_scan and the pipeline's
// io_wait once per batch, on the calling thread and never nested: with
// topk_bounds they sum to at most the call's wall time.
TEST_F(TopKExecutorTest, TracedQueryRecordsPipelineSpans) {
  ThreadPool pool(2);
  EngineOptions opts;
  opts.pool = &pool;
  opts.io_pool = &pool;
  opts.verify_batch = 3;
  const TopKQuery q = ConstantRoiQuery(5, /*descending=*/true);
  obs::Trace trace(1);
  Result<TopKResult> got = Status::Internal("not run");
  Stopwatch wall;
  {
    obs::TraceScope scope(&trace);
    got = ExecuteTopK(*store_, index_.get(), q, opts);
  }
  const double wall_seconds = wall.ElapsedSeconds();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_GT(got->stats.candidates, 0);
  const uint64_t batches = static_cast<uint64_t>(got->stats.candidates + 2) / 3;
  std::map<std::string, obs::Trace::Span> spans;
  for (const obs::Trace::Span& s : trace.spans()) spans[s.name] = s;
  EXPECT_EQ(spans["topk_scan"].count, batches);
  EXPECT_EQ(spans["io_wait"].count, batches);
  EXPECT_EQ(spans["topk_bounds"].count, 1u);
  EXPECT_LE(spans["topk_scan"].total_seconds + spans["io_wait"].total_seconds +
                spans["topk_bounds"].total_seconds,
            wall_seconds);
}

// A traced top-k on a raw uncached store attributes its windowed loads: the
// storage read span is recorded and its byte count is the window bytes.
TEST_F(TopKExecutorTest, TracedWindowedLoadsAreAttributed) {
  const TopKQuery q = ConstantRoiQuery(5, /*descending=*/true);
  testing_util::ForwardingStore store(*store_);
  obs::Trace trace(1);
  Result<TopKResult> got = Status::Internal("not run");
  {
    obs::TraceScope scope(&trace);
    got = ExecuteTopK(store, index_.get(), q);
  }
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_GT(got->stats.masks_loaded, 0);
  // ROI rows 10..40 of 48: a window, not the whole mask.
  EXPECT_EQ(got->stats.bytes_read,
            got->stats.masks_loaded * 30 * 48 * int64_t{sizeof(float)});
  testing_util::ExpectLoadedRows(&store, q.terms, /*windowed=*/true,
                                 got->stats.bytes_read);
  uint64_t span_count = 0;
  for (const obs::Trace::Span& s : trace.spans()) {
    if (s.name == "shard_read") span_count = s.count;
  }
  EXPECT_EQ(span_count, static_cast<uint64_t>(got->stats.masks_loaded));
  uint64_t traced_bytes = 0;
  for (const auto& [name, n] : trace.counts()) {
    if (name == "storage_bytes_read") traced_bytes = n;
  }
  EXPECT_EQ(traced_bytes, static_cast<uint64_t>(got->stats.bytes_read));
}

// A factor bounded by [0, 0] times a quotient whose divisor bound touches 0
// (unbounded) once gave NaN bounds, which misordered the bound sort and
// pruned masks wrongly although every exact value is finite (divisor
// CP - 0.5). The product's bounds are unbounded, not [0, 0]: with divisor
// CP, a mask whose divisor is exactly 0 scores 0 × (x / 0) = NaN, and
// [0, 0] would accept it by bounds at value 0.
TEST(TopKExecutorNaNBoundsTest, ZeroTimesUnboundedQuotientMatchesReference) {
  TempDir dir("topk_nan_bounds");
  auto store = MakeStore(dir.path(), 40, 2, 48, 48, /*seed=*/21);
  IndexManager index(store->num_masks(), TestConfig());
  MS_ASSERT_OK(index.BuildAll(*store));
  FullScanBaseline reference(store.get());
  auto term = [](RoiSource source, double lv) {
    CpTerm t;
    t.roi_source = source;
    t.range = ValueRange(lv, 1.0);
    return t;
  };
  int queries = 0;
  for (const double offset : {0.5, 0.0}) {
    for (const double obj_lv : {0.6, 0.75, 0.9}) {
      for (const double den_lv : {0.8, 0.9}) {
        for (const size_t k : {size_t{1}, size_t{3}, size_t{8}}) {
          for (const bool descending : {false, true}) {
            SCOPED_TRACE("offset " + std::to_string(offset) + " obj " +
                         std::to_string(obj_lv) + " den " +
                         std::to_string(den_lv) + " k " + std::to_string(k) +
                         " desc " + std::to_string(descending));
            TopKQuery q;
            q.terms = {term(RoiSource::kObjectBox, obj_lv),
                       term(RoiSource::kFullMask, 0.5),
                       term(RoiSource::kFullMask, den_lv)};
            q.order_expr = CpExpr::Term(0) *
                           (CpExpr::Term(1) /
                            (CpExpr::Term(2) - CpExpr::Constant(offset)));
            q.k = k;
            q.descending = descending;
            auto want = reference.TopK(q);
            ASSERT_TRUE(want.ok());
            auto got = ExecuteTopK(*store, &index, q);
            ASSERT_TRUE(got.ok()) << got.status();
            ExpectSameItems(*got, *want);
            ++queries;
          }
        }
      }
    }
  }
  EXPECT_EQ(queries, 72);
}

TEST_F(TopKExecutorTest, InvalidQueriesRejected) {
  TopKQuery no_expr;
  no_expr.k = 5;
  EXPECT_TRUE(
      ExecuteTopK(*store_, index_.get(), no_expr).status().IsInvalidArgument());

  TopKQuery zero_k = ConstantRoiQuery(0, true);
  EXPECT_TRUE(
      ExecuteTopK(*store_, index_.get(), zero_k).status().IsInvalidArgument());

  TopKQuery bad_term = ConstantRoiQuery(5, true);
  bad_term.order_expr = CpExpr::Term(9);
  EXPECT_TRUE(ExecuteTopK(*store_, index_.get(), bad_term)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace masksearch
