// Tests for top-k execution (§3.5): exactness against brute force, pruning
// effectiveness, ordering semantics, and MS-II behaviour.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/cache/buffer_pool.h"
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
    EXPECT_DOUBLE_EQ(got.items[i].value, want.items[i].value) << "rank " << i;
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
  // salient pixels overall.
  TopKQuery q;
  CpTerm obj;
  obj.roi_source = RoiSource::kObjectBox;
  obj.range = ValueRange(0.85, 1.0);
  CpTerm full;
  full.roi_source = RoiSource::kFullMask;
  full.range = ValueRange(0.85, 1.0);
  q.terms = {obj, full};
  // Guard the denominator: ratio = obj / (full + 1).
  q.order_expr =
      CpExpr::Term(0) / (CpExpr::Term(1) + CpExpr::Constant(1.0));
  q.k = 25;
  q.descending = false;

  auto got = ExecuteTopK(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok()) << got.status();
  FullScanBaseline reference(store_.get());
  auto want = reference.TopK(q);
  ASSERT_TRUE(want.ok());
  ExpectSameItems(*got, *want);
}

TEST_F(TopKExecutorTest, IncrementalIndexingStillExact) {
  IndexManager empty(store_->num_masks(), TestConfig());
  EngineOptions opts;
  opts.build_missing = true;
  const TopKQuery q = ConstantRoiQuery(7, true);
  auto first = ExecuteTopK(*store_, &empty, q, opts);
  ASSERT_TRUE(first.ok());
  auto second = ExecuteTopK(*store_, &empty, q, opts);
  ASSERT_TRUE(second.ok());
  ExpectSameItems(*first, *second);
  EXPECT_GT(first->stats.chis_built, 0);
  EXPECT_LT(second->stats.masks_loaded, first->stats.masks_loaded);
}

// Random queries, DESC and ASC, on four stores holding the same masks —
// raw uncached, raw cached cold and warm, compressed — match the full-scan
// reference with equal stats on every store. The raw uncached store reads
// only the rows of each loaded mask's ROIs; the others read whole masks.
TEST_F(TopKExecutorTest, RandomizedQueriesMatchReference) {
  TempDir raw_dir("topk_raw");
  TempDir compressed_dir("topk_compressed");
  testing_util::WriteQuantizedTwins(*store_, raw_dir.path(),
                                    compressed_dir.path());
  auto raw = MaskStore::Open(raw_dir.path()).ValueOrDie();
  auto compressed = MaskStore::Open(compressed_dir.path()).ValueOrDie();
  IndexManager index(raw->num_masks(), TestConfig());
  MS_ASSERT_OK(index.BuildAll(*raw));
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

  FullScanBaseline reference(raw.get());
  Rng rng(31337);
  for (int i = 0; i < 25; ++i) {
    TopKQuery q = GenerateTopKQuery(&rng, *raw);
    for (const bool descending : {true, false}) {
      q.descending = descending;
      auto want = reference.TopK(q);
      ASSERT_TRUE(want.ok());
      std::optional<ExecStats> first;
      for (int kind = 0; kind < kNumKinds; ++kind) {
        SCOPED_TRACE("query " + std::to_string(i) + " desc " +
                     std::to_string(descending) + " store " +
                     std::to_string(kind));
        std::unique_ptr<MaskStore> cold =
            kind == kCold ? open_cached() : nullptr;
        testing_util::ForwardingStore store(kind == kUncached ? *raw
                                            : kind == kCold   ? *cold
                                            : kind == kWarm   ? *warm
                                                              : *compressed);
        auto got = ExecuteTopK(store, &index, q);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->items.size(), want->items.size());
        for (size_t j = 0; j < got->items.size(); ++j) {
          ASSERT_EQ(got->items[j].mask_id, want->items[j].mask_id)
              << "rank " << j;
          ASSERT_EQ(got->items[j].value, want->items[j].value) << "rank " << j;
        }
        const ExecStats& s = got->stats;
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
