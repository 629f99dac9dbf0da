// Tests for scalar aggregation execution (§3.4, Q4).

#include <gtest/gtest.h>

#include <cmath>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/exec/agg_executor.h"
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

class AggExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("agg");
    store_ = MakeStore(dir_->path(), 20, 2, 48, 48, /*seed=*/33);
    index_ = std::make_unique<IndexManager>(store_->num_masks(), TestConfig());
    MS_ASSERT_OK(index_->BuildAll(*store_));
    store_->ResetCounters();
  }

  AggregationQuery MeanQuery(size_t k, bool descending) const {
    AggregationQuery q;
    q.term.roi_source = RoiSource::kObjectBox;
    q.term.range = ValueRange(0.8, 1.0);
    q.op = ScalarAggOp::kAvg;
    q.group_key = GroupKey::kImageId;
    q.k = k;
    q.descending = descending;
    return q;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<IndexManager> index_;
};

void ExpectSameGroups(const AggResult& got, const AggResult& want) {
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t i = 0; i < got.groups.size(); ++i) {
    EXPECT_EQ(got.groups[i].group, want.groups[i].group) << "rank " << i;
    EXPECT_DOUBLE_EQ(got.groups[i].value, want.groups[i].value) << "rank " << i;
  }
}

TEST_F(AggExecutorTest, TopKMeanMatchesReference) {
  const AggregationQuery q = MeanQuery(5, true);
  auto got = ExecuteAggregation(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok()) << got.status();
  FullScanBaseline reference(store_.get());
  auto want = reference.Aggregate(q);
  ASSERT_TRUE(want.ok());
  ExpectSameGroups(*got, *want);
}

TEST_F(AggExecutorTest, AllAggOpsMatchReference) {
  FullScanBaseline reference(store_.get());
  for (ScalarAggOp op : {ScalarAggOp::kSum, ScalarAggOp::kAvg,
                         ScalarAggOp::kMin, ScalarAggOp::kMax}) {
    AggregationQuery q = MeanQuery(6, true);
    q.op = op;
    auto got = ExecuteAggregation(*store_, index_.get(), q);
    ASSERT_TRUE(got.ok());
    auto want = reference.Aggregate(q);
    ASSERT_TRUE(want.ok());
    ExpectSameGroups(*got, *want);
  }
}

TEST_F(AggExecutorTest, AscendingOrder) {
  const AggregationQuery q = MeanQuery(5, false);
  auto got = ExecuteAggregation(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.Aggregate(q);
  ASSERT_TRUE(want.ok());
  ExpectSameGroups(*got, *want);
}

TEST_F(AggExecutorTest, HavingFilterSetMatchesReference) {
  AggregationQuery q = MeanQuery(0, true);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 100.0;
  auto got = ExecuteAggregation(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  FullScanBaseline reference(store_.get());
  auto want = reference.Aggregate(q);
  ASSERT_TRUE(want.ok());
  // Group id sets must match; bound-accepted groups may carry NaN values.
  ASSERT_EQ(got->groups.size(), want->groups.size());
  std::vector<int64_t> got_ids, want_ids;
  for (const auto& g : got->groups) got_ids.push_back(g.group);
  for (const auto& g : want->groups) want_ids.push_back(g.group);
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  EXPECT_EQ(got_ids, want_ids);
}

TEST_F(AggExecutorTest, GroupPruningLoadsFewerMasksThanTargeted) {
  const AggregationQuery q = MeanQuery(3, true);
  auto r = ExecuteAggregation(*store_, index_.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.masks_targeted, store_->num_masks());
  EXPECT_LT(r->stats.masks_loaded, r->stats.masks_targeted);
}

TEST_F(AggExecutorTest, GroupByModelId) {
  AggregationQuery q = MeanQuery(2, true);
  q.group_key = GroupKey::kModelId;
  q.op = ScalarAggOp::kSum;
  auto got = ExecuteAggregation(*store_, index_.get(), q);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->groups.size(), 2u);  // models 0 and 1
  FullScanBaseline reference(store_.get());
  auto want = reference.Aggregate(q);
  ASSERT_TRUE(want.ok());
  ExpectSameGroups(*got, *want);
}

TEST_F(AggExecutorTest, IncrementalIndexingStillExact) {
  IndexManager empty(store_->num_masks(), TestConfig());
  const AggregationQuery q = MeanQuery(5, true);
  auto first = ExecuteAggregation(*store_, &empty, q);
  ASSERT_TRUE(first.ok());
  auto second = ExecuteAggregation(*store_, &empty, q);
  ASSERT_TRUE(second.ok());
  ExpectSameGroups(*first, *second);
  EXPECT_LE(second->stats.masks_loaded, first->stats.masks_loaded);
}

TEST_F(AggExecutorTest, RandomizedQueriesMatchReference) {
  FullScanBaseline reference(store_.get());
  Rng rng(4242);
  for (int i = 0; i < 20; ++i) {
    const AggregationQuery q = GenerateAggQuery(&rng, *store_);
    auto got = ExecuteAggregation(*store_, index_.get(), q);
    ASSERT_TRUE(got.ok());
    auto want = reference.Aggregate(q);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->groups.size(), want->groups.size()) << "query " << i;
    for (size_t j = 0; j < got->groups.size(); ++j) {
      ASSERT_EQ(got->groups[j].group, want->groups[j].group)
          << "query " << i << " rank " << j;
      ASSERT_NEAR(got->groups[j].value, want->groups[j].value, 1e-9);
    }
  }
}

// Verification runs through the shared pipeline, so a traced query's time
// shows up under the pipeline's spans: io_wait for loads, agg_verify for
// the exact aggregates.
TEST_F(AggExecutorTest, TracedQueryRecordsPipelineSpans) {
  ThreadPool pool(2);
  EngineOptions opts;
  opts.pool = &pool;
  opts.io_pool = &pool;
  AggregationQuery q = MeanQuery(0, true);
  q.k.reset();
  q.having_op = CompareOp::kGt;
  q.having_threshold = 100.0;

  obs::Trace trace(1);
  {
    obs::TraceScope scope(&trace);
    // No index: every group is verified.
    auto r = ExecuteAggregation(*store_, nullptr, q, opts);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->stats.masks_loaded, store_->num_masks());
  }
  uint64_t verify_spans = 0;
  uint64_t wait_spans = 0;
  for (const obs::Trace::Span& span : trace.spans()) {
    if (span.name == "agg_verify") verify_spans = span.count;
    if (span.name == "io_wait") wait_spans = span.count;
  }
  EXPECT_GT(verify_spans, 0u);
  EXPECT_EQ(wait_spans, verify_spans);  // one of each per batch
}

TEST_F(AggExecutorTest, InvalidQueriesRejected) {
  AggregationQuery neither = MeanQuery(0, true);
  neither.k.reset();
  EXPECT_TRUE(ExecuteAggregation(*store_, index_.get(), neither)
                  .status()
                  .IsInvalidArgument());

  AggregationQuery zero_k = MeanQuery(0, true);
  EXPECT_TRUE(ExecuteAggregation(*store_, index_.get(), zero_k)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace masksearch
