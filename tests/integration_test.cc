// End-to-end integration: build a synthetic dataset, run the paper's five
// benchmark queries (Table 1) through the SQL front end on a MaskSearch
// session, and cross-check every result against all three baselines.

#include <gtest/gtest.h>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/baselines/row_store.h"
#include "masksearch/baselines/tiled_array.h"
#include "masksearch/exec/session.h"
#include "masksearch/sql/binder.h"
#include "masksearch/workload/datasets.h"
#include "masksearch/workload/workload_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::TempDir;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("integration");
    DatasetSpec spec;
    spec.name = "integration";
    spec.num_images = 40;
    spec.num_models = 2;
    spec.saliency.width = 56;
    spec.saliency.height = 56;
    spec.seed = 1234;
    MS_ASSERT_OK(BuildDataset(dir_->path(), spec));
    store_ = MaskStore::Open(dir_->path()).ValueOrDie();

    SessionOptions opts;
    opts.chi.cell_width = 8;
    opts.chi.cell_height = 8;
    opts.chi.num_bins = 16;
    session_ = Session::Open(store_.get(), opts).ValueOrDie();
    full_ = std::make_unique<FullScanBaseline>(store_.get());
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<FullScanBaseline> full_;
};

TEST_F(IntegrationTest, Q1FilterConstantRoiViaSql) {
  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, ((9, 9), (40, 40)), (0.6, 1.0)) > 300 AND model_id = 1;");
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound->kind, sql::BoundQuery::Kind::kFilter);
  auto got = session_->Filter(bound->filter);
  ASSERT_TRUE(got.ok());
  auto want = full_->Filter(bound->filter);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->mask_ids, want->mask_ids);
  EXPECT_LT(got->stats.masks_loaded, want->stats.masks_loaded);
}

TEST_F(IntegrationTest, Q2FilterObjectRoiViaSql) {
  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, object, (0.8, 1.0)) > 150 AND model_id = 1;");
  ASSERT_TRUE(bound.ok());
  auto got = session_->Filter(bound->filter);
  auto want = full_->Filter(bound->filter);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->mask_ids, want->mask_ids);
}

TEST_F(IntegrationTest, Q3TopKViaSql) {
  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM MasksDatabaseView WHERE model_id = 1 "
      "ORDER BY CP(mask, ((9,9),(40,40)), (0.8, 1.0)) DESC LIMIT 25;");
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->kind, sql::BoundQuery::Kind::kTopK);
  auto got = session_->TopK(bound->topk);
  auto want = full_->TopK(bound->topk);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->items.size(), want->items.size());
  for (size_t i = 0; i < got->items.size(); ++i) {
    EXPECT_EQ(got->items[i].mask_id, want->items[i].mask_id);
  }
}

TEST_F(IntegrationTest, Q4AggregationViaSql) {
  auto bound = sql::ParseAndBind(
      "SELECT image_id, MEAN(CP(mask, object, (0.8, 1.0))) AS m "
      "FROM MasksDatabaseView GROUP BY image_id ORDER BY m DESC LIMIT 25;");
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->kind, sql::BoundQuery::Kind::kAggregation);
  auto got = session_->Aggregate(bound->agg);
  auto want = full_->Aggregate(bound->agg);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(IntegrationTest, Q5MaskAggViaSql) {
  auto bound = sql::ParseAndBind(
      "SELECT image_id, CP(INTERSECT(mask > 0.8), object, (0.8, 1.0)) AS s "
      "FROM MasksDatabaseView GROUP BY image_id ORDER BY s DESC LIMIT 25;");
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->kind, sql::BoundQuery::Kind::kMaskAgg);
  auto got = session_->MaskAggregate(bound->mask_agg);
  auto want = full_->MaskAggregate(bound->mask_agg);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].group, want->groups[i].group);
    EXPECT_DOUBLE_EQ(got->groups[i].value, want->groups[i].value);
  }
}

TEST_F(IntegrationTest, AllBaselinesAgreeOnQ1) {
  MS_ASSERT_OK(RowStoreBaseline::CreateFiles(dir_->file("rs"), *store_));
  auto row =
      RowStoreBaseline::Open(dir_->file("rs"), store_.get(), nullptr)
          .ValueOrDie();
  TiledArrayBaseline::Options topts;
  MS_ASSERT_OK(TiledArrayBaseline::CreateFiles(dir_->file("ta"), *store_, topts));
  auto tiled =
      TiledArrayBaseline::Open(dir_->file("ta"), store_.get(), nullptr)
          .ValueOrDie();

  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, ((9, 9), (40, 40)), (0.6, 1.0)) > 300;");
  ASSERT_TRUE(bound.ok());
  auto ms = session_->Filter(bound->filter);
  auto np = full_->Filter(bound->filter);
  auto pg = row->Filter(bound->filter);
  auto tdb = tiled->Filter(bound->filter);
  ASSERT_TRUE(ms.ok());
  ASSERT_TRUE(np.ok());
  ASSERT_TRUE(pg.ok());
  ASSERT_TRUE(tdb.ok());
  EXPECT_EQ(ms->mask_ids, np->mask_ids);
  EXPECT_EQ(ms->mask_ids, pg->mask_ids);
  EXPECT_EQ(ms->mask_ids, tdb->mask_ids);
}

TEST_F(IntegrationTest, MultiQueryWorkloadMsEqualsMsii) {
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  wopts.p_seen = 0.5;
  wopts.seed = 99;
  const Workload workload = GenerateWorkload(*store_, wopts);

  SessionOptions ii;
  ii.chi = session_->options().chi;
  ii.incremental = true;
  auto msii = Session::Open(store_.get(), ii).ValueOrDie();

  for (size_t i = 0; i < workload.queries.size(); ++i) {
    auto a = session_->Filter(workload.queries[i]);
    auto b = msii->Filter(workload.queries[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->mask_ids, b->mask_ids) << "workload query " << i;
  }
  // MS-II never indexed more masks than the workload touched.
  EXPECT_LE(static_cast<int64_t>(msii->index()->num_built()),
            workload.distinct_targeted);
}

TEST_F(IntegrationTest, IndexIsSmallRelativeToData) {
  // §4.1 sizes the index at ~5% of the dataset by picking cell size
  // proportional to the mask (224/28 = 8 cells per side). With the paper's
  // proportions (8×8 grid, 8 bins) the index on this dataset stays below
  // 10% of the raw bytes.
  ChiConfig paper_proportions;
  paper_proportions.cell_width = 14;   // 56 / 14 = 4 cells per side
  paper_proportions.cell_height = 14;
  paper_proportions.num_bins = 8;
  IndexManager sized(store_->num_masks(), paper_proportions);
  MS_ASSERT_OK(sized.BuildAll(*store_));
  const size_t index_bytes = sized.MemoryBytes();
  const uint64_t raw_bytes = store_->TotalDataBytes();
  EXPECT_LT(index_bytes, raw_bytes / 10);
  EXPECT_GT(index_bytes, 0u);
}

}  // namespace
}  // namespace masksearch
