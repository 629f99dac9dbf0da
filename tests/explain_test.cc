// Tests for the EXPLAIN module.

#include <gtest/gtest.h>

#include "masksearch/exec/explain.h"
#include "masksearch/sql/binder.h"

namespace masksearch {
namespace {

TEST(ExplainTest, SelectionVariants) {
  Selection all;
  EXPECT_NE(ExplainSelection(all).find("all masks"), std::string::npos);

  Selection narrow;
  narrow.model_ids = {1, 2};
  narrow.mask_types = {MaskType::kSaliencyMap};
  narrow.predicted_labels = {7};
  narrow.mask_ids = {1, 2, 3};
  const std::string s = ExplainSelection(narrow);
  EXPECT_NE(s.find("model_id IN {1,2}"), std::string::npos);
  EXPECT_NE(s.find("saliency_map"), std::string::npos);
  EXPECT_NE(s.find("predicted_label"), std::string::npos);
  EXPECT_NE(s.find("3 masks"), std::string::npos);
  EXPECT_NE(s.find("catalog only"), std::string::npos);
}

TEST(ExplainTest, FilterPlanMentionsStages) {
  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM masks WHERE CP(mask, object, (0.8, 1.0)) > 100;");
  ASSERT_TRUE(bound.ok());
  const std::string s = ExplainFilter(bound->filter);
  EXPECT_NE(s.find("filter stage"), std::string::npos);
  EXPECT_NE(s.find("verification stage"), std::string::npos);
  EXPECT_NE(s.find("CP#0"), std::string::npos);
}

TEST(ExplainTest, TopKPlanMentionsRunningThreshold) {
  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM masks ORDER BY CP(mask, -, (0.5, 1.0)) ASC "
      "LIMIT 7;");
  ASSERT_TRUE(bound.ok());
  const std::string s = ExplainTopK(bound->topk);
  EXPECT_NE(s.find("limit 7"), std::string::npos);
  EXPECT_NE(s.find("ASC"), std::string::npos);
  EXPECT_NE(s.find("Eq. 15"), std::string::npos);
}

TEST(ExplainTest, AggregationPlan) {
  auto bound = sql::ParseAndBind(
      "SELECT image_id, SUM(CP(mask, object, (0.5, 1.0))) AS s FROM masks "
      "GROUP BY image_id HAVING s > 10;");
  ASSERT_TRUE(bound.ok());
  const std::string s = ExplainAggregation(bound->agg);
  EXPECT_NE(s.find("SUM"), std::string::npos);
  EXPECT_NE(s.find("GROUP BY image_id"), std::string::npos);
  EXPECT_NE(s.find("HAVING"), std::string::npos);
}

TEST(ExplainTest, MaskAggPlan) {
  auto bound = sql::ParseAndBind(
      "SELECT image_id, CP(INTERSECT(mask > 0.8), object, (0.8, 1.0)) AS s "
      "FROM masks GROUP BY image_id ORDER BY s DESC LIMIT 5;");
  ASSERT_TRUE(bound.ok());
  const std::string s = ExplainMaskAgg(bound->mask_agg);
  EXPECT_NE(s.find("INTERSECT"), std::string::npos);
  EXPECT_NE(s.find("derived"), std::string::npos);
}

TEST(ExplainTest, StatsSummary) {
  ExecStats stats;
  stats.masks_targeted = 100;
  stats.pruned = 80;
  stats.accepted_by_bounds = 10;
  stats.candidates = 10;
  stats.masks_loaded = 10;
  stats.bytes_read = 3 * 1024 * 1024 + 512 * 1024;
  stats.seconds = 0.25;
  const std::string s = SummarizeStats(stats);
  EXPECT_NE(s.find("100 targeted"), std::string::npos);
  EXPECT_NE(s.find("10 loaded"), std::string::npos);
  EXPECT_NE(s.find("10.00%"), std::string::npos);
  EXPECT_NE(s.find("| 3.50 MiB read"), std::string::npos) << s;
}

}  // namespace
}  // namespace masksearch
