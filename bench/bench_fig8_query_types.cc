// Figure 8: distribution of MaskSearch query execution times for 500 (here
// --queries, default 60) randomized queries of each type (Filter / Top-K /
// Aggregation, §4.3) on both datasets.
//
// Paper expectation: all query types execute in seconds (vs minutes for the
// baselines); the Filter type has the heaviest upper quartile because a
// fixed count threshold prunes less effectively than a running top-k
// threshold; variation within a type is driven by FML.

#include "bench_common.h"

namespace masksearch {
namespace bench {
namespace {

void RunDataset(BenchDataset d, const BenchFlags& flags) {
  BenchData data = OpenDataset(d, flags);
  auto index = BuildOrLoadIndex(data);

  std::printf("\n--- dataset %s (%d randomized queries per type) ---\n",
              DatasetName(d), flags.queries);
  std::printf("%-12s %10s %10s %10s %10s %10s %9s\n", "type", "min_s", "p25_s",
              "median_s", "p75_s", "max_s", "outliers");

  struct TypeResult {
    const char* name;
    std::vector<double> seconds;
    std::vector<int64_t> pruned;
  };
  std::vector<TypeResult> results;

  {
    TypeResult r{"Filter", {}, {}};
    Rng rng(101);
    for (int i = 0; i < flags.queries; ++i) {
      const FilterQuery q = GenerateFilterQuery(&rng, *data.store);
      Stopwatch t;
      auto res = ExecuteFilter(*data.store, index.get(), q);
      res.status().CheckOK();
      r.seconds.push_back(t.ElapsedSeconds());
      r.pruned.push_back(res->stats.pruned + res->stats.accepted_by_bounds);
    }
    results.push_back(std::move(r));
  }
  {
    TypeResult r{"Top-K", {}, {}};
    Rng rng(202);
    for (int i = 0; i < flags.queries; ++i) {
      const TopKQuery q = GenerateTopKQuery(&rng, *data.store);
      Stopwatch t;
      auto res = ExecuteTopK(*data.store, index.get(), q);
      res.status().CheckOK();
      r.seconds.push_back(t.ElapsedSeconds());
      r.pruned.push_back(res->stats.pruned + res->stats.accepted_by_bounds);
    }
    results.push_back(std::move(r));
  }
  {
    TypeResult r{"Aggregation", {}, {}};
    Rng rng(303);
    for (int i = 0; i < flags.queries; ++i) {
      const AggregationQuery q = GenerateAggQuery(&rng, *data.store);
      Stopwatch t;
      auto res = ExecuteAggregation(*data.store, index.get(), q);
      res.status().CheckOK();
      r.seconds.push_back(t.ElapsedSeconds());
      // Group-level prunes; scale to masks for comparability.
      r.pruned.push_back(
          (res->stats.pruned + res->stats.accepted_by_bounds) * 2);
    }
    results.push_back(std::move(r));
  }

  for (const auto& r : results) {
    const DistributionSummary s = Summarize(r.seconds);
    std::printf("%-12s %10.4f %10.4f %10.4f %10.4f %10.4f %9zu\n", r.name,
                s.min, s.p25, s.median, s.p75, s.max, s.num_outliers);
    RecordMetric(std::string(DatasetName(d)) + "/" + r.name + "/median_s",
                 s.median);
    RecordMetric(std::string(DatasetName(d)) + "/" + r.name + "/p75_s", s.p75);
  }
  // §4.3 reports prune counts at the 75th-percentile query time.
  for (const auto& r : results) {
    std::vector<double> pruned_d(r.pruned.begin(), r.pruned.end());
    std::sort(pruned_d.begin(), pruned_d.end());
    std::printf("masks pruned by filter stage (%s): median %.0f of %lld\n",
                r.name, Percentile(pruned_d, 0.5),
                static_cast<long long>(data.store->num_masks()));
  }
  std::printf("paper_expectation: seconds-scale medians for all types; "
              "Filter has the widest upper quartile; Top-K/Aggregation prune "
              "more via the running top-k threshold\n");
}

}  // namespace
}  // namespace bench
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintHeader(flags, "bench_fig8_query_types",
              "Figure 8 (query-time distribution per query type, box plots)");
  RunDataset(BenchDataset::kWilds, flags);
  RunDataset(BenchDataset::kImageNet, flags);
  return 0;
}
