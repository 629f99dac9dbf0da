// Figure 9: relationship between end-to-end query time and the fraction of
// masks loaded (FML), over randomized Filter queries (§4.4).
//
// Paper expectation: near-perfect linear correlation (Pearson's r = 0.99 on
// WILDS, 0.96 on ImageNet) — query time is dominated by loading masks from
// disk and scanning them, so FML predicts latency.

#include "bench_common.h"

namespace masksearch {
namespace bench {
namespace {

void RunDataset(BenchDataset d, const BenchFlags& flags) {
  BenchData data = OpenDataset(d, flags);
  auto index = BuildOrLoadIndex(data);

  std::vector<double> seconds;
  std::vector<double> fml;
  Rng rng(404);
  for (int i = 0; i < flags.queries; ++i) {
    const FilterQuery q = GenerateFilterQuery(&rng, *data.store);
    Stopwatch t;
    auto res = ExecuteFilter(*data.store, index.get(), q);
    res.status().CheckOK();
    seconds.push_back(t.ElapsedSeconds());
    fml.push_back(res->stats.FML());
  }

  const double r = PearsonR(fml, seconds);
  std::printf("\n--- dataset %s: %d Filter queries ---\n", DatasetName(d),
              flags.queries);
  std::printf("Pearson's r (query time vs FML): %.3f\n", r);

  // FML-bucketed mean latency (the scatter's regression line, numerically).
  std::printf("%-14s %10s %8s\n", "FML_bucket", "mean_s", "queries");
  const double edges[] = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.01};
  for (int b = 0; b + 1 < 7; ++b) {
    double sum = 0;
    int n = 0;
    for (size_t i = 0; i < fml.size(); ++i) {
      if (fml[i] >= edges[b] && fml[i] < edges[b + 1]) {
        sum += seconds[i];
        ++n;
      }
    }
    if (n > 0) {
      std::printf("[%.2f, %.2f)   %10.4f %8d\n", edges[b], edges[b + 1],
                  sum / n, n);
    }
  }
  std::printf("paper_expectation: r close to 1 (paper: 0.99 WILDS / 0.96 "
              "ImageNet); mean latency increases monotonically with FML\n");
}

}  // namespace
}  // namespace bench
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintHeader(flags, "bench_fig9_fml_correlation",
              "Figure 9 (query time vs fraction of masks loaded)");
  RunDataset(BenchDataset::kWilds, flags);
  RunDataset(BenchDataset::kImageNet, flags);
  return 0;
}
