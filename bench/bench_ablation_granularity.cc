// Ablation: index granularity vs pruning power and query time (§4.4's
// size/time trade-off, beyond the two sizes shown in Figure 10).
//
// Sweeps cell resolution and bucket count on one dataset, reporting index
// size, mean FML over randomized Filter queries, and median query time.

#include "bench_common.h"

namespace masksearch {
namespace bench {
namespace {

void Run(const BenchFlags& flags) {
  BenchData data = OpenDataset(BenchDataset::kWilds, flags);
  const int64_t n = data.etl_store->num_masks();

  struct Config {
    int cells_per_side;
    int bins;
  };
  // cells = 1 is the "no spatial discretization" ablation: a plain per-mask
  // value histogram (the only index the multi-dimensional-index discussion
  // of §2.2 would admit for dense data) — it cannot adapt to ROIs at all.
  const Config configs[] = {{1, 16}, {2, 4},   {4, 8},  {8, 8},
                            {8, 16}, {16, 16}, {16, 32}};

  std::printf("\n--- dataset %s, %d Filter queries per config ---\n",
              DatasetName(BenchDataset::kWilds), flags.queries);
  std::printf("%8s %6s %12s %10s %12s %12s\n", "cells", "bins", "index_MiB",
              "mean_FML", "median_s", "p90_s");

  for (const Config& c : configs) {
    ChiConfig cfg;
    cfg.cell_width = std::max(1, data.spec.saliency.width / c.cells_per_side);
    cfg.cell_height =
        std::max(1, data.spec.saliency.height / c.cells_per_side);
    cfg.num_bins = c.bins;

    IndexManager index(n, cfg);
    index.BuildAll(*data.etl_store).CheckOK();

    Rng rng(909);  // identical query stream for every config
    std::vector<double> seconds;
    double fml_sum = 0;
    for (int i = 0; i < flags.queries; ++i) {
      const FilterQuery q = GenerateFilterQuery(&rng, *data.store);
      Stopwatch t;
      auto res = ExecuteFilter(*data.store, &index, q);
      res.status().CheckOK();
      seconds.push_back(t.ElapsedSeconds());
      fml_sum += res->stats.FML();
    }
    std::sort(seconds.begin(), seconds.end());
    std::printf("%8d %6d %12.2f %10.4f %12.4f %12.4f\n", c.cells_per_side,
                c.bins, index.MemoryBytes() / 1048576.0,
                fml_sum / flags.queries, Percentile(seconds, 0.5),
                Percentile(seconds, 0.9));
  }
  std::printf("paper_expectation: finer grids / more bins monotonically "
              "reduce FML and query time while the index grows; returns "
              "diminish once bounds are tight for most queries\n");
}

}  // namespace
}  // namespace bench
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintHeader(flags, "bench_ablation_granularity",
              "§4.4 granularity trade-off (index size vs FML vs time)");
  Run(flags);
  return 0;
}
