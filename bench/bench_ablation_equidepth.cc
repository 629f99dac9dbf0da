// Ablation: equi-width vs equi-depth value buckets (§3.1 mentions both; the
// paper's prototype implements equi-width). Same bin budget, same spatial
// grid — only the bucket boundaries differ. Saliency pixel values are
// heavily skewed toward the low end, so quantile edges spend resolution
// where the mass is and give tighter bounds for low/mid value ranges, while
// equi-width edges are finer near 1.0 where high-range queries live.

#include "bench_common.h"

namespace masksearch {
namespace bench {
namespace {

void Run(const BenchFlags& flags) {
  BenchData data = OpenDataset(BenchDataset::kWilds, flags);
  const int64_t n = data.etl_store->num_masks();
  const ChiConfig width_cfg = PaperChiConfig(data.spec);

  ChiConfig depth_cfg = width_cfg;
  depth_cfg.custom_edges =
      ComputeEquiDepthEdges(*data.etl_store, width_cfg.num_bins).ValueOrDie();

  std::printf("\nequi-depth edges (from %d-bin quantiles): ", width_cfg.num_bins);
  for (double e : depth_cfg.custom_edges) std::printf("%.3f ", e);
  std::printf("\n");

  IndexManager width_idx(n, width_cfg);
  width_idx.BuildAll(*data.etl_store).CheckOK();
  IndexManager depth_idx(n, depth_cfg);
  depth_idx.BuildAll(*data.etl_store).CheckOK();

  // Mean FML of randomized Filter queries, split by where the value range
  // lives (the generators draw from the §4.3 grid).
  struct Bucket {
    const char* label;
    double max_lv;  // queries whose lv falls below this
    double fml_width = 0, fml_depth = 0;
    int count = 0;
  };
  Bucket buckets[] = {
      {"low ranges (lv < 0.4)", 0.4},
      {"high ranges (lv >= 0.4)", 10.0},
  };

  Rng rng(1212);
  for (int i = 0; i < flags.queries * 2; ++i) {
    const FilterQuery q = GenerateFilterQuery(&rng, *data.store);
    auto rw = ExecuteFilter(*data.store, &width_idx, q);
    rw.status().CheckOK();
    auto rd = ExecuteFilter(*data.store, &depth_idx, q);
    rd.status().CheckOK();
    const double lv = q.terms[0].range.lv;
    Bucket& b = buckets[lv < 0.4 ? 0 : 1];
    b.fml_width += rw->stats.FML();
    b.fml_depth += rd->stats.FML();
    ++b.count;
  }

  std::printf("\n%-26s %10s %14s %14s\n", "query class", "queries",
              "FML equi-width", "FML equi-depth");
  for (const Bucket& b : buckets) {
    if (b.count == 0) continue;
    std::printf("%-26s %10d %14.4f %14.4f\n", b.label, b.count,
                b.fml_width / b.count, b.fml_depth / b.count);
  }
  std::printf("index sizes identical: %.2f MiB (same bin budget)\n",
              width_idx.MemoryBytes() / 1048576.0);
  std::printf("paper_expectation: §3.1 leaves the choice open and the "
              "prototype uses equi-width. This ablation explains why: "
              "quantile edges chase pixel mass (skewed low), so the upper "
              "half of the value domain collapses into one bucket and the "
              "uniformly-drawn §4.3 query ranges lose resolution — "
              "equi-depth only pays off when query ranges align with the "
              "mass. Results remain exact under both schemes.\n");
}

}  // namespace
}  // namespace bench
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintHeader(flags, "bench_ablation_equidepth",
              "§3.1 bucket-scheme ablation (equi-width vs equi-depth)");
  Run(flags);
  return 0;
}
