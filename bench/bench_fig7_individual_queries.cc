// Figure 7 + Table 2: end-to-end execution time of the Table 1 queries
// Q1–Q5 for MaskSearch vs the PostgreSQL / TileDB / NumPy stand-ins, on
// both dataset stand-ins, plus the number of masks loaded per system.
//
// Paper expectation (shapes, not absolute numbers):
//   * every baseline takes roughly the full-scan time on every query —
//     they all load every targeted mask at disk bandwidth;
//   * MaskSearch is one to two orders of magnitude faster, loading a small
//     fraction of the masks (Table 2);
//   * Q4 is the slowest baseline query (two masks per image);
//   * TileDB is slower than the other baselines on the mask-specific-ROI
//     queries Q2/Q4/Q5 (sequential per-mask reads under-utilize the disk).

#include "bench_common.h"
#include "bench_queries.h"
#include "masksearch/baselines/full_scan.h"
#include "masksearch/baselines/row_store.h"
#include "masksearch/baselines/tiled_array.h"

namespace masksearch {
namespace bench {
namespace {

struct Row {
  std::string system;
  double seconds[5];
  int64_t loaded[5];
};

/// Runs Q1–Q5 on one Baseline implementation.
Row RunBaseline(Baseline* baseline, const BenchData& data) {
  const int32_t w = data.spec.saliency.width;
  const int32_t h = data.spec.saliency.height;
  Row row;
  row.system = baseline->name();

  {
    Stopwatch t;
    auto r = baseline->Filter(MakeQ1(w, h));
    r.status().CheckOK();
    row.seconds[0] = t.ElapsedSeconds();
    row.loaded[0] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = baseline->Filter(MakeQ2(w, h));
    r.status().CheckOK();
    row.seconds[1] = t.ElapsedSeconds();
    row.loaded[1] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = baseline->TopK(MakeQ3(w, h));
    r.status().CheckOK();
    row.seconds[2] = t.ElapsedSeconds();
    row.loaded[2] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = baseline->Aggregate(MakeQ4());
    r.status().CheckOK();
    row.seconds[3] = t.ElapsedSeconds();
    row.loaded[3] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = baseline->MaskAggregate(MakeQ5());
    r.status().CheckOK();
    row.seconds[4] = t.ElapsedSeconds();
    row.loaded[4] = r->stats.masks_loaded;
  }
  return row;
}

Row RunMaskSearch(const BenchData& data, IndexManager* index) {
  const int32_t w = data.spec.saliency.width;
  const int32_t h = data.spec.saliency.height;
  Row row;
  row.system = "MaskSearch";

  {
    Stopwatch t;
    auto r = ExecuteFilter(*data.store, index, MakeQ1(w, h));
    r.status().CheckOK();
    row.seconds[0] = t.ElapsedSeconds();
    row.loaded[0] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = ExecuteFilter(*data.store, index, MakeQ2(w, h));
    r.status().CheckOK();
    row.seconds[1] = t.ElapsedSeconds();
    row.loaded[1] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = ExecuteTopK(*data.store, index, MakeQ3(w, h));
    r.status().CheckOK();
    row.seconds[2] = t.ElapsedSeconds();
    row.loaded[2] = r->stats.masks_loaded;
  }
  {
    Stopwatch t;
    auto r = ExecuteAggregation(*data.store, index, MakeQ4());
    r.status().CheckOK();
    row.seconds[3] = t.ElapsedSeconds();
    row.loaded[3] = r->stats.masks_loaded;
  }
  {
    DerivedIndexCache cache(index->config());
    Stopwatch t;
    auto r = ExecuteMaskAgg(*data.store, index, &cache, MakeQ5());
    r.status().CheckOK();
    row.seconds[4] = t.ElapsedSeconds();
    row.loaded[4] = r->stats.masks_loaded;
  }
  return row;
}

void RunDataset(BenchDataset d, const BenchFlags& flags) {
  BenchData data = OpenDataset(d, flags);
  std::printf("\n--- dataset %s: %lld images, %lld masks of %dx%d (%.1f MiB raw) ---\n",
              DatasetName(d), static_cast<long long>(data.spec.num_images),
              static_cast<long long>(data.etl_store->num_masks()),
              data.spec.saliency.width, data.spec.saliency.height,
              data.etl_store->TotalDataBytes() / 1048576.0);

  // ETL (unthrottled, cached): baseline physical layouts + MS index.
  auto index = BuildOrLoadIndex(data);
  std::printf("index: %.2f MiB in memory (%.2f%% of raw data)\n",
              index->MemoryBytes() / 1048576.0,
              100.0 * index->MemoryBytes() / data.etl_store->TotalDataBytes());

  const std::string rs_dir = data.dir + "/rowstore";
  if (!PathExists(rs_dir + "/tuples.idx")) {
    RowStoreBaseline::CreateFiles(rs_dir, *data.etl_store).CheckOK();
  }
  const std::string ta_dir = data.dir + "/tiled";
  if (!PathExists(ta_dir + "/array3d.hdr")) {
    TiledArrayBaseline::CreateFiles(ta_dir, *data.etl_store, {}).CheckOK();
  }

  FullScanBaseline numpy(data.store.get());
  auto pg = RowStoreBaseline::Open(rs_dir, data.store.get(), data.throttle)
                .ValueOrDie();
  auto tdb = TiledArrayBaseline::Open(ta_dir, data.store.get(), data.throttle)
                 .ValueOrDie();

  std::vector<Row> rows;
  rows.push_back(RunMaskSearch(data, index.get()));
  rows.push_back(RunBaseline(&numpy, data));
  rows.push_back(RunBaseline(pg.get(), data));
  rows.push_back(RunBaseline(tdb.get(), data));

  std::printf("\n[Figure 7] end-to-end query time, seconds (log-scale plot in paper)\n");
  std::printf("%-24s %9s %9s %9s %9s %9s\n", "system", "Q1", "Q2", "Q3", "Q4",
              "Q5");
  for (const Row& r : rows) {
    std::printf("%-24s %9.3f %9.3f %9.3f %9.3f %9.3f\n", r.system.c_str(),
                r.seconds[0], r.seconds[1], r.seconds[2], r.seconds[3],
                r.seconds[4]);
  }
  std::printf("\n[Table 2] number of masks loaded during query execution\n");
  std::printf("%-24s %9s %9s %9s %9s %9s\n", "system", "Q1", "Q2", "Q3", "Q4",
              "Q5");
  for (const Row& r : rows) {
    std::printf("%-24s %9lld %9lld %9lld %9lld %9lld\n", r.system.c_str(),
                static_cast<long long>(r.loaded[0]),
                static_cast<long long>(r.loaded[1]),
                static_cast<long long>(r.loaded[2]),
                static_cast<long long>(r.loaded[3]),
                static_cast<long long>(r.loaded[4]));
  }
  double best_speedup = 0;
  for (int q = 0; q < 5; ++q) {
    best_speedup = std::max(best_speedup, rows[1].seconds[q] /
                                              std::max(1e-9, rows[0].seconds[q]));
  }
  std::printf("\nmax MaskSearch speedup over NumPy on this run: %.1fx\n",
              best_speedup);
  std::printf("paper_expectation: baselines ~flat across Q1-Q5 (disk-bound), "
              "MaskSearch 10-100x faster with far fewer masks loaded; "
              "TileDB slowest on Q2/Q4/Q5\n");
}

}  // namespace
}  // namespace bench
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintHeader(flags, "bench_fig7_individual_queries",
              "Figure 7 (query time Q1-Q5, 4 systems, 2 datasets) + Table 2");
  RunDataset(BenchDataset::kWilds, flags);
  RunDataset(BenchDataset::kImageNet, flags);
  return 0;
}
