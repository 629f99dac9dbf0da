// Quickstart: build a small synthetic mask database, open a MaskSearch
// session (which builds the Cumulative Histogram Index), and run a filter
// query through the SQL front end.
//
//   ./quickstart [workdir]

#include <cstdio>

#include "masksearch/masksearch.h"

using namespace masksearch;

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : "/tmp/masksearch_example_quickstart";

  // 1. Create a database of masks: 200 images, two models' saliency maps
  //    each, with per-image foreground-object boxes.
  DatasetSpec spec;
  spec.name = "quickstart";
  spec.num_images = 200;
  spec.num_models = 2;
  spec.saliency.width = 112;
  spec.saliency.height = 112;
  spec.seed = 7;
  EnsureDataset(dir, spec).CheckOK();

  auto store = MaskStore::Open(dir).ValueOrDie();
  std::printf("mask database: %lld masks, %.1f MiB on disk\n",
              static_cast<long long>(store->num_masks()),
              store->TotalDataBytes() / 1048576.0);

  // 2. Open a session. Vanilla mode bulk-builds one CHI per mask up front;
  //    pass opts.incremental = true to index lazily instead (§3.6).
  SessionOptions opts;
  opts.chi.cell_width = 14;   // 112/14 = 8x8 grid, the paper's proportions
  opts.chi.cell_height = 14;
  opts.chi.num_bins = 16;
  auto session = Session::Open(store.get(), opts).ValueOrDie();
  std::printf("index built in %.2fs, %.2f MiB in memory (%.1f%% of data)\n",
              session->index_build_seconds(),
              session->index()->MemoryBytes() / 1048576.0,
              100.0 * session->index()->MemoryBytes() / store->TotalDataBytes());

  // 3. Query: masks whose foreground object contains more than 800 salient
  //    pixels — written in the paper's SQL dialect.
  auto bound = sql::ParseAndBind(
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, object, (0.8, 1.0)) > 300 AND model_id = 1;");
  bound.status().CheckOK();

  auto result = session->Filter(bound->filter);
  result.status().CheckOK();

  std::printf("\nquery: CP(mask, object, (0.8, 1.0)) > 300, model_id = 1\n");
  std::printf("matched %zu of %lld targeted masks\n", result->mask_ids.size(),
              static_cast<long long>(result->stats.masks_targeted));
  std::printf("filter-verification stats: %s\n",
              result->stats.ToString().c_str());
  std::printf("(only %lld masks were loaded from disk — the rest were "
              "decided from CHI bounds alone)\n",
              static_cast<long long>(result->stats.masks_loaded));

  size_t shown = 0;
  for (MaskId id : result->mask_ids) {
    if (shown++ >= 5) break;
    std::printf("  %s\n", store->meta(id).ToString().c_str());
  }
  return 0;
}
