// Dataset exploration with incremental indexing (§3.6, §4.5): a user
// explores class after class, issuing filter queries with different
// parameters against overlapping subsets of masks. MS-II builds each mask's
// CHI the first time a query loads it, so there is no start-up wait and the
// indexing cost is amortized across the session; at the end the index is
// persisted for the next session.
//
//   ./exploration_session [workdir]

#include <cstdio>

#include "masksearch/masksearch.h"

using namespace masksearch;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/masksearch_example_expl";

  DatasetSpec spec;
  spec.name = "exploration";
  spec.num_images = 300;
  spec.num_models = 2;
  spec.saliency.width = 112;
  spec.saliency.height = 112;
  spec.seed = 63;
  EnsureDataset(dir, spec).CheckOK();
  auto store = MaskStore::Open(dir).ValueOrDie();

  const std::string index_path = dir + "/session.chi";
  SessionOptions opts;
  opts.chi.cell_width = 14;
  opts.chi.cell_height = 14;
  opts.chi.num_bins = 16;
  opts.incremental = true;  // MS-II: no upfront index build
  opts.index_path = index_path;

  auto session = Session::Open(store.get(), opts).ValueOrDie();
  std::printf("session opened with %zu of %lld CHIs prebuilt "
              "(persisted by previous sessions)\n",
              session->index()->num_built(),
              static_cast<long long>(store->num_masks()));

  // A §4.5-style exploration: 12 queries drifting across the dataset with
  // 50% revisit probability.
  WorkloadOptions wopts;
  wopts.num_queries = 12;
  wopts.p_seen = 0.5;
  wopts.seed = 15;
  wopts.query.threshold_fraction_max = 0.05;  // keep result sets non-empty
  const Workload workload = GenerateWorkload(*store, wopts);

  std::printf("\n%6s %9s %9s %9s %10s %12s\n", "query", "targets", "matches",
              "loaded", "chi_built", "index_total");
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    auto r = session->Filter(workload.queries[i]);
    r.status().CheckOK();
    std::printf("%6zu %9lld %9zu %9lld %10lld %12zu\n", i + 1,
                static_cast<long long>(r->stats.masks_targeted),
                r->mask_ids.size(),
                static_cast<long long>(r->stats.masks_loaded),
                static_cast<long long>(r->stats.chis_built),
                session->index()->num_built());
  }

  std::printf("\nindex now covers %zu masks (%.2f MiB); only masks the "
              "session actually touched were indexed\n",
              session->index()->num_built(),
              session->index()->MemoryBytes() / 1048576.0);

  session->Save().CheckOK();
  std::printf("persisted CHI set to %s — rerun this example to start from a "
              "warm index\n",
              index_path.c_str());
  return 0;
}
