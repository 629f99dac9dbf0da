// Unit tests for IndexManager and CHI persistence (§3.2, §3.6).

#include <gtest/gtest.h>

#include "masksearch/index/chi_builder.h"
#include "masksearch/index/chi_store.h"
#include "masksearch/index/index_manager.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::RandomMask;
using testing_util::TempDir;

ChiConfig SmallConfig() {
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

TEST(IndexManagerTest, StartsEmpty) {
  IndexManager mgr(10, SmallConfig());
  EXPECT_EQ(mgr.num_masks(), 10);
  EXPECT_EQ(mgr.num_built(), 0u);
  EXPECT_EQ(mgr.Get(3), nullptr);
  EXPECT_FALSE(mgr.Has(3));
  EXPECT_EQ(mgr.MemoryBytes(), 0u);
}

TEST(IndexManagerTest, PutAndGet) {
  IndexManager mgr(4, SmallConfig());
  Rng rng(1);
  const Mask m = RandomMask(&rng, 16, 16);
  mgr.Put(2, BuildChi(m, SmallConfig()));
  EXPECT_TRUE(mgr.Has(2));
  EXPECT_EQ(mgr.num_built(), 1u);
  ASSERT_NE(mgr.Get(2), nullptr);
  EXPECT_EQ(mgr.Get(2)->width(), 16);
  EXPECT_GT(mgr.MemoryBytes(), 0u);
}

TEST(IndexManagerTest, FirstPutWins) {
  IndexManager mgr(2, SmallConfig());
  Rng rng(2);
  const Mask a = RandomMask(&rng, 16, 16);
  mgr.Put(0, BuildChi(a, SmallConfig()));
  const Chi* first = mgr.Get(0);
  const Mask b = RandomMask(&rng, 8, 8);
  mgr.Put(0, BuildChi(b, SmallConfig()));
  EXPECT_EQ(mgr.Get(0), first);  // pointer unchanged
  EXPECT_EQ(mgr.num_built(), 1u);
}

TEST(IndexManagerTest, OutOfRangeIdsAreSafe) {
  IndexManager mgr(2, SmallConfig());
  EXPECT_EQ(mgr.Get(-1), nullptr);
  EXPECT_EQ(mgr.Get(5), nullptr);
  Rng rng(3);
  mgr.Put(99, BuildChi(RandomMask(&rng, 4, 4), SmallConfig()));  // ignored
  EXPECT_EQ(mgr.num_built(), 0u);
}

TEST(IndexManagerTest, BuildAllIndexesEveryMask) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), /*num_images=*/6, /*num_models=*/2, 32, 32);
  IndexManager mgr(store->num_masks(), SmallConfig());
  MS_ASSERT_OK(mgr.BuildAll(*store));
  EXPECT_EQ(mgr.num_built(), 12u);
  for (MaskId id = 0; id < store->num_masks(); ++id) {
    EXPECT_TRUE(mgr.Has(id));
  }
  // BuildAll loads each mask exactly once.
  EXPECT_EQ(store->masks_loaded(), 12u);
}

TEST(IndexManagerTest, BuildAllWithThreadPool) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 8, 2, 24, 24);
  ThreadPool pool(4);
  IndexManager mgr(store->num_masks(), SmallConfig());
  MS_ASSERT_OK(mgr.BuildAll(*store, &pool));
  EXPECT_EQ(mgr.num_built(), 16u);
}

TEST(IndexManagerTest, BuildAllSizeMismatchRejected) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 3, 1, 16, 16);
  IndexManager mgr(99, SmallConfig());
  EXPECT_TRUE(mgr.BuildAll(*store).IsInvalidArgument());
}

TEST(IndexManagerTest, SaveLoadRoundTrip) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 5, 1, 20, 20);
  IndexManager mgr(store->num_masks(), SmallConfig());
  MS_ASSERT_OK(mgr.BuildAll(*store));
  const std::string path = dir.file("chi.idx");
  MS_ASSERT_OK(mgr.SaveToFile(path));

  IndexManager restored(store->num_masks(), SmallConfig());
  MS_ASSERT_OK(restored.LoadFromFile(path));
  EXPECT_EQ(restored.num_built(), 5u);
  for (MaskId id = 0; id < 5; ++id) {
    const Chi* a = mgr.Get(id);
    const Chi* b = restored.Get(id);
    ASSERT_NE(b, nullptr);
    for (int32_t bj = 0; bj < a->num_boundaries_y(); ++bj) {
      for (int32_t bi = 0; bi < a->num_boundaries_x(); ++bi) {
        for (int32_t bin = 0; bin <= SmallConfig().num_bins; ++bin) {
          ASSERT_EQ(a->H(bi, bj, bin), b->H(bi, bj, bin));
        }
      }
    }
  }
}

TEST(IndexManagerTest, PartialSaveLoad) {
  // Incremental sessions persist only the CHIs built so far (§3.6).
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  IndexManager mgr(4, SmallConfig());
  mgr.Retain(1, store->LoadMask(1).ValueOrDie());
  mgr.Retain(3, store->LoadMask(3).ValueOrDie());
  const std::string path = dir.file("partial.idx");
  MS_ASSERT_OK(mgr.SaveToFile(path));

  IndexManager restored(4, SmallConfig());
  MS_ASSERT_OK(restored.LoadFromFile(path));
  EXPECT_EQ(restored.num_built(), 2u);
  EXPECT_FALSE(restored.Has(0));
  EXPECT_TRUE(restored.Has(1));
  EXPECT_FALSE(restored.Has(2));
  EXPECT_TRUE(restored.Has(3));
}

TEST(IndexManagerTest, LoadRejectsConfigMismatch) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 2, 1, 16, 16);
  IndexManager mgr(2, SmallConfig());
  MS_ASSERT_OK(mgr.BuildAll(*store));
  const std::string path = dir.file("chi.idx");
  MS_ASSERT_OK(mgr.SaveToFile(path));

  ChiConfig other = SmallConfig();
  other.num_bins = 4;
  IndexManager mismatched(2, other);
  EXPECT_TRUE(mismatched.LoadFromFile(path).IsInvalidArgument());

  IndexManager wrong_count(3, SmallConfig());
  EXPECT_TRUE(wrong_count.LoadFromFile(path).IsInvalidArgument());
}

TEST(IndexManagerTest, AttachFileLoadsOnDemand) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 6, 1, 20, 20);
  const std::string path = dir.file("ondisk.chi");
  {
    IndexManager mgr(6, SmallConfig());
    MS_ASSERT_OK(mgr.BuildAll(*store));
    MS_ASSERT_OK(mgr.SaveToFile(path));
  }

  IndexManager lazy(6, SmallConfig());
  MS_ASSERT_OK(lazy.AttachFile(path));
  EXPECT_EQ(lazy.num_built(), 0u);  // nothing resident yet
  EXPECT_FALSE(lazy.IsResident(2));

  // First access loads from disk and makes the CHI resident.
  const Chi* chi = lazy.Get(2);
  ASSERT_NE(chi, nullptr);
  EXPECT_TRUE(lazy.IsResident(2));
  EXPECT_EQ(lazy.num_built(), 1u);
  EXPECT_GT(lazy.attached_bytes_loaded(), 0u);
  // Second access is the resident fast path (same pointer).
  EXPECT_EQ(lazy.Get(2), chi);

  // Loaded CHIs are identical to the originals.
  IndexManager eager(6, SmallConfig());
  MS_ASSERT_OK(eager.LoadFromFile(path));
  const Chi* want = eager.Get(2);
  for (int32_t bj = 0; bj < want->num_boundaries_y(); ++bj) {
    for (int32_t bi = 0; bi < want->num_boundaries_x(); ++bi) {
      for (int32_t bin = 0; bin <= SmallConfig().num_bins; ++bin) {
        ASSERT_EQ(chi->H(bi, bj, bin), want->H(bi, bj, bin));
      }
    }
  }
}

TEST(IndexManagerTest, AttachFilePartialSet) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  const std::string path = dir.file("partial.chi");
  {
    IndexManager mgr(4, SmallConfig());
    mgr.Retain(1, store->LoadMask(1).ValueOrDie());
    MS_ASSERT_OK(mgr.SaveToFile(path));
  }
  IndexManager lazy(4, SmallConfig());
  MS_ASSERT_OK(lazy.AttachFile(path));
  EXPECT_EQ(lazy.Get(0), nullptr);   // absent from the file
  EXPECT_NE(lazy.Get(1), nullptr);   // loaded on demand
}

TEST(IndexManagerTest, AttachFileValidatesConfigAndCount) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 3, 1, 16, 16);
  const std::string path = dir.file("x.chi");
  IndexManager mgr(3, SmallConfig());
  MS_ASSERT_OK(mgr.BuildAll(*store));
  MS_ASSERT_OK(mgr.SaveToFile(path));

  ChiConfig other = SmallConfig();
  other.num_bins = 2;
  IndexManager wrong_cfg(3, other);
  EXPECT_TRUE(wrong_cfg.AttachFile(path).IsInvalidArgument());
  IndexManager wrong_count(5, SmallConfig());
  EXPECT_TRUE(wrong_count.AttachFile(path).IsInvalidArgument());
  IndexManager missing(3, SmallConfig());
  EXPECT_FALSE(missing.AttachFile(dir.file("nope.chi")).ok());
}

TEST(IndexManagerTest, EquiDepthEdgesFromStore) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 8, 1, 32, 32);
  auto edges = ComputeEquiDepthEdges(*store, 8, /*sample_masks=*/8);
  ASSERT_TRUE(edges.ok()) << edges.status();
  ASSERT_EQ(edges->size(), 7u);
  double prev = 0.0;
  for (double e : *edges) {
    EXPECT_GT(e, prev);
    EXPECT_LT(e, 1.0);
    prev = e;
  }
  // An equi-depth index round-trips through persistence like any other.
  ChiConfig cfg = SmallConfig();
  cfg.custom_edges = *edges;
  cfg.num_bins = 8;
  IndexManager mgr(store->num_masks(), cfg);
  MS_ASSERT_OK(mgr.BuildAll(*store));
  const std::string path = dir.file("ed.idx");
  MS_ASSERT_OK(mgr.SaveToFile(path));
  IndexManager restored(store->num_masks(), cfg);
  MS_ASSERT_OK(restored.LoadFromFile(path));
  EXPECT_EQ(restored.num_built(), 8u);
}

TEST(IndexManagerTest, EquiDepthEdgesValidation) {
  TempDir dir("idx");
  auto store = MakeStore(dir.path(), 2, 1, 16, 16);
  EXPECT_TRUE(ComputeEquiDepthEdges(*store, 1).status().IsInvalidArgument());
}

TEST(ChiStoreTest, EmptySetRoundTrip) {
  TempDir dir("idx");
  const std::string path = dir.file("empty.idx");
  MS_ASSERT_OK(SaveChiSet(path, SmallConfig(), {nullptr, nullptr}));
  auto set = LoadChiSet(path);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->chis.size(), 2u);
  EXPECT_EQ(set->num_present(), 0u);
}

TEST(ChiStoreTest, CorruptFileRejected) {
  TempDir dir("idx");
  const std::string path = dir.file("bad.idx");
  MS_ASSERT_OK(WriteFile(path, "this is not a chi store"));
  EXPECT_TRUE(LoadChiSet(path).status().IsCorruption());
}

TEST(IndexManagerTest, ConcurrentPutsAreSafe) {
  IndexManager mgr(64, SmallConfig());
  Rng rng(9);
  const Mask m = RandomMask(&rng, 16, 16);
  const Chi chi = BuildChi(m, SmallConfig());
  ThreadPool pool(4);
  ParallelFor(&pool, 256, [&](size_t i) {
    mgr.Put(static_cast<MaskId>(i % 64), Chi(chi));
  });
  EXPECT_EQ(mgr.num_built(), 64u);
}

}  // namespace
}  // namespace masksearch
