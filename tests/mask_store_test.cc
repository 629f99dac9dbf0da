// Unit tests for the on-disk MaskStore.

#include <gtest/gtest.h>

#include "masksearch/storage/mask_store.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::RandomMask;
using testing_util::TempDir;

TEST(MaskStoreTest, WriteReadRoundTripRaw) {
  TempDir dir("store");
  Rng rng(1);
  std::vector<Mask> masks;
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    for (int i = 0; i < 5; ++i) {
      Mask m = RandomMask(&rng, 16, 12);
      MaskMeta meta;
      meta.image_id = i / 2;
      meta.model_id = i % 2;
      meta.label = 3;
      meta.predicted_label = 4;
      meta.object_box = ROI(1, 2, 8, 9);
      auto id = writer->Append(meta, m);
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, i);
      masks.push_back(std::move(m));
    }
    MS_ASSERT_OK(writer->Finish());
  }

  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_EQ(store->num_masks(), 5);
  EXPECT_EQ(store->kind(), StorageKind::kRawFloat32);
  for (int i = 0; i < 5; ++i) {
    const MaskMeta& meta = store->meta(i);
    EXPECT_EQ(meta.mask_id, i);
    EXPECT_EQ(meta.image_id, i / 2);
    EXPECT_EQ(meta.model_id, i % 2);
    EXPECT_EQ(meta.label, 3);
    EXPECT_EQ(meta.predicted_label, 4);
    EXPECT_EQ(meta.object_box, ROI(1, 2, 8, 9));
    auto loaded = store->LoadMask(i);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->data(), masks[i].data());
  }
}

TEST(MaskStoreTest, CompressedRoundTrip) {
  TempDir dir("store");
  Rng rng(2);
  Mask m = testing_util::BlobMask(&rng, 64, 64);
  {
    MaskStoreWriter::Options opts;
    opts.kind = StorageKind::kCompressed;
    auto writer = MaskStoreWriter::Create(dir.path(), opts).ValueOrDie();
    writer->Append(MaskMeta{}, m).ValueOrDie();
    MS_ASSERT_OK(writer->Finish());
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_EQ(store->kind(), StorageKind::kCompressed);
  EXPECT_LT(store->TotalDataBytes(), m.ByteSize());
  auto loaded = store->LoadMask(0);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_NEAR(loaded->data()[i], m.data()[i], 1.0 / 256.0 + 1e-6);
  }
}

TEST(MaskStoreTest, LoadCountersTrackReads) {
  TempDir dir("store");
  Rng rng(3);
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      writer->Append(MaskMeta{}, RandomMask(&rng, 8, 8)).ValueOrDie();
    }
    MS_ASSERT_OK(writer->Finish());
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_EQ(store->masks_loaded(), 0u);
  store->LoadMask(0).ValueOrDie();
  store->LoadMask(1).ValueOrDie();
  EXPECT_EQ(store->masks_loaded(), 2u);
  EXPECT_EQ(store->bytes_read(), 2u * 8 * 8 * sizeof(float));
  store->ResetCounters();
  EXPECT_EQ(store->masks_loaded(), 0u);
  EXPECT_EQ(store->bytes_read(), 0u);
}

TEST(MaskStoreTest, MetadataAccessDoesNotTouchData) {
  TempDir dir("store");
  Rng rng(4);
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    writer->Append(MaskMeta{}, RandomMask(&rng, 8, 8)).ValueOrDie();
    MS_ASSERT_OK(writer->Finish());
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  (void)store->meta(0);
  (void)store->metas();
  EXPECT_EQ(store->masks_loaded(), 0u);
  EXPECT_EQ(store->bytes_read(), 0u);
}

TEST(MaskStoreTest, LoadMaskRowsPartialRead) {
  TempDir dir("store");
  Rng rng(5);
  Mask m = RandomMask(&rng, 10, 20);
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    writer->Append(MaskMeta{}, m).ValueOrDie();
    MS_ASSERT_OK(writer->Finish());
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  auto rows = store->LoadMaskRows(0, 5, 9);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->height(), 4);
  EXPECT_EQ(rows->width(), 10);
  for (int32_t y = 0; y < 4; ++y) {
    for (int32_t x = 0; x < 10; ++x) {
      EXPECT_EQ(rows->at(x, y), m.at(x, y + 5));
    }
  }
  EXPECT_EQ(store->bytes_read(), 4u * 10 * sizeof(float));
}

TEST(MaskStoreTest, LoadMaskRowsValidation) {
  TempDir dir("store");
  Rng rng(6);
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    writer->Append(MaskMeta{}, RandomMask(&rng, 4, 4)).ValueOrDie();
    MS_ASSERT_OK(writer->Finish());
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_TRUE(store->LoadMaskRows(0, 2, 2).status().IsInvalidArgument());
  EXPECT_TRUE(store->LoadMaskRows(0, -1, 2).status().IsInvalidArgument());
  EXPECT_TRUE(store->LoadMaskRows(0, 0, 5).status().IsInvalidArgument());
}

// A manifest whose shape disagrees with a raw blob's size is a typed
// Corruption on every read path, windowed ones included: offsets computed
// from the damaged shape would otherwise read the next blob's bytes.
TEST(MaskStoreTest, DamagedShapeIsCorruptionOnEveryWindowedRead) {
  TempDir dir("store");
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    for (float v : {0.1f, 0.9f}) {
      Mask m(8, 8);
      for (float& p : m.mutable_data()) p = v;
      writer->Append(MaskMeta{}, m).ValueOrDie();
    }
    MS_ASSERT_OK(writer->Finish());
  }
  internal::ParsedManifest parsed =
      internal::ReadMaskStoreManifest(dir.path()).ValueOrDie();
  parsed.metas[0].height = 16;  // the blob holds 8 rows
  MS_ASSERT_OK(internal::WriteMaskStoreManifest(
      dir.path(), parsed.kind, parsed.num_shards, parsed.metas,
      parsed.offsets, parsed.sizes));

  BufferPool::Options pool;
  pool.budget_bytes = 1 << 20;
  MaskStore::Options cached;
  cached.cache = std::make_shared<BufferPool>(pool);
  for (const bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "cached" : "uncached");
    auto store = MaskStore::Open(dir.path(), with_cache ? cached
                                                        : MaskStore::Options{})
                     .ValueOrDie();
    EXPECT_TRUE(store->LoadMask(0).status().IsCorruption());
    EXPECT_TRUE(store->LoadMaskBatch({1, 0}).status().IsCorruption());
    EXPECT_TRUE(store->LoadMaskRows(0, 8, 16).status().IsCorruption());
    EXPECT_TRUE(store->LoadMaskRows(0, 0, 8).status().IsCorruption());
    EXPECT_TRUE(store->LoadMaskWindows({1, 0}, {{0, 8}, {8, 16}})
                    .status()
                    .IsCorruption());
    EXPECT_TRUE(store->LoadMaskWindows({0}, {{0, 16}}).status().IsCorruption());
    // The healthy mask still reads.
    auto rows = store->LoadMaskRows(1, 2, 4);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->at(0, 0), 0.9f);
  }
}

TEST(MaskStoreTest, OutOfRangeIdIsNotFound) {
  TempDir dir("store");
  Rng rng(7);
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    writer->Append(MaskMeta{}, RandomMask(&rng, 4, 4)).ValueOrDie();
    MS_ASSERT_OK(writer->Finish());
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_TRUE(store->LoadMask(-1).status().IsNotFound());
  EXPECT_TRUE(store->LoadMask(1).status().IsNotFound());
}

TEST(MaskStoreTest, OpenMissingDirectoryFails) {
  EXPECT_FALSE(MaskStore::Open("/nonexistent/store/dir").ok());
}

TEST(MaskStoreTest, CorruptManifestRejected) {
  TempDir dir("store");
  MS_ASSERT_OK(WriteFile(MaskStoreManifestPath(dir.path()), "garbage data"));
  MS_ASSERT_OK(WriteFile(MaskStoreDataPath(dir.path()), ""));
  EXPECT_TRUE(MaskStore::Open(dir.path()).status().IsCorruption());
}

TEST(MaskStoreTest, AppendAfterFinishFails) {
  TempDir dir("store");
  Rng rng(8);
  auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
  writer->Append(MaskMeta{}, RandomMask(&rng, 4, 4)).ValueOrDie();
  MS_ASSERT_OK(writer->Finish());
  EXPECT_FALSE(writer->Append(MaskMeta{}, RandomMask(&rng, 4, 4)).ok());
}

TEST(MaskStoreTest, EmptyMaskRejected) {
  TempDir dir("store");
  auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
  EXPECT_TRUE(
      writer->Append(MaskMeta{}, Mask()).status().IsInvalidArgument());
}

TEST(MaskStoreTest, ThrottleAccountsBytes) {
  TempDir dir("store");
  Rng rng(9);
  {
    auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
    writer->Append(MaskMeta{}, RandomMask(&rng, 8, 8)).ValueOrDie();
    MS_ASSERT_OK(writer->Finish());
  }
  MaskStore::Options opts;
  opts.throttle = std::make_shared<DiskThrottle>(0.0);  // accounting only
  auto store = MaskStore::Open(dir.path(), opts).ValueOrDie();
  store->LoadMask(0).ValueOrDie();
  EXPECT_EQ(opts.throttle->total_bytes(), 8u * 8 * sizeof(float));
  EXPECT_EQ(opts.throttle->total_requests(), 1u);
}

std::unique_ptr<MaskStore> MakeBatchStore(const TempDir& dir, int count,
                                          StorageKind kind,
                                          const MaskStore::Options& opts) {
  Rng rng(31);
  MaskStoreWriter::Options wopts;
  wopts.kind = kind;
  auto writer = MaskStoreWriter::Create(dir.path(), wopts).ValueOrDie();
  for (int i = 0; i < count; ++i) {
    writer->Append(MaskMeta{}, RandomMask(&rng, 12, 10)).ValueOrDie();
  }
  writer->Finish().CheckOK();
  return MaskStore::Open(dir.path(), opts).ValueOrDie();
}

TEST(MaskStoreBatchTest, MatchesSerialLoadsInInputOrder) {
  for (StorageKind kind :
       {StorageKind::kRawFloat32, StorageKind::kCompressed}) {
    TempDir dir("batch");
    auto store = MakeBatchStore(dir, 10, kind, {});
    // Shuffled order with duplicates.
    const std::vector<MaskId> ids = {7, 0, 7, 3, 9, 1, 1, 4};
    auto batch = store->LoadMaskBatch(ids);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      auto want = store->LoadMask(ids[i]);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ((*batch)[i].data(), want->data()) << "slot " << i;
    }
  }
}

TEST(MaskStoreBatchTest, CoalescesAdjacentBlobsIntoOneRequest) {
  TempDir dir("batch");
  MaskStore::Options opts;
  opts.throttle = std::make_shared<DiskThrottle>(0.0);  // accounting only
  auto store = MakeBatchStore(dir, 8, StorageKind::kRawFloat32, opts);
  const std::vector<MaskId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  store->LoadMaskBatch(all).ValueOrDie();
  // The store is densely packed: the whole batch is one modeled request of
  // exactly the data bytes.
  EXPECT_EQ(opts.throttle->total_requests(), 1u);
  EXPECT_EQ(opts.throttle->total_bytes(), store->TotalDataBytes());
  EXPECT_EQ(store->masks_loaded(), 8u);
  EXPECT_EQ(store->bytes_read(), store->TotalDataBytes());
}

TEST(MaskStoreBatchTest, GapKnobControlsCoalescing) {
  const uint64_t blob = 12 * 10 * sizeof(float);
  const std::vector<MaskId> sparse = {0, 2, 4, 6};  // one-blob gaps
  {
    TempDir dir("batch");
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(0.0);
    opts.batch_gap_bytes = 0;  // never read over a gap
    auto store = MakeBatchStore(dir, 8, StorageKind::kRawFloat32, opts);
    store->LoadMaskBatch(sparse).ValueOrDie();
    EXPECT_EQ(opts.throttle->total_requests(), 4u);
    EXPECT_EQ(opts.throttle->total_bytes(), 4 * blob);
  }
  {
    TempDir dir("batch");
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(0.0);
    opts.batch_gap_bytes = blob;  // gaps are exactly one blob wide
    auto store = MakeBatchStore(dir, 8, StorageKind::kRawFloat32, opts);
    store->LoadMaskBatch(sparse).ValueOrDie();
    // One request spanning masks [0, 7): reads the gap blobs too.
    EXPECT_EQ(opts.throttle->total_requests(), 1u);
    EXPECT_EQ(opts.throttle->total_bytes(), 7 * blob);
  }
}

TEST(MaskStoreBatchTest, MaxBytesCapSplitsRuns) {
  const uint64_t blob = 12 * 10 * sizeof(float);
  TempDir dir("batch");
  MaskStore::Options opts;
  opts.throttle = std::make_shared<DiskThrottle>(0.0);
  opts.batch_max_bytes = 3 * blob;
  auto store = MakeBatchStore(dir, 8, StorageKind::kRawFloat32, opts);
  store->LoadMaskBatch({0, 1, 2, 3, 4, 5, 6, 7}).ValueOrDie();
  EXPECT_EQ(opts.throttle->total_requests(), 3u);  // 3 + 3 + 2 masks
  EXPECT_EQ(opts.throttle->total_bytes(), 8 * blob);
}

TEST(MaskStoreBatchTest, EmptyAndInvalidIds) {
  TempDir dir("batch");
  auto store = MakeBatchStore(dir, 3, StorageKind::kRawFloat32, {});
  auto empty = store->LoadMaskBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(store->LoadMaskBatch({0, 99}).status().IsNotFound());
  EXPECT_TRUE(store->LoadMaskBatch({-1}).status().IsNotFound());
  // A failed batch performs no reads.
  EXPECT_EQ(store->masks_loaded(), 0u);
}

TEST(MaskStoreTest, TotalDataBytesMatchesBlobSizes) {
  TempDir dir("batch");
  auto store = MakeBatchStore(dir, 6, StorageKind::kRawFloat32, {});
  uint64_t want = 0;
  for (MaskId id = 0; id < store->num_masks(); ++id) {
    want += store->BlobSize(id);
  }
  EXPECT_EQ(store->TotalDataBytes(), want);
}

}  // namespace
}  // namespace masksearch
