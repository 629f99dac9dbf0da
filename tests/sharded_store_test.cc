// Tests for the sharded MaskStore layout: open/load parity against the
// single-file layout on random workloads (dup-id batches, compressed blobs),
// shard-parallel batch reads, migration via ReshardMaskStore, and error
// injection on one shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "masksearch/common/thread_pool.h"
#include "masksearch/ingest/ingestor.h"
#include "masksearch/maintain/compactor.h"
#include "masksearch/storage/sharded_mask_store.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::RandomMask;
using testing_util::TempDir;

/// Writes the same deterministic mask sequence into a store with
/// `num_shards` data files.
void WriteStore(const std::string& dir, int count, int32_t num_shards,
                StorageKind kind, uint64_t seed = 11) {
  Rng rng(seed);
  MaskStoreWriter::Options wopts;
  wopts.kind = kind;
  wopts.num_shards = num_shards;
  auto writer = MaskStoreWriter::Create(dir, wopts).ValueOrDie();
  for (int i = 0; i < count; ++i) {
    MaskMeta meta;
    meta.image_id = i / 2;
    meta.model_id = i % 2;
    meta.object_box = ROI(1, 1, 10, 8);
    writer->Append(meta, RandomMask(&rng, 12, 10)).ValueOrDie();
  }
  writer->Finish().CheckOK();
}

TEST(ShardedStoreTest, ShardedLayoutWritesShardFiles) {
  TempDir dir("sharded");
  WriteStore(dir.path(), 10, 4, StorageKind::kRawFloat32);
  EXPECT_FALSE(PathExists(MaskStoreDataPath(dir.path())));
  for (int32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(PathExists(MaskStoreShardDataPath(dir.path(), s, 4)));
  }
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_EQ(store->num_shards(), 4);
  EXPECT_EQ(store->num_masks(), 10);
}

TEST(ShardedStoreTest, SingleFileOpensAsOneShard) {
  TempDir dir("sharded");
  WriteStore(dir.path(), 6, 1, StorageKind::kRawFloat32);
  EXPECT_TRUE(PathExists(MaskStoreDataPath(dir.path())));
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_EQ(store->num_shards(), 1);
}

/// Parity harness: every mask / metadata / random batch of the sharded
/// store must equal the single-file store of the same content.
void ExpectParity(StorageKind kind, int32_t num_shards, ThreadPool* io_pool) {
  TempDir single_dir("parity_single");
  TempDir sharded_dir("parity_sharded");
  const int kCount = 23;  // not a multiple of num_shards: ragged shards
  WriteStore(single_dir.path(), kCount, 1, kind);
  WriteStore(sharded_dir.path(), kCount, num_shards, kind);

  MaskStore::Options opts;
  opts.io_pool = io_pool;
  auto single = MaskStore::Open(single_dir.path()).ValueOrDie();
  auto sharded = MaskStore::Open(sharded_dir.path(), opts).ValueOrDie();
  ASSERT_EQ(sharded->num_shards(), num_shards);
  ASSERT_EQ(single->num_masks(), sharded->num_masks());
  EXPECT_EQ(single->TotalDataBytes(), sharded->TotalDataBytes());

  Rng rng(99);
  for (MaskId id = 0; id < single->num_masks(); ++id) {
    EXPECT_EQ(single->meta(id).image_id, sharded->meta(id).image_id);
    EXPECT_EQ(single->BlobSize(id), sharded->BlobSize(id));
    auto a = single->LoadMask(id);
    auto b = sharded->LoadMask(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->data(), b->data()) << "mask " << id;
  }

  // Random batches with duplicates and shuffled order.
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<MaskId> ids;
    const int len = 1 + static_cast<int>(rng.NextU64() % (2 * kCount));
    for (int i = 0; i < len; ++i) {
      ids.push_back(static_cast<MaskId>(rng.NextU64() % kCount));
    }
    single->ResetCounters();
    sharded->ResetCounters();
    auto a = single->LoadMaskBatch(ids);
    auto b = sharded->LoadMaskBatch(ids);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ((*a)[i].data(), (*b)[i].data()) << "trial " << trial
                                                << " slot " << i;
    }
    // Identical accounting: every distinct id counts as one load on both
    // layouts, and sharding never reads more payload bytes than the single file
    // (shard runs contain no cross-shard gaps).
    EXPECT_EQ(single->masks_loaded(), sharded->masks_loaded());
    EXPECT_LE(sharded->bytes_read(),
              single->bytes_read() + single->TotalDataBytes());
  }

  // Random windowed batches: entry i equals LoadMaskRows(ids[i], windows[i])
  // on the single file (whole masks on compressed stores), with duplicate
  // entries and overlapping windows of one mask, in coalesced runs.
  const bool raw = kind == StorageKind::kRawFloat32;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<MaskId> ids;
    std::vector<RowWindow> windows;
    const int len = 1 + static_cast<int>(rng.NextU64() % (2 * kCount));
    for (int i = 0; i < len; ++i) {
      const MaskId id = static_cast<MaskId>(rng.NextU64() % kCount);
      const int32_t h = single->meta(id).height;
      const int32_t y0 = raw ? static_cast<int32_t>(rng.NextU64() % h) : 0;
      const int32_t y1 =
          raw ? y0 + 1 + static_cast<int32_t>(rng.NextU64() % (h - y0)) : h;
      ids.push_back(id);
      windows.push_back(RowWindow{y0, y1});
      if (i == 0) {  // the same entry twice, and the mask whole
        ids.push_back(id);
        windows.push_back(windows.back());
        ids.push_back(id);
        windows.push_back(RowWindow::Whole(single->meta(id)));
      }
    }
    sharded->ResetCounters();
    auto b = sharded->LoadMaskWindows(ids, windows);
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(b->size(), ids.size());
    // A mask counts once however many entries read it.
    EXPECT_EQ(sharded->masks_loaded(),
              std::set<MaskId>(ids.begin(), ids.end()).size());
    for (size_t i = 0; i < ids.size(); ++i) {
      auto a = raw ? single->LoadMaskRows(ids[i], windows[i].y0, windows[i].y1)
                   : single->LoadMask(ids[i]);
      ASSERT_TRUE(a.ok()) << a.status();
      EXPECT_EQ((*b)[i].height(), windows[i].rows());
      EXPECT_EQ(a->data(), (*b)[i].data())
          << "trial " << trial << " slot " << i;
    }
  }
  if (!raw) {
    EXPECT_TRUE(sharded->LoadMaskWindows({0}, {RowWindow{0, 1}})
                    .status()
                    .IsNotImplemented());
  }
}

TEST(ShardedStoreTest, ParityRawSequential) {
  ExpectParity(StorageKind::kRawFloat32, 4, nullptr);
}

TEST(ShardedStoreTest, ParityCompressedSequential) {
  ExpectParity(StorageKind::kCompressed, 3, nullptr);
}

TEST(ShardedStoreTest, ParityRawShardParallel) {
  ThreadPool pool(4);
  ExpectParity(StorageKind::kRawFloat32, 4, &pool);
}

TEST(ShardedStoreTest, ParityCompressedShardParallel) {
  ThreadPool pool(3);
  ExpectParity(StorageKind::kCompressed, 5, &pool);
}

TEST(ShardedStoreTest, BatchRequestCountsOneRunPerShard) {
  // A dense batch over a 4-shard store coalesces into exactly one modeled
  // request per shard (blobs are append-ordered within each shard).
  TempDir dir("sharded");
  WriteStore(dir.path(), 16, 4, StorageKind::kRawFloat32);
  MaskStore::Options opts;
  opts.throttle = std::make_shared<DiskThrottle>(0.0);  // accounting only
  auto store = MaskStore::Open(dir.path(), opts).ValueOrDie();
  std::vector<MaskId> all(16);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<MaskId>(i);
  store->LoadMaskBatch(all).ValueOrDie();
  EXPECT_EQ(opts.throttle->total_requests(), 4u);
  EXPECT_EQ(opts.throttle->total_bytes(), store->TotalDataBytes());
  EXPECT_EQ(store->bytes_read(), store->TotalDataBytes());
}

TEST(ShardedStoreTest, WindowedBatchReadsOnlyWindowBytes) {
  // Rows [2, 5) of every mask of a 4-shard store: each window is its own
  // request without gap coalescing; with it, one request per shard spans
  // from the shard's first window to its last.
  const uint64_t row = 12 * sizeof(float);
  const uint64_t blob = 10 * row;
  std::vector<MaskId> all(16);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<MaskId>(i);
  const std::vector<RowWindow> windows(all.size(), RowWindow{2, 5});
  for (const uint64_t gap : {uint64_t{0}, uint64_t{64 * 1024}}) {
    TempDir dir("sharded");
    WriteStore(dir.path(), 16, 4, StorageKind::kRawFloat32);
    ThreadPool io_pool(2);
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(0.0);  // accounting only
    opts.batch_gap_bytes = gap;
    opts.io_pool = &io_pool;
    auto store = MaskStore::Open(dir.path(), opts).ValueOrDie();
    EXPECT_TRUE(store->ReadsRowWindows());
    auto masks = store->LoadMaskWindows(all, windows);
    ASSERT_TRUE(masks.ok()) << masks.status();
    EXPECT_EQ(store->masks_loaded(), 16u);
    if (gap == 0) {
      EXPECT_EQ(opts.throttle->total_requests(), 16u);
      EXPECT_EQ(store->bytes_read(), 16 * 3 * row);
    } else {
      EXPECT_EQ(opts.throttle->total_requests(), 4u);
      EXPECT_EQ(store->bytes_read(), 4 * (3 * blob + 3 * row));
    }
    EXPECT_EQ(opts.throttle->total_bytes(), store->bytes_read());
  }
}

/// A one-mask raw store of a w × h mask at `dir`.
std::unique_ptr<MaskStore> OpenTallStore(const std::string& dir, int32_t w,
                                         int32_t h,
                                         const MaskStore::Options& opts) {
  Rng rng(3);
  auto writer = MaskStoreWriter::Create(dir).ValueOrDie();
  writer->Append(MaskMeta{}, RandomMask(&rng, w, h)).ValueOrDie();
  writer->Finish().CheckOK();
  return MaskStore::Open(dir, opts).ValueOrDie();
}

TEST(ShardedStoreTest, ThrottledWindowGapIsBandwidthTimesLatency) {
  // Rows [0, 10) and [110, 120) of a 10-wide mask leave a 4,000-byte gap. A
  // disk of 1e9 B/s and 4 us per request reads 4,000 bytes in the time of
  // one request, so it merges the two windows into one; at 999.75e6 B/s
  // the break-even gap is 3,999 bytes, one byte short, and it does not.
  const uint64_t row = 10 * sizeof(float);
  const std::vector<RowWindow> windows = {{0, 10}, {110, 120}};
  for (const double bytes_per_sec : {1e9, 999.75e6}) {
    TempDir dir("gap");
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(bytes_per_sec, 4.0);
    auto store = OpenTallStore(dir.path(), 10, 200, opts);
    auto masks = store->LoadMaskWindows({0, 0}, windows);
    ASSERT_TRUE(masks.ok()) << masks.status();
    const bool merged = bytes_per_sec == 1e9;
    EXPECT_EQ(opts.throttle->total_requests(), merged ? 1u : 2u);
    EXPECT_EQ(store->bytes_read(), merged ? 120 * row : 20 * row);
    EXPECT_EQ(store->masks_loaded(), 1u);
  }
}

TEST(ShardedStoreTest, WholeBlobBatchesKeepTheConfiguredGap) {
  // Masks 0 and 2 of three 10 x 200 blobs lie 8,000 bytes apart: more than
  // the windows' 4,000-byte gap on this disk, less than batch_gap_bytes. A
  // whole-blob batch merges them; the same blobs as windows do not.
  TempDir dir("blobgap");
  Rng rng(5);
  auto writer = MaskStoreWriter::Create(dir.path()).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    writer->Append(MaskMeta{}, RandomMask(&rng, 10, 200)).ValueOrDie();
  }
  writer->Finish().CheckOK();
  MaskStore::Options opts;
  opts.throttle = std::make_shared<DiskThrottle>(1e9, 4.0);
  auto store = MaskStore::Open(dir.path(), opts).ValueOrDie();
  ASSERT_TRUE(store->LoadMaskBatch({0, 2}).ok());
  EXPECT_EQ(opts.throttle->total_requests(), 1u);
  ASSERT_TRUE(store
                  ->LoadMaskWindows({0, 2}, {RowWindow{0, 200},
                                             RowWindow{0, 200}})
                  .ok());
  EXPECT_EQ(opts.throttle->total_requests(), 3u);
}

TEST(ShardedStoreTest, UnthrottledStoreMergesAt64KiB) {
  // A 1-wide mask: rows 16,384 apart leave a 65,536-byte gap, which an
  // unthrottled store (here an accounting-only throttle) still merges; one
  // row more is not merged.
  for (const int32_t skip : {16384, 16385}) {
    TempDir dir("gap64");
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(0.0);  // accounting only
    auto store = OpenTallStore(dir.path(), 1, 16500, opts);
    auto masks = store->LoadMaskWindows(
        {0, 0}, {RowWindow{0, 1}, RowWindow{1 + skip, 2 + skip}});
    ASSERT_TRUE(masks.ok()) << masks.status();
    EXPECT_EQ(opts.throttle->total_requests(), skip == 16384 ? 1u : 2u);
  }
}

TEST(ShardedStoreTest, MaskReadAsThreeWindowsCountsOnce) {
  TempDir dir("three");
  MaskStore::Options opts;
  opts.batch_gap_bytes = 0;
  auto store = OpenTallStore(dir.path(), 12, 40, opts);
  const std::vector<RowWindow> windows = {{2, 5}, {10, 11}, {30, 38}};
  auto masks = store->LoadMaskWindows({0, 0, 0}, windows);
  ASSERT_TRUE(masks.ok()) << masks.status();
  ASSERT_EQ(masks->size(), 3u);
  const Mask whole = store->LoadMask(0).ValueOrDie();
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ((*masks)[i].height(), windows[i].rows());
    EXPECT_EQ((*masks)[i].at(7, 0), whole.at(7, windows[i].y0));
  }
  EXPECT_EQ(store->masks_loaded(), 2u);  // the windows once, LoadMask once
  EXPECT_EQ(store->bytes_read(), (3 + 1 + 8 + 40) * 12 * sizeof(float));
}

TEST(ShardedStoreTest, LoadMaskRowsMatchesSingleFile) {
  TempDir single_dir("rows_single");
  TempDir sharded_dir("rows_sharded");
  WriteStore(single_dir.path(), 9, 1, StorageKind::kRawFloat32);
  WriteStore(sharded_dir.path(), 9, 3, StorageKind::kRawFloat32);
  auto single = MaskStore::Open(single_dir.path()).ValueOrDie();
  auto sharded = MaskStore::Open(sharded_dir.path()).ValueOrDie();
  for (MaskId id = 0; id < 9; ++id) {
    auto a = single->LoadMaskRows(id, 2, 7);
    auto b = sharded->LoadMaskRows(id, 2, 7);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->data(), b->data());
  }
}

TEST(ShardedStoreTest, ReshardRoundTripPreservesBlobsExactly) {
  for (StorageKind kind :
       {StorageKind::kRawFloat32, StorageKind::kCompressed}) {
    TempDir src_dir("reshard_src");
    TempDir sharded_dir("reshard_out");
    TempDir back_dir("reshard_back");
    WriteStore(src_dir.path(), 13, 1, kind);
    auto src = MaskStore::Open(src_dir.path()).ValueOrDie();

    // single-file -> 4 shards -> single-file: blob bytes and metadata must
    // survive both hops bit-for-bit (no decode/re-encode, even for the
    // lossy codec).
    MS_ASSERT_OK(ReshardMaskStore(*src, sharded_dir.path(), 4));
    auto sharded = MaskStore::Open(sharded_dir.path()).ValueOrDie();
    ASSERT_EQ(sharded->num_shards(), 4);
    MS_ASSERT_OK(ReshardMaskStore(*sharded, back_dir.path(), 1));
    auto back = MaskStore::Open(back_dir.path()).ValueOrDie();
    ASSERT_EQ(back->num_shards(), 1);

    ASSERT_EQ(back->num_masks(), src->num_masks());
    std::string blob_a, blob_b;
    for (MaskId id = 0; id < src->num_masks(); ++id) {
      EXPECT_EQ(src->meta(id).image_id, back->meta(id).image_id);
      EXPECT_EQ(src->meta(id).object_box, back->meta(id).object_box);
      MS_ASSERT_OK(src->ReadBlob(id, &blob_a));
      MS_ASSERT_OK(sharded->ReadBlob(id, &blob_b));
      EXPECT_EQ(blob_a, blob_b) << "sharded blob " << id;
      MS_ASSERT_OK(back->ReadBlob(id, &blob_b));
      EXPECT_EQ(blob_a, blob_b) << "round-trip blob " << id;
    }
  }
}

TEST(ShardedStoreTest, TruncatedShardFailsOnlyThatShard) {
  TempDir dir("sharded");
  WriteStore(dir.path(), 12, 4, StorageKind::kRawFloat32);
  // Truncate shard 1: ids {1, 5, 9} become unreadable; other shards stay
  // intact.
  std::filesystem::resize_file(MaskStoreShardDataPath(dir.path(), 1, 4), 8);
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  for (MaskId id = 0; id < 12; ++id) {
    auto mask = store->LoadMask(id);
    if (id % 4 == 1) {
      EXPECT_FALSE(mask.ok()) << "mask " << id << " lives on the dead shard";
    } else {
      EXPECT_TRUE(mask.ok()) << mask.status();
    }
  }
  // Batches touching the dead shard fail as a whole; batches avoiding it
  // succeed — with and without shard-parallel reads.
  ThreadPool pool(3);
  for (ThreadPool* io_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    MaskStore::Options opts;
    opts.io_pool = io_pool;
    auto reopened = MaskStore::Open(dir.path(), opts).ValueOrDie();
    EXPECT_FALSE(reopened->LoadMaskBatch({0, 1, 2, 3}).ok());
    auto good = reopened->LoadMaskBatch({0, 2, 3, 4, 6, 7, 8});
    EXPECT_TRUE(good.ok()) << good.status();
  }
}

TEST(ShardedStoreTest, MissingShardFileFailsOpen) {
  TempDir dir("sharded");
  WriteStore(dir.path(), 8, 4, StorageKind::kRawFloat32);
  MS_ASSERT_OK(
      RemoveFileIfExists(MaskStoreShardDataPath(dir.path(), 2, 4)));
  EXPECT_FALSE(MaskStore::Open(dir.path()).ok());
}

TEST(ShardedStoreTest, OnlineReshardRacesLiveReadersByteIdentical) {
  // The online re-shard path (a Compactor with target_num_shards — the
  // same verbatim ReadBlob + AppendBlob machinery as ReshardMaskStore)
  // racing live readers: every read through a pinned snapshot stays
  // byte-identical before, during, and after the shard-count swap, and the
  // old generation's files produce typed errors only once the last pin
  // drains and they are actually removed — never garbage bytes while any
  // reader can still reach them.
  IngestorOptions iopts;
  iopts.chi.cell_width = iopts.chi.cell_height = 8;
  iopts.chi.num_bins = 8;
  iopts.num_shards = 2;
  iopts.cache_budget_bytes = 2ull << 20;
  TempDir dir("online_reshard");
  auto ingestor = Ingestor::Create(dir.path(), iopts).ValueOrDie();
  Rng rng(77);
  std::vector<std::string> blobs;
  for (int i = 0; i < 16; ++i) {
    Mask mask = RandomMask(&rng, 12, 10);
    blobs.emplace_back(reinterpret_cast<const char*>(mask.data().data()),
                       mask.ByteSize());
    MaskMeta meta;
    meta.image_id = i;
    (void)ingestor->Append(meta, mask).ValueOrDie();
  }
  MS_ASSERT_OK(ingestor->Publish());
  std::shared_ptr<const Snapshot> pinned = ingestor->snapshot();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(100 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const MaskId id = static_cast<MaskId>(rrng.UniformInt(0, 15));
        std::string blob;
        MS_ASSERT_OK(pinned->store().ReadBlob(id, &blob));
        ASSERT_EQ(blob, blobs[id]) << "reader saw wrong bytes for " << id;
      }
    });
  }

  CompactorOptions copts;
  copts.target_num_shards = 5;
  Compactor resharder(ingestor.get(), copts);
  MS_ASSERT_OK(resharder.Compact().status());
  EXPECT_EQ(ingestor->num_shards(), 5);
  stop.store(true);
  for (auto& t : readers) t.join();

  // The old 2-shard generation is still fully readable through the pin...
  EXPECT_TRUE(PathExists(MaskStoreShardDataPath(dir.path(), 0, 2)));
  std::string blob;
  for (MaskId id = 0; id < 16; ++id) {
    MS_ASSERT_OK(pinned->store().ReadBlob(id, &blob));
    EXPECT_EQ(blob, blobs[id]);
  }
  // ...and the new generation serves the same bytes under the new layout.
  auto current = ingestor->snapshot();
  ASSERT_EQ(current->store().num_shards(), 5);
  for (MaskId id = 0; id < 16; ++id) {
    MS_ASSERT_OK(current->store().ReadBlob(id, &blob));
    EXPECT_EQ(blob, blobs[id]);
  }

  // Last pin drains -> the old generation's files go away, and opening
  // that layout again is a typed error, not garbage.
  pinned.reset();
  EXPECT_FALSE(PathExists(MaskStoreManifestPath(dir.path())));
  EXPECT_FALSE(PathExists(MaskStoreShardDataPath(dir.path(), 0, 2)));
  const auto stale = internal::ReadMaskStoreManifest(dir.path());
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsIOError() || stale.status().IsNotFound())
      << stale.status().ToString();
}

TEST(ShardedStoreTest, ReshardRejectsBadShardCounts) {
  TempDir dir("sharded");
  WriteStore(dir.path(), 4, 1, StorageKind::kRawFloat32);
  auto store = MaskStore::Open(dir.path()).ValueOrDie();
  TempDir out("reshard");
  EXPECT_TRUE(ReshardMaskStore(*store, out.path(), 0)
                  .IsInvalidArgument());
  EXPECT_TRUE(ReshardMaskStore(*store, out.path(), -3)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace masksearch
