// Epoch-snapshot visibility suite (docs/INGEST.md): a query admitted at
// epoch E never observes masks published after E; re-running the same
// query against a pinned Snapshot is byte-identical no matter how many
// epochs writers publish meanwhile; releasing the last reference to a
// Snapshot unpins it promptly; and Open() resumes exactly at the last
// durable epoch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "masksearch/baselines/full_scan.h"
#include "masksearch/catalog/catalog.h"
#include "masksearch/common/io.h"
#include "masksearch/ingest/ingestor.h"
#include "masksearch/maintain/compactor.h"
#include "masksearch/service/query_service.h"
#include "masksearch/workload/query_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::BlobMask;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

IngestorOptions TestIngestOptions() {
  IngestorOptions opts;
  opts.chi = TestConfig();
  opts.num_shards = 3;
  opts.cache_budget_bytes = 8ull << 20;
  return opts;
}

MaskMeta MetaFor(int64_t image, int32_t model) {
  MaskMeta meta;
  meta.image_id = image;
  meta.model_id = model;
  meta.mask_type = MaskType::kSaliencyMap;
  return meta;
}

/// Appends `n` deterministic masks (32x32) and returns them.
std::vector<Mask> AppendMasks(Ingestor* ingestor, Rng* rng, int64_t n,
                              int64_t first_image) {
  std::vector<Mask> out;
  for (int64_t i = 0; i < n; ++i) {
    Mask mask = BlobMask(rng, 32, 32);
    auto id = ingestor->Append(MetaFor(first_image + i, /*model=*/0), mask);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    out.push_back(std::move(mask));
  }
  return out;
}

/// A filter query every snapshot can answer (no store-derived selection).
FilterQuery WholeRoiFilter() {
  FilterQuery q;
  CpTerm term;
  term.roi_source = RoiSource::kConstant;
  term.constant_roi = ROI{0, 0, 32, 32};
  term.range = ValueRange{0.5, 1.0};
  q.terms = {term};
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 100.0);
  return q;
}

TEST(IngestTest, CreatePublishesEmptyEpochZero) {
  TempDir dir("ingest_create");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  EXPECT_EQ(ingestor->epoch(), 0);
  EXPECT_EQ(ingestor->watermark(), 0);
  std::shared_ptr<const Snapshot> snap = ingestor->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 0);
  EXPECT_EQ(snap->watermark(), 0);
  EXPECT_EQ(snap->store().num_masks(), 0);
  ASSERT_NE(snap->session(), nullptr);
  // The empty snapshot answers queries (with empty results), not errors.
  auto result = snap->session()->Filter(WholeRoiFilter());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->mask_ids.empty());
}

TEST(IngestTest, AppendsInvisibleUntilPublish) {
  TempDir dir("ingest_visibility");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  Rng rng(11);
  AppendMasks(ingestor.get(), &rng, 10, 0);
  EXPECT_EQ(ingestor->appended(), 10);
  // Still invisible: watermark and the current snapshot are untouched.
  EXPECT_EQ(ingestor->watermark(), 0);
  EXPECT_EQ(ingestor->snapshot()->store().num_masks(), 0);

  MS_ASSERT_OK(ingestor->Publish());
  EXPECT_EQ(ingestor->epoch(), 1);
  EXPECT_EQ(ingestor->watermark(), 10);
  EXPECT_EQ(ingestor->snapshot()->store().num_masks(), 10);
}

TEST(IngestTest, PinnedSnapshotIsByteIdenticalAcrossEpochs) {
  TempDir dir("ingest_pin");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  Rng rng(23);
  AppendMasks(ingestor.get(), &rng, 40, 0);
  MS_ASSERT_OK(ingestor->Publish());

  std::shared_ptr<const Snapshot> pinned = ingestor->snapshot();
  ASSERT_EQ(pinned->epoch(), 1);
  const FilterQuery query = WholeRoiFilter();
  const FilterResult first = pinned->session()->Filter(query).ValueOrDie();
  for (MaskId id : first.mask_ids) EXPECT_LT(id, pinned->watermark());

  // Publish three more epochs while the pin is held.
  for (int round = 0; round < 3; ++round) {
    AppendMasks(ingestor.get(), &rng, 20, 100 + 20 * round);
    MS_ASSERT_OK(ingestor->Publish());
    // The pinned view never moves: same query, byte-identical ids.
    const FilterResult replay = pinned->session()->Filter(query).ValueOrDie();
    EXPECT_EQ(replay.mask_ids, first.mask_ids) << "after epoch " << round + 2;
    EXPECT_EQ(pinned->watermark(), 40);
    EXPECT_EQ(pinned->store().num_masks(), 40);
  }
  EXPECT_EQ(ingestor->epoch(), 4);
  EXPECT_EQ(ingestor->watermark(), 100);

  // The *current* snapshot does see the later masks.
  const FilterResult fresh =
      ingestor->snapshot()->session()->Filter(query).ValueOrDie();
  EXPECT_GE(fresh.mask_ids.size(), first.mask_ids.size());
}

TEST(IngestTest, SnapshotReleaseUnpinsPromptly) {
  TempDir dir("ingest_unpin");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  Rng rng(31);
  AppendMasks(ingestor.get(), &rng, 5, 0);
  MS_ASSERT_OK(ingestor->Publish());
  // Only the ingestor's own current snapshot is alive.
  EXPECT_EQ(ingestor->Stats().live_snapshots, 0);

  std::shared_ptr<const Snapshot> pinned = ingestor->snapshot();
  AppendMasks(ingestor.get(), &rng, 5, 10);
  MS_ASSERT_OK(ingestor->Publish());
  // The superseded epoch stays alive exactly because we hold it.
  EXPECT_EQ(ingestor->Stats().live_snapshots, 1);

  pinned.reset();
  // Dropping the last reference tears the snapshot down immediately — no
  // deferred reclamation, retention is bounded by in-flight work.
  EXPECT_EQ(ingestor->Stats().live_snapshots, 0);
}

TEST(IngestTest, AppendBlobRoundTripsRawBytes) {
  TempDir dir("ingest_blob");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  Rng rng(41);
  Mask mask = BlobMask(&rng, 16, 16);
  std::string blob(reinterpret_cast<const char*>(mask.data().data()),
                   mask.ByteSize());
  MaskMeta meta = MetaFor(0, 0);
  meta.width = 16;
  meta.height = 16;
  const MaskId id = ingestor->AppendBlob(meta, blob).ValueOrDie();
  MS_ASSERT_OK(ingestor->Publish());

  const Mask loaded =
      ingestor->snapshot()->store().LoadMask(id).ValueOrDie();
  ASSERT_EQ(loaded.data().size(), mask.data().size());
  EXPECT_EQ(std::memcmp(loaded.data().data(), mask.data().data(),
                        mask.ByteSize()),
            0);

  // Size mismatch against the declared geometry is rejected up front.
  MaskMeta bad = MetaFor(1, 0);
  bad.width = 8;
  bad.height = 8;
  EXPECT_FALSE(ingestor->AppendBlob(bad, blob).ok());
}

TEST(IngestTest, OpenResumesAtLastDurableEpoch) {
  TempDir dir("ingest_resume");
  Rng rng(53);
  {
    auto ingestor =
        Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
    AppendMasks(ingestor.get(), &rng, 12, 0);
    MS_ASSERT_OK(ingestor->Publish());
    AppendMasks(ingestor.get(), &rng, 12, 12);
    MS_ASSERT_OK(ingestor->Publish());
    EXPECT_EQ(ingestor->epoch(), 2);
  }
  auto reopened = Ingestor::Open(dir.path(), TestIngestOptions()).ValueOrDie();
  EXPECT_EQ(reopened->epoch(), 2);
  EXPECT_EQ(reopened->watermark(), 24);
  EXPECT_EQ(reopened->num_shards(), 3);
  EXPECT_EQ(reopened->snapshot()->store().num_masks(), 24);

  // Ingest continues where it left off.
  AppendMasks(reopened.get(), &rng, 6, 24);
  MS_ASSERT_OK(reopened->Publish());
  EXPECT_EQ(reopened->epoch(), 3);
  EXPECT_EQ(reopened->watermark(), 30);
}

TEST(IngestTest, OpenOrCreateResumesOrCreates) {
  TempDir dir("ingest_open_or_create");
  Rng rng(59);
  bool resumed = true;
  {
    auto created = Ingestor::OpenOrCreate(dir.path(), TestIngestOptions(),
                                          &resumed)
                       .ValueOrDie();
    EXPECT_FALSE(resumed);
    AppendMasks(created.get(), &rng, 9, 0);
    MS_ASSERT_OK(created->Publish());
  }
  auto reopened =
      Ingestor::OpenOrCreate(dir.path(), TestIngestOptions(), &resumed)
          .ValueOrDie();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(reopened->watermark(), 9);
}

// An unreadable generation sidecar is not "no store": the resume-or-create
// decision must fail typed instead of creating over (and truncating) the
// published shards.
TEST(IngestTest, CorruptGenerationSidecarIsNotRecreated) {
  TempDir dir("ingest_corrupt_sidecar");
  Rng rng(61);
  {
    auto ingestor =
        Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
    AppendMasks(ingestor.get(), &rng, 12, 0);
    MS_ASSERT_OK(ingestor->Publish());
  }
  const int32_t shards = TestIngestOptions().num_shards;
  std::vector<uint64_t> sizes;
  for (int32_t s = 0; s < shards; ++s) {
    sizes.push_back(
        FileSize(MaskStoreShardDataPath(dir.path(), s, shards)).ValueOrDie());
    EXPECT_GT(sizes.back(), 0u);
  }
  MS_ASSERT_OK(WriteFile(IngestGenerationPath(dir.path()), "garbage"));

  EXPECT_TRUE(Ingestor::StoreExists(dir.path()).status().IsCorruption());
  bool resumed = false;
  EXPECT_TRUE(Ingestor::OpenOrCreate(dir.path(), TestIngestOptions(), &resumed)
                  .status()
                  .IsCorruption());
  Catalog catalog;
  LiveDatasetConfig config;
  config.ingest = TestIngestOptions();
  EXPECT_TRUE(
      catalog.RegisterLive("live", dir.path(), config).status().IsCorruption());
  for (int32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(
        FileSize(MaskStoreShardDataPath(dir.path(), s, shards)).ValueOrDie(),
        sizes[s])
        << "shard " << s;
  }
}

TEST(IngestTest, ServiceResolvesEpochAtAdmission) {
  TempDir dir("ingest_service");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  Rng rng(61);
  AppendMasks(ingestor.get(), &rng, 20, 0);
  MS_ASSERT_OK(ingestor->Publish());

  QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.session_resolver = [ing = ingestor.get()]() -> SessionLease {
    std::shared_ptr<const Snapshot> snap = ing->snapshot();
    SessionLease lease;
    lease.session = snap->session();
    lease.epoch = snap->epoch();
    lease.pin = std::move(snap);
    return lease;
  };
  auto service = QueryService::Start(nullptr, opts).ValueOrDie();

  ServiceRequest req;
  req.query = QueryRequest::Filter(WholeRoiFilter());
  auto pending = service->Submit(req).ValueOrDie();
  EXPECT_EQ(pending->epoch(), 1);
  const QueryResponse r1 = pending->Wait().ValueOrDie();
  for (MaskId id : r1.filter.mask_ids) EXPECT_LT(id, 20);

  // Publish a new epoch: the next admission resolves it.
  AppendMasks(ingestor.get(), &rng, 20, 100);
  MS_ASSERT_OK(ingestor->Publish());
  auto pending2 = service->Submit(req).ValueOrDie();
  EXPECT_EQ(pending2->epoch(), 2);
  MS_ASSERT_OK(pending2->Wait().status());

  // Finished requests dropped their leases: nothing but the ingestor's
  // current snapshot is pinned once the handles go away.
  service->Drain();
  pending.reset();
  pending2.reset();
  EXPECT_EQ(ingestor->Stats().live_snapshots, 0);
  service->Shutdown();
}

TEST(IngestTest, CatalogRegisterLiveServesInserts) {
  TempDir dir("ingest_catalog");
  Catalog catalog;
  LiveDatasetConfig config;
  config.ingest = TestIngestOptions();
  config.service.num_workers = 2;
  Dataset* ds =
      catalog.RegisterLive("live", dir.file("live"), config).ValueOrDie();
  ASSERT_TRUE(ds->live());
  EXPECT_EQ(ds->epoch(), 0);

  Rng rng(71);
  for (int i = 0; i < 8; ++i) {
    MS_ASSERT_OK(ds->Ingest(MetaFor(i, 0), BlobMask(&rng, 32, 32)).status());
  }
  MS_ASSERT_OK(ds->Publish());
  EXPECT_EQ(ds->epoch(), 1);
  ASSERT_NE(ds->snapshot(), nullptr);
  EXPECT_EQ(ds->snapshot()->watermark(), 8);

  ServiceRequest req;
  req.query = QueryRequest::Filter(WholeRoiFilter());
  auto pending = ds->Submit(req).ValueOrDie();
  EXPECT_EQ(pending->epoch(), 1);
  MS_ASSERT_OK(pending->Wait().status());

  // A second registration resumes the same store.
  EXPECT_FALSE(catalog.RegisterLive("live", dir.file("live"), config).ok());
}

// Scalar aggregation on a snapshot session takes member bounds from the
// CHIs built at ingest time (the ingestor's CHI index), like every other
// executor: a HAVING clause the bounds refute prunes every group without
// loading a mask, and a splitting one answers like the reference.
TEST(IngestTest, ScalarAggregationPrunesWithIngestBuiltChis) {
  TempDir dir("ingest_agg");
  ThreadPool pool(2);
  IngestorOptions opts = TestIngestOptions();
  opts.session.pool = &pool;
  opts.session.io_pool = &pool;
  auto ingestor = Ingestor::Create(dir.path(), opts).ValueOrDie();
  Rng rng(29);
  for (int64_t i = 0; i < 60; ++i) {
    auto id = ingestor->Append(MetaFor(i / 2, static_cast<int32_t>(i % 2)),
                               BlobMask(&rng, 32, 32));
    ASSERT_TRUE(id.ok()) << id.status();
  }
  MS_ASSERT_OK(ingestor->Publish());
  const std::shared_ptr<const Snapshot> snap = ingestor->snapshot();
  FullScanBaseline reference(&snap->store());

  AggregationQuery q;
  q.term.roi_source = RoiSource::kConstant;
  q.term.constant_roi = ROI{0, 0, 32, 32};
  q.term.range = ValueRange{0.5, 1.0};
  q.op = ScalarAggOp::kSum;
  q.having_op = CompareOp::kGt;
  q.having_threshold = 1e9;  // above any SUM of two 32x32 counts
  const AggResult none = snap->session()->Aggregate(q).ValueOrDie();
  EXPECT_TRUE(none.groups.empty());
  EXPECT_EQ(none.stats.masks_targeted, 60);
  EXPECT_EQ(none.stats.masks_loaded, 0);
  EXPECT_EQ(none.stats.pruned, 30);

  AggregationQuery ranked = q;
  ranked.having_op.reset();
  ranked.k = 30;
  const AggResult all = reference.Aggregate(ranked).ValueOrDie();
  ASSERT_EQ(all.groups.size(), 30u);
  q.having_threshold = all.groups[15].value;
  const AggResult got = snap->session()->Aggregate(q).ValueOrDie();
  const AggResult want = reference.Aggregate(q).ValueOrDie();
  EXPECT_LT(got.stats.masks_loaded, 60);
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t i = 0; i < got.groups.size(); ++i) {
    EXPECT_EQ(got.groups[i].group, want.groups[i].group);
    if (!std::isnan(got.groups[i].value)) {
      EXPECT_EQ(got.groups[i].value, want.groups[i].value);
    }
  }

  const AggResult top = snap->session()->Aggregate(ranked).ValueOrDie();
  ASSERT_EQ(top.groups.size(), all.groups.size());
  for (size_t i = 0; i < top.groups.size(); ++i) {
    EXPECT_EQ(top.groups[i].group, all.groups[i].group);
    EXPECT_EQ(top.groups[i].value, all.groups[i].value);
  }
}

// A snapshot's one CHI source is the ingest CHI cache it was published
// with, so CHIs a query builds outlive its epoch: after a Delete + Publish
// the first query builds each visible mask's CHI once, and a later epoch
// reuses every one (no loads with the tight whole-ROI bounds). A snapshot
// pinned before the delete numbers masks the old way and reads the
// pre-delete cache, which holds every ingest-built CHI.
TEST(IngestTest, QueryBuiltChisOutliveEpochs) {
  const FilterQuery q = WholeRoiFilter();
  auto check = [&](const Snapshot& snap) {
    EXPECT_EQ(snap.session()->index(), nullptr);
    const FilterResult got = snap.session()->Filter(q).ValueOrDie();
    FullScanBaseline reference(&snap.store());
    EXPECT_EQ(got.mask_ids, reference.Filter(q).ValueOrDie().mask_ids);
    return got.stats;
  };
  TempDir dir("ingest_chi_epochs");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  Rng rng(41);
  AppendMasks(ingestor.get(), &rng, 40, 0);
  MS_ASSERT_OK(ingestor->Publish());
  const std::shared_ptr<const Snapshot> before = ingestor->snapshot();
  MS_ASSERT_OK(ingestor->Delete(3));
  MS_ASSERT_OK(ingestor->Publish());
  const std::shared_ptr<const Snapshot> first = ingestor->snapshot();

  // The pinned pre-delete snapshot first: its CHIs live in its own cache,
  // never in the one the renumbered epochs read.
  const ExecStats old = check(*before);
  EXPECT_EQ(old.masks_targeted, 40);
  EXPECT_EQ(old.chis_built, 0);
  EXPECT_EQ(check(*before).masks_loaded, 0);

  const ExecStats built = check(*first);
  EXPECT_EQ(built.masks_loaded, 39);
  EXPECT_EQ(built.chis_built, 39);

  MS_ASSERT_OK(ingestor->Publish());
  const std::shared_ptr<const Snapshot> later = ingestor->snapshot();
  EXPECT_EQ(later->session()->chis(), first->session()->chis());
  const ExecStats reused = check(*later);
  EXPECT_EQ(reused.masks_loaded, 0);
  EXPECT_EQ(reused.chis_built, 0);
}

// The blob cache lives for a generation: every snapshot of one generation
// caches blobs under one lease, keyed by physical id below the tombstone
// filter, so a Delete + Publish leaves every cached blob warm. A compaction
// swap starts a cold cache, and the old generation's bytes leave the pool
// when its last pinned snapshot drops.
TEST(IngestTest, BlobCacheLivesForAGeneration) {
  TempDir dir("ingest_blob_generation");
  auto ingestor = Ingestor::Create(dir.path(), TestIngestOptions()).ValueOrDie();
  BufferPool* pool = ingestor->cache();
  ASSERT_NE(pool, nullptr);
  Rng rng(43);
  const std::vector<Mask> masks = AppendMasks(ingestor.get(), &rng, 40, 0);
  MS_ASSERT_OK(ingestor->Publish());
  std::shared_ptr<const Snapshot> full = ingestor->snapshot();
  for (MaskId id = 0; id < 40; ++id) {
    EXPECT_EQ(full->store().LoadMask(id).ValueOrDie().data(),
              masks[id].data());
  }
  const CacheStats warm = pool->Stats();
  EXPECT_EQ(warm.resident_entries, 40u);

  MS_ASSERT_OK(ingestor->Delete(3));
  MS_ASSERT_OK(ingestor->Publish());
  std::shared_ptr<const Snapshot> deleted = ingestor->snapshot();
  ASSERT_EQ(deleted->store().num_masks(), 39);
  for (MaskId v = 0; v < 39; ++v) {
    EXPECT_EQ(deleted->store().LoadMask(v).ValueOrDie().data(),
              masks[v < 3 ? v : v + 1].data());
  }
  EXPECT_EQ(pool->Stats().misses, warm.misses);  // every survivor was warm
  EXPECT_EQ(pool->Stats().resident_entries, 40u);

  Compactor compactor(ingestor.get());
  MS_ASSERT_OK(compactor.Compact().status());
  ASSERT_EQ(ingestor->generation(), 1);
  std::shared_ptr<const Snapshot> compacted = ingestor->snapshot();
  const uint64_t misses = pool->Stats().misses;
  EXPECT_EQ(compacted->store().LoadMask(3).ValueOrDie().data(),
            masks[4].data());
  EXPECT_EQ(pool->Stats().misses, misses + 1);  // a cold generation
  EXPECT_EQ(pool->Stats().resident_entries, 41u);

  full.reset();
  EXPECT_EQ(pool->Stats().resident_entries, 41u);  // `deleted` pins gen 0
  deleted.reset();
  const CacheStats after = pool->Stats();
  EXPECT_EQ(after.resident_entries, 1u);  // gen 0's owner holds no bytes
  EXPECT_EQ(after.resident_bytes,
            masks[4].ByteSize() + kCacheEntryOverheadBytes);
}

TEST(IngestTest, IngestOnFixedDatasetIsTyped) {
  TempDir dir("ingest_fixed");
  testing_util::MakeStore(dir.path(), 4, 1, 32, 32);
  Catalog catalog;
  DatasetConfig config;
  config.session.chi = TestConfig();
  config.service.num_workers = 1;
  Dataset* ds = catalog.Register("fixed", dir.path(), config).ValueOrDie();
  EXPECT_FALSE(ds->live());
  Rng rng(83);
  const auto status =
      ds->Ingest(MetaFor(0, 0), BlobMask(&rng, 32, 32)).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ds->Publish().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace masksearch
