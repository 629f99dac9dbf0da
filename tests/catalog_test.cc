// Catalog-layer tests: named datasets (duplicate names, escaped metric
// labels), the TTL'd metadata cache, and prepared statements
// (docs/NETWORK.md).

#include "masksearch/catalog/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "masksearch/catalog/metadata_cache.h"
#include "masksearch/catalog/prepared.h"
#include "masksearch/exec/session.h"
#include "masksearch/obs/metrics.h"
#include "masksearch/sql/binder.h"
#include "masksearch/sql/parser.h"
#include "tests/test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

SessionOptions SmallSession() {
  SessionOptions opts;
  opts.chi.cell_width = opts.chi.cell_height = 8;
  opts.chi.num_bins = 8;
  return opts;
}

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

TEST(PreparedStatementTest, BindMatchesLiteralSql) {
  TempDir dir("prepared");
  auto store = MakeStore(dir.path(), 24, 2, 32, 32);
  auto session = Session::Open(store.get(), SmallSession()).ValueOrDie();

  auto stmt = PreparedStatement::Prepare(
                  "SELECT mask_id FROM MasksDatabaseView "
                  "WHERE CP(mask, object, (?, 1.0)) > ?;")
                  .ValueOrDie();
  EXPECT_EQ(stmt->num_params(), 2);

  auto literal = sql::ParseAndBind(
                     "SELECT mask_id FROM MasksDatabaseView "
                     "WHERE CP(mask, object, (0.6, 1.0)) > 40;")
                     .ValueOrDie();
  auto bound = stmt->Bind({0.6, 40}).ValueOrDie();

  const auto expected = session->Filter(literal.filter).ValueOrDie();
  const auto got = session->Filter(bound.filter).ValueOrDie();
  EXPECT_EQ(expected.mask_ids, got.mask_ids);
  EXPECT_FALSE(got.mask_ids.empty() && expected.mask_ids.empty() &&
               store->num_masks() == 0);
}

TEST(PreparedStatementTest, RebindChangesTheAnswer) {
  TempDir dir("rebind");
  auto store = MakeStore(dir.path(), 24, 2, 32, 32);
  auto session = Session::Open(store.get(), SmallSession()).ValueOrDie();

  auto stmt = PreparedStatement::Prepare(
                  "SELECT mask_id FROM MasksDatabaseView "
                  "WHERE CP(mask, object, (?, 1.0)) > ?;")
                  .ValueOrDie();
  const auto loose =
      session->Filter(stmt->Bind({0.2, 1}).ValueOrDie().filter).ValueOrDie();
  const auto tight =
      session->Filter(stmt->Bind({0.95, 900}).ValueOrDie().filter)
          .ValueOrDie();
  // Same statement, different parameters: the selective binding returns a
  // subset of the loose one.
  EXPECT_LE(tight.mask_ids.size(), loose.mask_ids.size());
  for (MaskId id : tight.mask_ids) {
    EXPECT_NE(std::find(loose.mask_ids.begin(), loose.mask_ids.end(), id),
              loose.mask_ids.end());
  }
}

TEST(PreparedStatementTest, ParamCountMismatchIsTyped) {
  auto stmt = PreparedStatement::Prepare(
                  "SELECT mask_id FROM MasksDatabaseView "
                  "WHERE CP(mask, object, (?, 1.0)) > ?;")
                  .ValueOrDie();
  EXPECT_TRUE(stmt->Bind({0.5}).status().IsInvalidArgument());
  EXPECT_TRUE(stmt->Bind({0.5, 10, 3}).status().IsInvalidArgument());
  EXPECT_TRUE(stmt->Bind({}).status().IsInvalidArgument());
}

TEST(PreparedStatementTest, UnparameterizedBindWithoutValues) {
  auto stmt = PreparedStatement::Prepare(
                  "SELECT mask_id FROM MasksDatabaseView "
                  "WHERE CP(mask, object, (0.5, 1.0)) > 10;")
                  .ValueOrDie();
  EXPECT_EQ(stmt->num_params(), 0);
  MS_EXPECT_OK(stmt->Bind({}).status());
}

TEST(PreparedStatementTest, SyntaxErrorSurfacesAtPrepare) {
  EXPECT_TRUE(
      PreparedStatement::Prepare("SELECT FROM nothing").status()
          .IsInvalidArgument());
}

TEST(PreparedStatementTest, ParameterizedQueryRequiresValues) {
  // Binding a parameterized statement through the plain Bind(stmt) entry
  // point (no values) is a typed error, not a silent zero-fill.
  auto stmt = sql::ParseSelect(
                  "SELECT mask_id FROM MasksDatabaseView "
                  "WHERE CP(mask, object, (?, 1.0)) > 5;")
                  .ValueOrDie();
  EXPECT_TRUE(sql::Bind(stmt).status().IsInvalidArgument());
}

TEST(PreparedStatementTest, ParamsAnywhereConstantsFold) {
  // Parameters in CP ranges, thresholds, and top-k HAVING positions.
  auto stmt = PreparedStatement::Prepare(
                  "SELECT image_id, CP(mask, object, (?, ?)) AS v "
                  "FROM MasksDatabaseView ORDER BY v DESC LIMIT 5;")
                  .ValueOrDie();
  EXPECT_EQ(stmt->num_params(), 2);
  auto bound = stmt->Bind({0.25, 0.75}).ValueOrDie();
  EXPECT_EQ(bound.kind, sql::BoundQuery::Kind::kTopK);
}

// ---------------------------------------------------------------------------
// MetadataCache
// ---------------------------------------------------------------------------

Selection ModelSelection(ModelId model) {
  Selection sel;
  sel.model_ids = {model};
  return sel;
}

TEST(MetadataCacheTest, MemoizesMetadataConstrainedSelections) {
  TempDir dir("metacache");
  auto store = MakeStore(dir.path(), 16, 2, 16, 16);
  MetadataCache cache(store.get(), MetadataCacheOptions{});

  const uint64_t first = cache.EstimateSelectionBytes(ModelSelection(0));
  const uint64_t second = cache.EstimateSelectionBytes(ModelSelection(0));
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);

  const MetadataCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(MetadataCacheTest, UnconstrainedAndIdSelectionsBypassTheTable) {
  TempDir dir("metabypass");
  auto store = MakeStore(dir.path(), 8, 2, 16, 16);
  MetadataCache cache(store.get(), MetadataCacheOptions{});

  Selection all;  // unconstrained: whole store, O(1)
  EXPECT_EQ(cache.EstimateSelectionBytes(all), store->TotalDataBytes());

  Selection ids;
  ids.mask_ids = {0, 1, 2};
  EXPECT_GT(cache.EstimateSelectionBytes(ids), 0u);

  const MetadataCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(MetadataCacheTest, InvalidateExpiresEverything) {
  TempDir dir("metaepoch");
  auto store = MakeStore(dir.path(), 8, 2, 16, 16);
  MetadataCache cache(store.get(), MetadataCacheOptions{});

  (void)cache.EstimateSelectionBytes(ModelSelection(0));
  (void)cache.EstimateSelectionBytes(ModelSelection(1));
  EXPECT_EQ(cache.stats().misses, 2u);

  cache.Invalidate();
  (void)cache.EstimateSelectionBytes(ModelSelection(0));
  EXPECT_EQ(cache.stats().misses, 3u);  // epoch bump: re-walk
  (void)cache.EstimateSelectionBytes(ModelSelection(0));
  EXPECT_EQ(cache.stats().hits, 1u);  // fresh entry serves again
}

TEST(MetadataCacheTest, TtlExpiresEntries) {
  TempDir dir("metattl");
  auto store = MakeStore(dir.path(), 8, 2, 16, 16);
  MetadataCacheOptions opts;
  opts.ttl_seconds = 0.02;
  MetadataCache cache(store.get(), opts);

  (void)cache.EstimateSelectionBytes(ModelSelection(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  (void)cache.EstimateSelectionBytes(ModelSelection(0));
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(MetadataCacheTest, MatchesTheExactWalk) {
  TempDir dir("metaexact");
  auto store = MakeStore(dir.path(), 12, 2, 16, 16);
  MetadataCache cache(store.get(), MetadataCacheOptions{});

  uint64_t expected = 0;
  for (MaskId id = 0; id < store->num_masks(); ++id) {
    if (store->meta(id).model_id == 1) expected += store->BlobSize(id);
  }
  EXPECT_EQ(cache.EstimateSelectionBytes(ModelSelection(1)), expected);
  // The memoized read agrees with the walk it replaced.
  EXPECT_EQ(cache.EstimateSelectionBytes(ModelSelection(1)), expected);
}

TEST(MetadataCacheTest, BoundedTableResetsWhenFull) {
  TempDir dir("metabound");
  auto store = MakeStore(dir.path(), 4, 2, 16, 16);
  MetadataCacheOptions opts;
  opts.max_entries = 4;
  MetadataCache cache(store.get(), opts);

  for (ModelId m = 0; m < 8; ++m) {
    Selection sel;
    sel.model_ids = {m};
    sel.mask_types = {MaskType::kSaliencyMap};
    (void)cache.EstimateSelectionBytes(sel);
  }
  EXPECT_LE(cache.stats().entries, 4u);
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

DatasetConfig SmallConfig() {
  DatasetConfig config;
  config.session = SmallSession();
  config.service.num_workers = 2;
  return config;
}

TEST(CatalogTest, ServesMultipleNamedDatasets) {
  TempDir a("cat_a"), b("cat_b");
  { auto s = MakeStore(a.path(), 8, 1, 16, 16, /*seed=*/1); }
  { auto s = MakeStore(b.path(), 12, 1, 16, 16, /*seed=*/2); }

  Catalog catalog;
  Dataset* da = catalog.Register("alpha", a.path(), SmallConfig()).ValueOrDie();
  Dataset* db = catalog.Register("beta", b.path(), SmallConfig()).ValueOrDie();
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.Find("alpha"), da);
  EXPECT_EQ(catalog.Find("beta"), db);
  EXPECT_EQ(catalog.Find("gamma"), nullptr);
  EXPECT_EQ(da->store().num_masks(), 8);
  EXPECT_EQ(db->store().num_masks(), 12);

  const std::vector<std::string> names = catalog.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");

  // Each dataset serves queries through its own service.
  auto bound = sql::ParseAndBind(
                   "SELECT mask_id FROM MasksDatabaseView "
                   "WHERE CP(mask, object, (0.5, 1.0)) > 1;")
                   .ValueOrDie();
  ServiceRequest req;
  req.query = RequestFromBound(bound);
  MS_EXPECT_OK(da->service()->Execute(req).status());
  MS_EXPECT_OK(db->service()->Execute(std::move(req)).status());
  catalog.ShutdownAll();
}

TEST(CatalogTest, DuplicateNameIsAlreadyExists) {
  TempDir dir("cat_dup");
  { auto s = MakeStore(dir.path(), 4, 1, 16, 16); }
  Catalog catalog;
  MS_ASSERT_OK(catalog.Register("d", dir.path(), SmallConfig()).status());
  EXPECT_TRUE(catalog.Register("d", dir.path(), SmallConfig())
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(CatalogTest, DuplicateLiveNameFailsBeforeRecoveryTouchesTheStore) {
  TempDir dir("cat_live_dup");
  Catalog catalog;
  LiveDatasetConfig config;
  config.ingest.chi = SmallSession().chi;
  config.ingest.num_shards = 2;
  config.service.num_workers = 1;
  Dataset* ds = catalog.RegisterLive("x", dir.path(), config).ValueOrDie();

  // 64x64 float32 masks (16 KiB each) bypass the shard writers' stdio
  // buffers: the unpublished appends sit in the shard files past the
  // manifest — exactly the tail Ingestor::Open's recovery truncates.
  Rng rng(17);
  std::vector<Mask> masks;
  for (int i = 0; i < 6; ++i) {
    masks.push_back(testing_util::RandomMask(&rng, 64, 64));
    MaskMeta meta;
    meta.image_id = i;
    meta.mask_type = MaskType::kSaliencyMap;
    MS_ASSERT_OK(ds->Ingest(meta, masks.back()).status());
  }
  EXPECT_TRUE(catalog.RegisterLive("x", dir.path(), config)
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(catalog.size(), 1u);

  MS_ASSERT_OK(ds->Publish());
  std::shared_ptr<const Snapshot> snap = ds->snapshot();
  ASSERT_EQ(snap->watermark(), 6);
  for (int i = 0; i < 6; ++i) {
    Result<Mask> got = snap->store().LoadMask(i);
    MS_ASSERT_OK(got.status());
    ASSERT_EQ(got->data().size(), masks[i].data().size());
    EXPECT_EQ(std::memcmp(got->data().data(), masks[i].data().data(),
                          masks[i].ByteSize()),
              0)
        << "mask " << i << " changed on disk";
  }
  catalog.ShutdownAll();
}

/// Decodes the label value starting right after an opening quote at
/// `line[pos]` per the Prometheus text format; false when malformed.
bool ParseLabelValue(const std::string& line, size_t pos, std::string* value,
                     size_t* end) {
  value->clear();
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (c == '"') {
      *end = pos + 1;
      return true;
    }
    if (c != '\\') {
      *value += c;
      continue;
    }
    if (++pos == line.size()) return false;
    switch (line[pos]) {
      case '\\':
        *value += '\\';
        break;
      case '"':
        *value += '"';
        break;
      case 'n':
        *value += '\n';
        break;
      default:
        return false;
    }
  }
  return false;
}

TEST(CatalogTest, DatasetLabelIsEscapedInTheExposition) {
  TempDir dir("cat_label");
  { auto s = MakeStore(dir.path(), 4, 1, 16, 16); }
  const std::string name = "a\"b\\c\nd";
  Catalog catalog;
  MS_ASSERT_OK(catalog.Register(name, dir.path(), SmallConfig()).status());

  const std::string text = obs::MetricsRegistry::Default().PrometheusText();
  const std::string prefix = "ms_cache_chi_resident{dataset=\"";
  std::vector<std::string> decoded;
  size_t line_start = 0;
  while (line_start < text.size()) {
    size_t eol = text.find('\n', line_start);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(line_start, eol - line_start);
    line_start = eol + 1;
    if (line.rfind(prefix, 0) != 0) continue;
    std::string value;
    size_t end = 0;
    ASSERT_TRUE(ParseLabelValue(line, prefix.size(), &value, &end)) << line;
    ASSERT_EQ(line.substr(end, 2), "} ") << line;
    decoded.push_back(value);
  }
  EXPECT_NE(std::find(decoded.begin(), decoded.end(), name), decoded.end())
      << text;
  catalog.ShutdownAll();
}

// The CHI residency gauge reads the session's one CHI source: a bulk-built
// index holds every mask's CHI.
TEST(CatalogTest, ChiResidentGaugeCountsTheBulkBuiltIndex) {
  TempDir dir("cat_chi_gauge");
  { auto s = MakeStore(dir.path(), 6, 2, 16, 16); }
  Catalog catalog;
  Dataset* ds =
      catalog.Register("chi_gauge", dir.path(), SmallConfig()).ValueOrDie();
  double resident = -1;
  for (const auto& sample : obs::MetricsRegistry::Default().Samples()) {
    if (sample.name == "ms_cache_chi_resident{dataset=\"chi_gauge\"}") {
      resident = sample.value;
    }
  }
  EXPECT_EQ(resident, static_cast<double>(ds->store().num_masks()));
  catalog.ShutdownAll();
}

TEST(CatalogTest, OpenFailureRegistersNothing) {
  Catalog catalog;
  EXPECT_FALSE(
      catalog.Register("ghost", "/nonexistent/path", SmallConfig()).ok());
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Find("ghost"), nullptr);
}

TEST(CatalogTest, InstallsMetadataCacheAsCostEstimator) {
  TempDir dir("cat_cost");
  { auto s = MakeStore(dir.path(), 16, 2, 16, 16); }
  Catalog catalog;
  Dataset* d = catalog.Register("d", dir.path(), SmallConfig()).ValueOrDie();

  // Repeated submissions of a metadata-constrained selection pay the
  // O(catalog) walk once; admission afterwards hits the memo.
  auto bound = sql::ParseAndBind(
                   "SELECT mask_id FROM MasksDatabaseView "
                   "WHERE model_id = 1 AND CP(mask, object, (0.5, 1.0)) > 1;")
                   .ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    ServiceRequest req;
    req.query = RequestFromBound(bound);
    MS_ASSERT_OK(d->service()->Execute(std::move(req)).status());
  }
  const MetadataCache::CacheStats stats = d->metadata()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 4u);
  catalog.ShutdownAll();
}

TEST(CatalogTest, SubmitDefaultsToOwnServiceAndHonorsSubmitter) {
  TempDir dir("cat_submit");
  { auto s = MakeStore(dir.path(), 8, 1, 16, 16); }
  Catalog catalog;
  Dataset* d = catalog.Register("d", dir.path(), SmallConfig()).ValueOrDie();

  const std::string sql =
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, object, (0.5, 1.0)) > 1;";
  auto bound = sql::ParseAndBind(sql).ValueOrDie();

  // Without a submitter installed, Submit is the dataset's own service.
  ServiceRequest req;
  req.query = RequestFromBound(bound);
  auto pending = d->Submit(std::move(req), sql).ValueOrDie();
  MS_EXPECT_OK(pending->Wait().status());

  // With one installed (the replication seam, docs/REPLICATION.md), every
  // Submit — and the sqltext that keeps routing cache-affine — goes
  // through it instead.
  int calls = 0;
  std::string seen_sql;
  d->set_submitter([&](ServiceRequest r, const std::string& text)
                       -> Result<std::shared_ptr<PendingQuery>> {
    ++calls;
    seen_sql = text;
    return d->service()->Submit(std::move(r));
  });
  ServiceRequest req2;
  req2.query = RequestFromBound(bound);
  auto routed = d->Submit(std::move(req2), sql).ValueOrDie();
  MS_EXPECT_OK(routed->Wait().status());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_sql, sql);
  catalog.ShutdownAll();
}

}  // namespace
}  // namespace masksearch
