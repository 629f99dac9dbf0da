// Cross-layer observability integration tests (docs/OBSERVABILITY.md):
// trace-id propagation over real sockets into the server's slow-query log,
// span accounting (queue + exec partition the request's life), metrics
// exposure over the wire, scrape parity (every layer's series family is
// exposed; destroyed components keep their counts), and the record ->
// replay round trip reproducing a live session's request count and
// per-class mix exactly.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "masksearch/catalog/catalog.h"
#include "masksearch/catalog/prepared.h"
#include "masksearch/catalog/trace_replay.h"
#include "masksearch/net/client.h"
#include "masksearch/net/server.h"
#include "masksearch/obs/metrics.h"
#include "masksearch/obs/recorder.h"
#include "masksearch/obs/slow_query_log.h"
#include "masksearch/replica/replica_group.h"
#include "masksearch/replica/router.h"
#include "masksearch/sql/binder.h"
#include "tests/test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

constexpr char kFilterSql[] =
    "SELECT mask_id FROM MasksDatabaseView "
    "WHERE CP(mask, object, (0.6, 1.0)) > 40;";
constexpr char kParamSql[] =
    "SELECT mask_id FROM MasksDatabaseView "
    "WHERE CP(mask, object, (?, 1.0)) > ?;";

// Serves one catalog dataset over loopback TCP with a threshold-0
// slow-query log (every request kept) and a trace recorder attached.
class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("trace_replay");
    { auto s = MakeStore(dir_->path(), 16, 2, 32, 32); }
    DatasetConfig config;
    // A small buffer pool puts the CachedMaskStore decorator in the read
    // path, so the scrape test sees the cache layer's counters too.
    BufferPool::Options pool;
    pool.budget_bytes = 4u << 20;
    config.store.cache = std::make_shared<BufferPool>(pool);
    config.session.chi.cell_width = config.session.chi.cell_height = 8;
    config.session.chi.num_bins = 8;
    config.service.num_workers = 2;
    slow_log_ = std::make_unique<obs::SlowQueryLog>([] {
      obs::SlowQueryLog::Options o;
      o.threshold_seconds = 0;  // keep everything
      o.capacity = 256;
      return o;
    }());
    config.service.slow_query_log = slow_log_.get();
    dataset_ = catalog_.Register("main", dir_->path(), config).ValueOrDie();

    recorder_ =
        obs::TraceRecorder::Open(dir_->file("session.trace")).ValueOrDie();
    net::NetServerOptions opts;
    opts.slow_log = slow_log_.get();
    opts.recorder = recorder_.get();
    server_ = net::NetServer::Start(&catalog_, opts).ValueOrDie();
  }

  void TearDown() override {
    server_->Stop();
    catalog_.ShutdownAll();
  }

  std::unique_ptr<net::NetClient> Connect() {
    net::NetClientOptions opts;
    opts.recv_timeout_seconds = 10;
    return net::NetClient::Connect("127.0.0.1", server_->port(), opts)
        .ValueOrDie();
  }

  std::unique_ptr<TempDir> dir_;
  Catalog catalog_;
  Dataset* dataset_ = nullptr;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
  std::unique_ptr<net::NetServer> server_;
};

TEST_F(TraceReplayTest, ClientTraceIdReachesServerSlowLog) {
  auto client = Connect();
  const uint64_t trace_id = 0xFEEDFACE;
  MS_ASSERT_OK(client
                   ->Query("main", kFilterSql, /*tenant=*/5,
                           PriorityClass::kInteractive,
                           /*deadline_seconds=*/0, trace_id)
                   .status());

  // The client-minted id is visible verbatim server-side, attached to the
  // request's span breakdown.
  const auto entries = slow_log_->Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, trace_id);
  EXPECT_EQ(entries[0].tenant, 5);
  EXPECT_EQ(entries[0].priority_class, "interactive");
  EXPECT_EQ(entries[0].status, "OK");

  // And the wire TRACE command renders the same log to the client.
  const std::string rendered = client->SlowQueries().ValueOrDie();
  EXPECT_NE(rendered.find("trace=4277009102"), std::string::npos)
      << rendered;
}

TEST_F(TraceReplayTest, SpansPartitionRequestLatency) {
  auto client = Connect();
  for (int i = 0; i < 8; ++i) {
    MS_ASSERT_OK(client->Query("main", kFilterSql).status());
  }
  const auto entries = slow_log_->Entries();
  ASSERT_EQ(entries.size(), 8u);
  for (const auto& e : entries) {
    // queue_wait + exec partition the request's life inside the service:
    // together they must account for (almost) all of the total latency.
    // The slack covers the handoff gaps between span boundaries.
    EXPECT_GT(e.total_seconds, 0.0);
    const double accounted = e.queue_seconds + e.exec_seconds;
    EXPECT_LE(accounted, e.total_seconds * 1.001 + 1e-6);
    EXPECT_GE(accounted, e.total_seconds * 0.5);
    // The executor's own spans never exceed the exec envelope they nest in.
    double exec_spans = 0;
    for (const auto& s : e.spans) {
      if (s.name != std::string("queue_wait") &&
          s.name != std::string("exec")) {
        exec_spans += s.total_seconds;
      }
    }
    EXPECT_LE(exec_spans, e.total_seconds * 2 + 1e-6);
  }
}

TEST_F(TraceReplayTest, MetricsScrapeOverWire) {
  auto client = Connect();
  for (int i = 0; i < 4; ++i) {
    MS_ASSERT_OK(client->Query("main", kFilterSql).status());
  }
  // Guarantee at least one physical mask read through the cached store, so
  // the scrape demonstrably covers the storage and cache layers, not just
  // the service counters.
  MS_ASSERT_OK(dataset_->store().LoadMask(0).status());

  const std::string text = client->Metrics().ValueOrDie();
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("ms_service_"), std::string::npos);
  EXPECT_NE(text.find("ms_net_requests_total"), std::string::npos);
  EXPECT_NE(text.find("ms_storage_read_ops_total"), std::string::npos);
  EXPECT_NE(text.find("ms_cache_mask_"), std::string::npos);
  EXPECT_NE(text.find("ms_cache_buffer_pool_hit_ratio"), std::string::npos);

  const std::string json = client->Metrics(/*json=*/true).ValueOrDie();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"ms_service_"), std::string::npos);
}

TEST_F(TraceReplayTest, RecordReplayRoundTripPreservesCountAndMix) {
  // Drive a deterministic session: 12 one-shot queries round-robined over
  // the three priority classes, plus a prepared statement executed 3 times
  // (recorded with its bound params).
  auto client = Connect();
  std::array<uint64_t, kNumPriorityClasses> sent_by_class{};
  for (int i = 0; i < 12; ++i) {
    const auto priority = static_cast<PriorityClass>(i % kNumPriorityClasses);
    ++sent_by_class[static_cast<size_t>(priority)];
    MS_ASSERT_OK(
        client->Query("main", kFilterSql, /*tenant=*/i % 3, priority)
            .status());
  }
  auto handle = client->Prepare("main", kParamSql).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    ++sent_by_class[static_cast<size_t>(PriorityClass::kBatch)];
    MS_ASSERT_OK(client
                     ->Execute(handle.stmt_id, {0.5 + 0.1 * i, 40.0},
                               /*tenant=*/0, PriorityClass::kBatch)
                     .status());
  }
  client.reset();
  recorder_->Flush();
  EXPECT_EQ(recorder_->recorded(), 15u);

  auto loaded = obs::LoadTrace(recorder_->path()).ValueOrDie();
  ASSERT_EQ(loaded.size(), 15u);

  // Replay in both loop modes; each must reproduce the recorded request
  // count and per-class mix exactly.
  for (const bool open_loop : {false, true}) {
    ReplayOptions ropts;
    ropts.open_loop = open_loop;
    ropts.closed_loop_clients = 3;
    ropts.speed = 1000;  // collapse recorded think time in the open loop
    const ReplayStats stats =
        ReplayTrace(&catalog_, loaded, ropts).ValueOrDie();
    EXPECT_EQ(stats.submitted, 15u) << "open_loop=" << open_loop;
    EXPECT_EQ(stats.completed, 15u) << "open_loop=" << open_loop;
    EXPECT_EQ(stats.failed, 0u) << "open_loop=" << open_loop;
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      EXPECT_EQ(stats.by_class[c], sent_by_class[c])
          << "open_loop=" << open_loop << " class=" << c;
    }
  }
}

TEST_F(TraceReplayTest, ReplayRejectsEmptyTraceAndUnknownDataset) {
  EXPECT_TRUE(ReplayTrace(&catalog_, {}, ReplayOptions{})
                  .status()
                  .IsInvalidArgument());
  obs::RecordedRequest r;
  r.dataset = "nope";
  r.sql = kFilterSql;
  EXPECT_TRUE(ReplayTrace(&catalog_, {r}, ReplayOptions{})
                  .status()
                  .IsNotFound());
}

TEST_F(TraceReplayTest, ReplayCountsUnparseableLinesAsFailed) {
  obs::RecordedRequest good;
  good.dataset = "main";
  good.sql = kFilterSql;
  obs::RecordedRequest bad = good;
  bad.sql = "SELECT THIS IS NOT SQL";
  ReplayOptions ropts;
  ropts.open_loop = false;
  const ReplayStats stats =
      ReplayTrace(&catalog_, {good, bad}, ropts).ValueOrDie();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_NE(stats.first_error.find(bad.sql), std::string::npos)
      << stats.first_error;
}

// A script line (no dataset=, no tenant=) replays into the target dataset;
// in the closed loop its tenant is the index of the client that issued it,
// while recorded tenants pass through unchanged.
TEST_F(TraceReplayTest, ClosedLoopBillsUnsetTenantsToClientIndex) {
  constexpr int kClients = 3;
  std::mutex mu;
  std::condition_variable cv;
  std::map<uint64_t, TenantId> tenant_of;  // trace id -> tenant submitted
  dataset_->set_submitter(
      [&](ServiceRequest request, const std::string&)
          -> Result<std::shared_ptr<PendingQuery>> {
        {
          // Hold the first kClients submissions until all have arrived, so
          // each client thread has taken exactly one of them.
          std::unique_lock<std::mutex> lock(mu);
          tenant_of[request.trace_id] = request.tenant;
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(10),
                      [&] { return tenant_of.size() >= kClients; });
        }
        return dataset_->service()->Submit(std::move(request));
      });

  std::vector<obs::RecordedRequest> script;
  for (uint64_t i = 1; i <= 8; ++i) {
    obs::RecordedRequest r;
    r.sql = kFilterSql;
    r.trace_id = i;                   // identifies the line in the hook
    if (i == 5) r.tenant = 7;         // recorded tenants pass through
    if (i == 7) r.tenant = 0;
    script.push_back(r);
  }
  ReplayOptions ropts;
  ropts.open_loop = false;
  ropts.closed_loop_clients = kClients;
  ropts.dataset_override = "main";
  const ReplayStats stats = ReplayTrace(&catalog_, script, ropts).ValueOrDie();
  dataset_->set_submitter({});
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);

  ASSERT_EQ(tenant_of.size(), 8u);
  std::set<TenantId> first_three;
  for (uint64_t i = 1; i <= 3; ++i) first_three.insert(tenant_of[i]);
  EXPECT_EQ(first_three, (std::set<TenantId>{0, 1, 2}));
  for (uint64_t i : {4, 6, 8}) {
    EXPECT_GE(tenant_of[i], 0) << "line " << i;
    EXPECT_LT(tenant_of[i], kClients) << "line " << i;
  }
  EXPECT_EQ(tenant_of[5], 7);
  EXPECT_EQ(tenant_of[7], 0);

  // Without a target dataset a line that names none cannot be placed.
  ropts.dataset_override.clear();
  EXPECT_TRUE(
      ReplayTrace(&catalog_, script, ropts).status().IsInvalidArgument());
}

// The open loop has no client index: an unset tenant is billed to tenant 0.
TEST_F(TraceReplayTest, OpenLoopBillsUnsetTenantsToZero) {
  std::mutex mu;
  std::vector<TenantId> tenants;
  dataset_->set_submitter(
      [&](ServiceRequest request, const std::string&)
          -> Result<std::shared_ptr<PendingQuery>> {
        {
          std::lock_guard<std::mutex> lock(mu);
          tenants.push_back(request.tenant);
        }
        return dataset_->service()->Submit(std::move(request));
      });
  obs::RecordedRequest r;
  r.sql = kFilterSql;
  ReplayOptions ropts;
  ropts.dataset_override = "main";
  const ReplayStats stats =
      ReplayTrace(&catalog_, {r, r, r}, ropts).ValueOrDie();
  dataset_->set_submitter({});
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(tenants, (std::vector<TenantId>{0, 0, 0}));
}

// Outcomes are classed the way a serving replay reports them: a shed
// (kUnavailable) submission is expected service behaviour, a line whose SQL
// does not bind is a hard error, and `failed` is the sum of the classes.
TEST_F(TraceReplayTest, ReplayClassesShedApartFromErrors) {
  dataset_->set_submitter(
      [&](ServiceRequest request, const std::string&)
          -> Result<std::shared_ptr<PendingQuery>> {
        if (request.trace_id == 2) return Status::Unavailable("test shed");
        return dataset_->service()->Submit(std::move(request));
      });
  std::vector<obs::RecordedRequest> script(4);
  for (size_t i = 0; i < script.size(); ++i) {
    script[i].dataset = "main";
    script[i].sql = kFilterSql;
    script[i].trace_id = i + 1;
  }
  script[3].sql = "SELECT THIS IS NOT SQL";
  for (const bool open_loop : {false, true}) {
    ReplayOptions ropts;
    ropts.open_loop = open_loop;
    const ReplayStats stats =
        ReplayTrace(&catalog_, script, ropts).ValueOrDie();
    EXPECT_EQ(stats.submitted, 3u) << "open_loop=" << open_loop;
    EXPECT_EQ(stats.completed, 2u) << "open_loop=" << open_loop;
    EXPECT_EQ(stats.shed, 1u) << "open_loop=" << open_loop;
    EXPECT_EQ(stats.errors, 1u) << "open_loop=" << open_loop;
    EXPECT_EQ(stats.deadline_expired + stats.cancelled, 0u);
    EXPECT_EQ(stats.failed, stats.shed + stats.deadline_expired +
                                stats.cancelled + stats.errors);
  }
  dataset_->set_submitter({});
}

// --- scrape parity ---------------------------------------------------------
// Components keep their own stats and the registry reads them at scrape
// time (docs/OBSERVABILITY.md). These pin the exposed series set and the
// process-lifetime totals across component teardown.

/// Value of sample `name` in the default registry (0 when absent).
double ScrapeValue(const std::string& name) {
  for (const auto& s : obs::MetricsRegistry::Default().Samples()) {
    if (s.name == name) return s.value;
  }
  return 0;
}

RoutedRequest RoutedFilter(const std::string& sql) {
  RoutedRequest routed;
  routed.sqltext = sql;
  routed.service.query = RequestFromBound(sql::ParseAndBind(sql).ValueOrDie());
  return routed;
}

TEST_F(TraceReplayTest, ScrapeExposesEverySeriesFamily) {
  // Net + service + storage + cache: wire queries against the cached
  // dataset, plus one direct load so the storage layer is read for sure.
  auto client = Connect();
  for (int i = 0; i < 3; ++i) {
    MS_ASSERT_OK(client->Query("main", kFilterSql).status());
  }
  MS_ASSERT_OK(dataset_->store().LoadMask(1).status());

  // Ingest + maintain + live epoch: a live dataset with a delete and a
  // compaction.
  LiveDatasetConfig live_config;
  live_config.ingest.chi.cell_width = live_config.ingest.chi.cell_height = 8;
  live_config.ingest.chi.num_bins = 8;
  live_config.ingest.cache_budget_bytes = 4u << 20;
  live_config.service.num_workers = 1;
  Dataset* live =
      catalog_.RegisterLive("live", dir_->file("live"), live_config)
          .ValueOrDie();
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    MaskMeta meta;
    meta.image_id = i;
    MS_ASSERT_OK(
        live->Ingest(meta, testing_util::BlobMask(&rng, 16, 16)).status());
  }
  MS_ASSERT_OK(live->Publish());
  MS_ASSERT_OK(live->Delete(0));
  MS_ASSERT_OK(live->Publish());
  MS_ASSERT_OK(live->Compact());

  // Replica: one routed request through a one-replica group.
  ReplicaGroup group;
  ReplicaConfig replica_config;
  replica_config.service.num_workers = 1;
  MS_ASSERT_OK(group.AddInProcess("r", dir_->path(), replica_config, 1));
  Router router(&group);
  MS_ASSERT_OK(router.Execute(RoutedFilter(kFilterSql)).status());

  // Leading newline: every TYPE line, the first included, is "\n# TYPE".
  const std::string text =
      "\n" + obs::MetricsRegistry::Default().PrometheusText();
  const std::vector<std::pair<std::string, std::string>> families = {
      {"ms_storage_read_ops_total", "counter"},
      {"ms_storage_masks_loaded_total", "counter"},
      {"ms_storage_read_bytes_total", "counter"},
      {"ms_cache_mask_hits_total", "counter"},
      {"ms_cache_mask_misses_total", "counter"},
      {"ms_cache_buffer_pool_hit_ratio", "gauge"},
      {"ms_cache_buffer_pool_resident_bytes", "gauge"},
      {"ms_cache_chi_resident", "gauge"},
      {"ms_service_submitted_total", "counter"},
      {"ms_service_rejected_total", "counter"},
      {"ms_service_completed_total", "counter"},
      {"ms_service_deadline_missed_total", "counter"},
      {"ms_service_cancelled_total", "counter"},
      {"ms_service_failed_total", "counter"},
      {"ms_service_queue_wait_seconds", "summary"},
      {"ms_service_latency_seconds", "summary"},
      {"ms_replica_routed_total", "counter"},
      {"ms_replica_succeeded_total", "counter"},
      {"ms_replica_retries_total", "counter"},
      {"ms_replica_failovers_total", "counter"},
      {"ms_replica_shed_total", "counter"},
      {"ms_replica_faults_injected_total", "counter"},
      {"ms_replica_health_transitions_total", "counter"},
      {"ms_ingest_masks_appended_total", "counter"},
      {"ms_ingest_bytes_appended_total", "counter"},
      {"ms_ingest_epochs_published_total", "counter"},
      {"ms_ingest_visible_masks", "gauge"},
      {"ms_maintain_compactions_total", "counter"},
      {"ms_maintain_compactions_failed_total", "counter"},
      {"ms_maintain_bytes_copied_total", "counter"},
      {"ms_maintain_dead_bytes_reclaimed_total", "counter"},
      {"ms_maintain_swap_pause_seconds", "summary"},
      {"ms_net_requests_total", "counter"},
      {"ms_live_epoch", "gauge"},
  };
  ASSERT_EQ(families.size(), 34u);
  for (const auto& [name, type] : families) {
    EXPECT_NE(text.find("\n# TYPE " + name + " " + type + "\n"),
              std::string::npos)
        << name << " (" << type << ") missing from the scrape";
  }
  // Labelled families carry their labels.
  EXPECT_NE(text.find("ms_live_epoch{dataset=\"live\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ms_cache_buffer_pool_hit_ratio{dataset=\"main\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ms_cache_buffer_pool_hit_ratio{dataset=\"live\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ms_service_completed_total{class=\"normal\"}"),
            std::string::npos);

  router.Shutdown();
  group.StopAll();
}

TEST(ScrapeRetentionTest, DestroyedComponentsKeepTheirCounts) {
  TempDir dir("scrape_retention");
  { auto s = MakeStore(dir.path(), 8, 1, 16, 16); }

  // Two stores load masks; one is destroyed before the scrape. The series
  // still equals the sum of both stores' own counters.
  const double loaded_before = ScrapeValue("ms_storage_masks_loaded_total");
  auto a = MaskStore::Open(dir.path()).ValueOrDie();
  uint64_t b_loaded = 0;
  {
    auto b = MaskStore::Open(dir.path()).ValueOrDie();
    MS_ASSERT_OK(a->LoadMaskBatch({0, 1, 2}).status());
    MS_ASSERT_OK(b->LoadMask(3).status());
    MS_ASSERT_OK(b->LoadMaskBatch({4, 5, 5}).status());
    b_loaded = b->masks_loaded();
  }
  EXPECT_EQ(b_loaded, 4u);
  EXPECT_DOUBLE_EQ(
      ScrapeValue("ms_storage_masks_loaded_total") - loaded_before,
      static_cast<double>(a->masks_loaded() + b_loaded));

  // A service's completions survive the service.
  const std::string completed =
      "ms_service_completed_total" +
      obs::Label("class", PriorityClassToString(PriorityClass::kBatch));
  const double completed_before = ScrapeValue(completed);
  double completed_live = 0;
  {
    Catalog catalog;
    DatasetConfig config;
    config.session.chi.cell_width = config.session.chi.cell_height = 8;
    config.session.chi.num_bins = 8;
    config.service.num_workers = 1;
    Dataset* d = catalog.Register("retained", dir.path(), config).ValueOrDie();
    const auto bound = sql::ParseAndBind(kFilterSql).ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      ServiceRequest req;
      req.priority = PriorityClass::kBatch;
      req.query = RequestFromBound(bound);
      MS_ASSERT_OK(d->service()->Execute(std::move(req)).status());
    }
    completed_live = ScrapeValue(completed);
    EXPECT_DOUBLE_EQ(completed_live, completed_before + 3);
  }
  EXPECT_DOUBLE_EQ(ScrapeValue(completed), completed_live);
}

}  // namespace
}  // namespace masksearch
