// Failure-injection tests: corrupted or truncated on-disk state must surface
// as clean Status errors from every layer — never crashes, never silently
// wrong results. Also exercises concurrent query execution on one session,
// network-layer failures (server gone mid-request → typed error within the
// timeout, never a hang), and router-level replica kills under load
// (docs/REPLICATION.md).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "masksearch/catalog/catalog.h"
#include "masksearch/catalog/prepared.h"
#include "masksearch/exec/session.h"
#include "masksearch/net/client.h"
#include "masksearch/net/server.h"
#include "masksearch/replica/fault_injector.h"
#include "masksearch/replica/replica_group.h"
#include "masksearch/replica/router.h"
#include "masksearch/sql/binder.h"
#include "masksearch/workload/query_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

FilterQuery EverythingQuery() {
  FilterQuery q;
  CpTerm term;
  term.roi_source = RoiSource::kFullMask;
  term.range = ValueRange(0.0, 1.0);
  q.terms.push_back(term);
  // Forces verification of every mask: the threshold sits inside (0, area).
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 1.0);
  return q;
}

TEST(FailureInjectionTest, TruncatedDataFileFailsLoads) {
  TempDir dir("fail");
  auto store = MakeStore(dir.path(), 6, 1, 16, 16);
  store.reset();
  // Truncate the data file to half a mask.
  std::filesystem::resize_file(MaskStoreDataPath(dir.path()), 100);
  auto reopened = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_TRUE(reopened->LoadMask(0).status().IsIOError());
  EXPECT_TRUE(reopened->LoadMask(5).status().IsIOError());
}

TEST(FailureInjectionTest, TruncatedDataFilePropagatesThroughExecutor) {
  TempDir dir("fail");
  auto store = MakeStore(dir.path(), 6, 1, 16, 16);
  store.reset();
  std::filesystem::resize_file(MaskStoreDataPath(dir.path()), 100);
  auto reopened = MaskStore::Open(dir.path()).ValueOrDie();
  // No index: the executor must load masks and must report the I/O failure.
  auto r = ExecuteFilter(*reopened, nullptr, EverythingQuery());
  EXPECT_TRUE(r.status().IsIOError()) << r.status();
}

TEST(FailureInjectionTest, CorruptChiFileRejectedAtSessionOpen) {
  TempDir dir("fail");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  const std::string index_path = dir.file("bad.chi");
  MS_ASSERT_OK(WriteFile(index_path, "definitely not a chi set"));
  SessionOptions opts;
  opts.chi.cell_width = opts.chi.cell_height = 8;
  opts.chi.num_bins = 4;
  opts.index_path = index_path;
  EXPECT_FALSE(Session::Open(store.get(), opts).ok());
}

TEST(FailureInjectionTest, TruncatedChiFileRejected) {
  TempDir dir("fail");
  auto store = MakeStore(dir.path(), 4, 1, 16, 16);
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 8;
  cfg.num_bins = 4;
  IndexManager mgr(4, cfg);
  MS_ASSERT_OK(mgr.BuildAll(*store));
  const std::string path = dir.file("t.chi");
  MS_ASSERT_OK(mgr.SaveToFile(path));
  auto bytes = ReadFile(path).ValueOrDie();
  MS_ASSERT_OK(WriteFile(path, bytes.substr(0, bytes.size() * 2 / 3)));
  IndexManager restored(4, cfg);
  EXPECT_FALSE(restored.LoadFromFile(path).ok());
}

TEST(FailureInjectionTest, MissingDataFile) {
  TempDir dir("fail");
  auto store = MakeStore(dir.path(), 3, 1, 16, 16);
  store.reset();
  MS_ASSERT_OK(RemoveFileIfExists(MaskStoreDataPath(dir.path())));
  EXPECT_FALSE(MaskStore::Open(dir.path()).ok());
}

TEST(FailureInjectionTest, ManifestDataDisagreementDetectedOnLoad) {
  // A manifest pointing past the end of the data file is caught per load.
  TempDir dir("fail");
  auto store = MakeStore(dir.path(), 3, 1, 16, 16);
  store.reset();
  const std::string data_path = MaskStoreDataPath(dir.path());
  const auto size = ReadFile(data_path).ValueOrDie().size();
  std::filesystem::resize_file(data_path, size - 64);
  auto reopened = MaskStore::Open(dir.path()).ValueOrDie();
  EXPECT_TRUE(reopened->LoadMask(0).ok());   // early masks intact
  EXPECT_FALSE(reopened->LoadMask(2).ok());  // last mask truncated
}

TEST(ConcurrencyTest, ParallelQueriesOnOneSessionAgree) {
  TempDir dir("conc");
  auto store = MakeStore(dir.path(), 20, 2, 32, 32, /*seed=*/5);
  SessionOptions opts;
  opts.chi.cell_width = opts.chi.cell_height = 8;
  opts.chi.num_bins = 8;
  auto session = Session::Open(store.get(), opts).ValueOrDie();

  // Sequential ground truth.
  std::vector<FilterQuery> queries;
  Rng rng(33);
  for (int i = 0; i < 8; ++i) queries.push_back(GenerateFilterQuery(&rng, *store));
  std::vector<std::vector<MaskId>> expected;
  for (const auto& q : queries) expected.push_back(session->Filter(q)->mask_ids);

  // The same queries issued concurrently from multiple threads.
  std::vector<std::vector<MaskId>> got(queries.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += 4) {
        got[i] = session->Filter(queries[i])->mask_ids;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
}

TEST(ConcurrencyTest, IncrementalIndexingUnderConcurrentQueries) {
  // MS-II builds CHIs from concurrent query threads; first-put-wins keeps
  // the index consistent and every query exact.
  TempDir dir("conc");
  auto store = MakeStore(dir.path(), 16, 2, 32, 32, /*seed=*/6);
  SessionOptions opts;
  opts.chi.cell_width = opts.chi.cell_height = 8;
  opts.chi.num_bins = 8;
  opts.incremental = true;
  auto session = Session::Open(store.get(), opts).ValueOrDie();

  FilterQuery q = EverythingQuery();
  std::vector<std::thread> threads;
  std::vector<std::vector<MaskId>> results(4);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = session->Filter(q)->mask_ids; });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 1; t < 4; ++t) EXPECT_EQ(results[t], results[0]);
  EXPECT_EQ(static_cast<int64_t>(session->index()->num_built()),
            store->num_masks());
}

// ---------------------------------------------------------------------------
// Network-layer failures (docs/NETWORK.md, docs/REPLICATION.md)
// ---------------------------------------------------------------------------

constexpr char kNetFilterSql[] =
    "SELECT mask_id FROM MasksDatabaseView "
    "WHERE CP(mask, object, (0.6, 1.0)) > 40;";

TEST(NetworkFailureTest, ServerGoneMidStreamYieldsTypedErrorsNotHangs) {
  TempDir dir("netfail");
  MakeStore(dir.path() + "/store", 8, 1, 16, 16).reset();
  Catalog catalog;
  DatasetConfig config;
  config.service.num_workers = 2;
  ASSERT_TRUE(catalog.Register("main", dir.path() + "/store", config).ok());
  auto server = net::NetServer::Start(&catalog, {}).ValueOrDie();

  net::NetClientOptions copts;
  copts.recv_timeout_seconds = 2;  // the no-hang bound
  auto client =
      net::NetClient::Connect("127.0.0.1", server->port(), copts).ValueOrDie();
  MS_ASSERT_OK(client->Ping());

  // Clients hammering the server while it is stopped mid-stream: every
  // outcome is either a correct response or a typed error, returned within
  // the receive timeout — no hangs, no garbage.
  const auto expected =
      catalog.Find("main")
          ->session()
          ->Filter(sql::ParseAndBind(kNetFilterSql).ValueOrDie().filter)
          .ValueOrDie();
  std::atomic<int> wrong{0};
  std::atomic<int> untyped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      net::NetClientOptions o;
      o.recv_timeout_seconds = 2;
      auto c = net::NetClient::Connect("127.0.0.1", server->port(), o);
      if (!c.ok()) return;
      for (int i = 0; i < 40; ++i) {
        auto resp = (*c)->Query("main", kNetFilterSql);
        if (!resp.ok()) {
          // Typed transport/service error; anything else is a bug.
          if (!resp.status().IsUnavailable() && !resp.status().IsIOError() &&
              !resp.status().IsCancelled()) {
            ++untyped;
          }
          return;  // connection is gone; this client is done
        }
        if (resp->result.mask_ids.size() != expected.mask_ids.size()) ++wrong;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Stop();
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(untyped.load(), 0);

  // And a fresh request against the stopped server fails typed, fast.
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = client->Query("main", kNetFilterSql).status();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable() || st.IsIOError()) << st.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(NetworkFailureTest, ClientReconnectsToRestartedServerWithinBudget) {
  TempDir dir("netfail");
  MakeStore(dir.path() + "/store", 8, 1, 16, 16).reset();
  Catalog catalog;
  DatasetConfig config;
  config.service.num_workers = 2;
  ASSERT_TRUE(catalog.Register("main", dir.path() + "/store", config).ok());
  auto server = net::NetServer::Start(&catalog, {}).ValueOrDie();
  const uint16_t port = server->port();

  net::NetClientOptions copts;
  copts.recv_timeout_seconds = 5;
  copts.max_retries = 4;
  copts.retry_backoff_seconds = 0.02;
  auto client = net::NetClient::Connect("127.0.0.1", port, copts).ValueOrDie();
  auto first = client->Query("main", kNetFilterSql).ValueOrDie();

  // Bounce the server on the same port; the client's bounded reconnect
  // path must pick up the new instance transparently.
  server->Stop();
  net::NetServerOptions sopts;
  sopts.port = port;
  auto server2 = net::NetServer::Start(&catalog, sopts).ValueOrDie();

  auto second = client->Query("main", kNetFilterSql).ValueOrDie();
  EXPECT_EQ(second.result.mask_ids, first.result.mask_ids);
  const auto rs = client->retry_stats();
  EXPECT_GE(rs.retries, 1u);
  EXPECT_GE(rs.reconnects, 1u);

  // With the server gone for good, the budget bounds the failure: typed
  // error after at most 1 + max_retries attempts, never an infinite loop.
  server2->Stop();
  const Status st = client->Query("main", kNetFilterSql).status();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable() || st.IsIOError()) << st.ToString();
}

// Router-level fault injection under concurrent load: a replica killed by
// script mid-run. Survivors must return byte-identical results, the typed
// error count stays within the failover budget (zero — retries absorb the
// kill), and the router returns to full throughput.
TEST(RouterFailureTest, ScriptedKillMidLoadStaysWithinErrorBudget) {
  TempDir dir("routerfail");
  auto store = MakeStore(dir.path() + "/store", 24, 2, 32, 32);

  ReplicaConfig config;
  config.service.num_workers = 2;
  ReplicaGroup group;
  MS_ASSERT_OK(group.AddInProcess("r", dir.path() + "/store", config, 3));

  FaultInjector injector;
  injector.Schedule(FaultInjector::Parse("kill:r1:60").ValueOrDie());

  RouterOptions opts;
  opts.fault_injector = &injector;
  opts.failure_threshold = 1;
  opts.probe_interval_seconds = 0.01;
  opts.backoff_base_seconds = 0.0005;
  opts.max_attempts = 4;
  Router router(&group, opts);

  const std::vector<std::string> sqls = {
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, object, (0.6, 1.0)) > 40;",
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, object, (0.8, 1.0)) > 10;",
      "SELECT mask_id FROM MasksDatabaseView "
      "WHERE CP(mask, object, (0.5, 1.0)) > 100;",
  };
  auto session = Session::Open(store.get(), {}).ValueOrDie();
  std::vector<std::vector<MaskId>> expected;
  for (const auto& sql : sqls) {
    expected.push_back(
        session->Filter(sql::ParseAndBind(sql).ValueOrDie().filter)
            ->mask_ids);
  }
  auto make_request = [&](size_t which) {
    RoutedRequest routed;
    routed.sqltext = sqls[which];
    routed.service.query =
        RequestFromBound(sql::ParseAndBind(sqls[which]).ValueOrDie());
    return routed;
  };

  constexpr int kThreads = 6;
  constexpr int kPerThread = 40;
  std::atomic<int> wrong{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t which = static_cast<size_t>(t + i) % sqls.size();
        auto resp = router.Execute(make_request(which));
        if (!resp.ok()) {
          ++errors;
          continue;
        }
        if (resp->filter.mask_ids != expected[which]) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);           // survivors: byte-identical results
  EXPECT_LE(errors.load(), kThreads);   // bounded error budget
  EXPECT_EQ(errors.load(), 0) << "failover should absorb the scripted kill";
  EXPECT_EQ(injector.stats().kills_fired, 1u);
  EXPECT_FALSE(group.Find("r1")->alive());

  // Throughput resumes on the survivors.
  for (size_t which = 0; which < sqls.size(); ++which) {
    auto resp = router.Execute(make_request(which)).ValueOrDie();
    EXPECT_EQ(resp.filter.mask_ids, expected[which]);
  }
  const RouterStats stats = router.Stats();
  EXPECT_GE(stats.succeeded,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.shed, 0u);
  router.Shutdown();
  group.StopAll();
}

}  // namespace
}  // namespace masksearch
