// bench_service: open- and closed-loop load against the QueryService
// (docs/SERVING.md) — the first throughput / latency-percentile trajectory
// for the serving layer.
//
// Workload: the Fig.-11 multi-query mix, heterogeneous across executor
// kinds (50% filter, 25% top-k, 15% scalar-agg, 10% mask-agg), each query
// targeting a §4.5-style subset of the dataset. Per client, streams are
// deterministic in the client index.
//
// Disk model: serving is the random-access, IOPS-bound regime — many
// concurrent small reads, not one sequential scan — so the store issues one
// modeled request per blob (no speculative coalescing across unrelated
// requests) and the device queue depth defaults to 16 (NVMe/EBS
// multi-queue; --queue-depth overrides, and the value used is recorded in
// the JSON). Bandwidth/latency come from the shared --bandwidth-mib /
// --latency-us flags. Closed-loop scaling therefore measures how well the
// service overlaps modeled I/O waits across executor slots; it is the
// acceptance gate "8-client throughput >= 3x single-client".
//
// Phases (each with a fresh QueryService over one shared Session):
//   1. closed loop: N in {1, 2, 4, 8} clients issuing back-to-back
//      requests; records closed_clients_N_qps, closed_scaling_8x, and
//      per-class p50/p95/p99 at N = 8.
//   2. open loop: Poisson arrivals at {0.5, 1.0, 2.0}x the measured
//      closed-loop capacity against a bounded queue; records achieved
//      throughput, latency percentiles, and admission rejects per rate —
//      the shed-vs-collapse behaviour of admission control.
//   3. warm cache: the closed-loop mix repeated through a buffer-pool
//      cache; records warm_qps, the service cache hit ratio, and the
//      cache-aware prefetch skips.
//   4. sockets: the same work over loopback TCP vs in-process.
//   5. replicated tier (docs/REPLICATION.md): closed-loop load routed
//      across 2 and 4 in-process replicas (each with its own modeled disk
//      and executor slots) — records replica_2_qps / replica_4_qps and the
//      2→4 scaling — plus a failover segment that script-kills a replica
//      mid-run and records failover_error_budget, the typed errors that
//      leaked past the router's retry budget (0 when failover absorbs the
//      kill).
//   6. tracing overhead (docs/OBSERVABILITY.md): warm closed-loop qps
//      untraced vs 1% trace sampling vs full tracing with a slow-query
//      log; records tracing_{disabled,sampled,full}_overhead_pct — the
//      acceptance gates that observability stays near-free.
//   7. record/replay: a loopback-TCP session recorded at wire admission,
//      then replayed closed-loop through the same catalog; records
//      replay_mix_exact (replay reproduces the recorded request count and
//      per-class mix exactly).
//
// The open loop additionally measures client-observed latency-under-SLO
// per priority class (interactive 50 ms, normal 250 ms, batch 2 s on the
// modeled disk): slo_attainment = completed-within-SLO / offered, with
// admission sheds counted as misses.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "masksearch/replica/fault_injector.h"
#include "masksearch/replica/replica_group.h"
#include "masksearch/replica/router.h"

namespace masksearch {
namespace bench {
namespace {

/// Serving-profile dataset: sized so the full sweep stays in seconds at
/// smoke scale (--workload-queries=2) and ~a minute at default scale.
DatasetSpec ServingSpec(const BenchFlags& flags) {
  DatasetSpec spec;
  spec.name = "serving";
  spec.num_images = 200 + 20ll * flags.workload_queries;
  spec.num_models = 2;
  spec.saliency.width = 40;
  spec.saliency.height = 40;
  spec.seed = 1234;
  return spec;
}

struct ServiceBench {
  DatasetSpec spec;
  std::string dir;
  std::shared_ptr<DiskThrottle> throttle;
  std::shared_ptr<BufferPool> cache;     ///< phase 3 only
  std::unique_ptr<MaskStore> store;      ///< throttled, per-blob requests
  std::unique_ptr<MaskStore> etl_store;  ///< unthrottled (index build)
  std::unique_ptr<ThreadPool> io_pool;
  std::unique_ptr<Session> session;
};

ServiceBench OpenServing(const BenchFlags& flags, int queue_depth,
                         double cache_mib) {
  ServiceBench b;
  b.spec = ServingSpec(flags);
  b.dir = flags.data_dir + "/serving";
  EnsureDataset(b.dir, b.spec).CheckOK();

  b.throttle = std::make_shared<DiskThrottle>(
      flags.bandwidth_mib * 1024 * 1024, flags.latency_us, queue_depth);
  MaskStore::Options sopts;
  sopts.throttle = b.throttle;
  // Serving I/O profile: one modeled request per blob. Concurrent tenants
  // have no sequential locality to coalesce across; what scales here is
  // the device queue depth, exactly what the closed-loop sweep measures.
  sopts.batch_max_bytes = 1;
  if (cache_mib > 0) {
    b.cache = BufferPool::MaybeCreate(
        nullptr, static_cast<uint64_t>(cache_mib * 1024 * 1024),
        flags.cache_shards, CacheAdmission::kScanResistant);
    sopts.cache = b.cache;
  }
  b.store = MaskStore::Open(b.dir, sopts).ValueOrDie();
  b.etl_store = MaskStore::Open(b.dir).ValueOrDie();

  b.io_pool = std::make_unique<ThreadPool>(4);
  SessionOptions opts;
  opts.chi = PaperChiConfig(b.spec);
  opts.cache = b.cache;
  opts.io_pool = b.io_pool.get();
  // Executor slots provide the parallelism; executors run inline with
  // modest batches (frequent deadline checkpoints, docs/SERVING.md).
  opts.verify_batch = 32;
  // Index preprocessing is charged outside the serving measurement (the
  // paper separates it too): build via the unthrottled store, cache on
  // disk, load into the session.
  const std::string chi_path = b.dir + "/serving_default.chi";
  if (!PathExists(chi_path)) {
    IndexManager index(b.etl_store->num_masks(), opts.chi);
    index.BuildAll(*b.etl_store).CheckOK();
    index.SaveToFile(chi_path).CheckOK();
  }
  opts.index_path = chi_path;
  b.session = Session::Open(b.store.get(), opts).ValueOrDie();
  return b;
}

/// Deterministic per-client request stream: the Fig.-11 mix across the
/// four executor kinds, every query targeting a workload-style subset.
std::vector<ServiceRequest> ClientStream(const MaskStore& store,
                                         int64_t client, size_t n) {
  WorkloadOptions wopts;
  wopts.num_queries = static_cast<int>(n);
  wopts.p_seen = 0.5;
  wopts.seed = 9000 + static_cast<uint64_t>(client);
  const Workload workload = GenerateWorkload(store, wopts);

  Rng rng(500 + static_cast<uint64_t>(client));
  QueryGenOptions gen;
  gen.threshold_fraction_max = 0.5;

  std::vector<ServiceRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const FilterQuery& wq = workload.queries[i % workload.queries.size()];
    ServiceRequest req;
    req.tenant = client;
    req.priority = static_cast<PriorityClass>(i % kNumPriorityClasses);
    const int64_t kind = static_cast<int64_t>(i * 20 / n);
    if (n < 8 || kind < 10) {  // 50% filter (smoke runs stay filter-only)
      req.query = QueryRequest::Filter(wq);
    } else if (kind < 15) {  // 25% top-k over the same subset
      TopKQuery q = GenerateTopKQuery(&rng, store, gen);
      q.selection = wq.selection;
      req.query = QueryRequest::TopK(std::move(q));
    } else if (kind < 18) {  // 15% scalar aggregation
      AggregationQuery q = GenerateAggQuery(&rng, store, gen);
      q.selection = wq.selection;
      req.query = QueryRequest::Aggregation(std::move(q));
    } else {  // 10% mask aggregation
      MaskAggQuery q;
      q.op = rng.NextBool() ? MaskAggOp::kIntersectThreshold
                            : MaskAggOp::kUnionThreshold;
      q.agg_threshold = 0.5;
      q.term.roi_source = RoiSource::kObjectBox;
      q.term.range = RandomValueRange(&rng, gen);
      q.group_key = GroupKey::kImageId;
      q.k = 10;
      q.selection = wq.selection;
      req.query = QueryRequest::MaskAgg(std::move(q));
    }
    out.push_back(std::move(req));
  }
  return out;
}

/// Client-observed latency SLOs per priority class on the modeled disk:
/// interactive 50 ms, normal 250 ms, batch 2 s (index order matches
/// PriorityClass).
constexpr std::array<double, kNumPriorityClasses> kSloSeconds = {0.05, 0.25,
                                                                 2.0};

struct PhaseResult {
  double seconds = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  ServiceStats stats;
  int64_t prefetch_skips = 0;
  /// Open loop only: per-class requests completed OK within kSloSeconds /
  /// requests offered (admission sheds count as offered misses).
  std::array<uint64_t, kNumPriorityClasses> slo_within{};
  std::array<uint64_t, kNumPriorityClasses> slo_offered{};

  double qps() const {
    return seconds > 0 ? static_cast<double>(completed) / seconds : 0;
  }
  double slo_attainment(size_t cls) const {
    return slo_offered[cls] > 0
               ? static_cast<double>(slo_within[cls]) / slo_offered[cls]
               : 1.0;
  }
};

/// Closed loop: `clients` threads, each issuing its stream back-to-back.
/// `trace_sample_rate` / `slow_log` switch on the observability path for
/// the tracing-overhead phase; the defaults leave it off.
PhaseResult RunClosedLoop(Session* session, size_t clients,
                          size_t requests_per_client,
                          double trace_sample_rate = 0,
                          obs::SlowQueryLog* slow_log = nullptr) {
  QueryServiceOptions qopts;
  qopts.num_workers = clients;
  qopts.max_queue_depth = 4 * clients;
  qopts.trace_sample_rate = trace_sample_rate;
  qopts.slow_query_log = slow_log;
  auto service = QueryService::Start(session, qopts).ValueOrDie();

  std::vector<std::vector<ServiceRequest>> streams;
  streams.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    streams.push_back(ClientStream(session->store(),
                                   static_cast<int64_t>(c),
                                   requests_per_client));
  }

  PhaseResult result;
  std::atomic<int64_t> skips{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (const ServiceRequest& req : streams[c]) {
        auto r = service->Execute(req);
        r.status().CheckOK();  // closed loop never sheds: queue cap 4/client
        skips.fetch_add(r->stats().prefetch_skipped);
      }
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = wall.ElapsedSeconds();
  service->Drain();
  result.stats = service->Stats();
  result.completed = result.stats.total.completed;
  result.prefetch_skips = skips.load();
  return result;
}

/// Open loop: one dispatcher submitting Poisson arrivals at `rate_qps`
/// against a bounded queue; overload is shed, not absorbed.
PhaseResult RunOpenLoop(Session* session, double rate_qps, size_t n) {
  QueryServiceOptions qopts;
  qopts.num_workers = 8;
  qopts.max_queue_depth = 32;
  auto service = QueryService::Start(session, qopts).ValueOrDie();

  // One long stream, round-robined over 4 virtual tenants at submit time.
  const std::vector<ServiceRequest> stream =
      ClientStream(session->store(), /*client=*/99, n);

  // SLO accounting is client-observed: the clock starts at Submit and stops
  // in the NotifyDone callback (fired from the finishing worker), so queue
  // wait, execution, and modeled I/O all count. Heap-shared so a straggling
  // callback can never outlive the counters; reads happen after Drain(),
  // when every finishing worker has run its callback.
  struct SloAccum {
    std::array<std::atomic<uint64_t>, kNumPriorityClasses> within{};
  };
  auto slo = std::make_shared<SloAccum>();

  PhaseResult result;
  Rng rng(271828);
  std::vector<std::shared_ptr<PendingQuery>> pending;
  pending.reserve(n);
  Stopwatch wall;
  auto next_arrival = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(next_arrival);
    const double gap = -std::log(1.0 - rng.NextDouble()) / rate_qps;
    next_arrival += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(gap));
    ServiceRequest req = stream[i];
    req.tenant = static_cast<TenantId>(i % 4);
    const size_t cls = static_cast<size_t>(req.priority);
    ++result.slo_offered[cls];
    auto p = service->Submit(std::move(req));
    if (p.ok()) {
      const auto submitted = std::chrono::steady_clock::now();
      // weak_ptr breaks the handle->callback->handle cycle; by the time the
      // callback fires the result is set, so Wait() returns without blocking.
      std::weak_ptr<PendingQuery> weak = *p;
      (*p)->NotifyDone([slo, cls, submitted, weak] {
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          submitted)
                .count();
        auto handle = weak.lock();
        if (handle && handle->Wait().ok() && secs <= kSloSeconds[cls]) {
          slo->within[cls].fetch_add(1, std::memory_order_relaxed);
        }
      });
      pending.push_back(*p);
    } else {
      ++result.rejected;  // admission shed (kUnavailable): the open-loop
                          // overload signal, counted not retried — and an
                          // SLO miss for its class
    }
  }
  for (auto& p : pending) (void)p->Wait();
  result.seconds = wall.ElapsedSeconds();
  service->Drain();
  result.stats = service->Stats();
  result.completed = result.stats.total.completed;
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    result.slo_within[c] = slo->within[c].load();
  }
  return result;
}

void RecordLatencies(const std::string& prefix, const ServiceStats& stats) {
  RecordMetric(prefix + "_p50_ms", stats.total.latency.p50 * 1e3);
  RecordMetric(prefix + "_p95_ms", stats.total.latency.p95 * 1e3);
  RecordMetric(prefix + "_p99_ms", stats.total.latency.p99 * 1e3);
  RecordMetric(prefix + "_queue_p95_ms", stats.total.queue_wait.p95 * 1e3);
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    const ClassServiceStats& cs = stats.by_class[c];
    if (cs.submitted == 0) continue;
    const std::string cls =
        PriorityClassToString(static_cast<PriorityClass>(c));
    RecordMetric(prefix + "_" + cls + "_p50_ms", cs.latency.p50 * 1e3);
    RecordMetric(prefix + "_" + cls + "_p95_ms", cs.latency.p95 * 1e3);
    RecordMetric(prefix + "_" + cls + "_p99_ms", cs.latency.p99 * 1e3);
  }
}

void Run(const BenchFlags& flags) {
  // Serving device: the shared flag's default (1, the paper's serialized
  // disk) is promoted to a multi-queue 16 for the serving model; any other
  // explicit --queue-depth value is used exactly as given. (The one
  // unexpressible setting is an explicit depth of 1 — indistinguishable
  // from the unset default.)
  const int queue_depth = flags.queue_depth == 1 ? 16 : flags.queue_depth;
  if (flags.queue_depth == 1) {
    std::printf("note: promoting default queue-depth 1 to %d for the serving "
                "device model (any other --queue-depth value is used as-is)\n",
                queue_depth);
  }
  const size_t requests_per_client =
      static_cast<size_t>(std::max(2, flags.workload_queries));

  ServiceBench bench = OpenServing(flags, queue_depth, /*cache_mib=*/0);
  RecordMetric("masks", static_cast<double>(bench.store->num_masks()));
  RecordMetric("queue_depth", queue_depth);
  std::printf("\ndataset: %lld masks of %dx%d, %.1f MiB; disk %.0f MiB/s, "
              "%.0f us, QD %d\n",
              static_cast<long long>(bench.store->num_masks()),
              bench.spec.saliency.width, bench.spec.saliency.height,
              bench.store->TotalDataBytes() / 1048576.0, flags.bandwidth_mib,
              flags.latency_us, queue_depth);

  // --- phase 1: closed loop -------------------------------------------------
  std::printf("\n[closed loop] %zu requests/client, Fig.-11 mix\n",
              requests_per_client);
  const size_t sweep[] = {1, 2, 4, 8};
  double qps1 = 0, qps8 = 0;
  for (size_t clients : sweep) {
    const PhaseResult r =
        RunClosedLoop(bench.session.get(), clients, requests_per_client);
    std::printf("  %2zu clients: %6.1f qps  (p50 %.2f ms, p95 %.2f ms, "
                "p99 %.2f ms)\n",
                clients, r.qps(), r.stats.total.latency.p50 * 1e3,
                r.stats.total.latency.p95 * 1e3,
                r.stats.total.latency.p99 * 1e3);
    RecordMetric("closed_clients_" + std::to_string(clients) + "_qps",
                 r.qps());
    if (clients == 1) qps1 = r.qps();
    if (clients == 8) {
      qps8 = r.qps();
      RecordLatencies("closed8", r.stats);
    }
  }
  const double scaling = qps1 > 0 ? qps8 / qps1 : 0;
  RecordMetric("closed_scaling_8x", scaling);
  std::printf("  scaling 8 clients / 1 client: %.2fx (target >= 3x)\n",
              scaling);

  // --- phase 2: open loop ---------------------------------------------------
  const double rates[] = {0.5, 1.0, 2.0};
  const size_t n_open = requests_per_client * 8;
  std::printf("\n[open loop] Poisson arrivals, %zu requests per rate, "
              "queue cap 32\n", n_open);
  for (size_t i = 0; i < 3; ++i) {
    const double offered = std::max(1.0, rates[i] * qps8);
    const PhaseResult r = RunOpenLoop(bench.session.get(), offered, n_open);
    std::printf("  offered %7.1f qps (%.1fx capacity): achieved %7.1f qps, "
                "shed %llu/%zu, p99 %.2f ms\n",
                offered, rates[i], r.qps(),
                static_cast<unsigned long long>(r.rejected), n_open,
                r.stats.total.latency.p99 * 1e3);
    const std::string prefix = "open_rate_" + std::to_string(i);
    RecordMetric(prefix + "_offered_qps", offered);
    RecordMetric(prefix + "_qps", r.qps());
    RecordMetric(prefix + "_rejected", static_cast<double>(r.rejected));
    RecordLatencies(prefix, r.stats);
    std::printf("    SLO attainment:");
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      const std::string cls =
          PriorityClassToString(static_cast<PriorityClass>(c));
      RecordMetric(prefix + "_slo_attainment_" + cls, r.slo_attainment(c));
      std::printf(" %s %.3f (<= %.0f ms)", cls.c_str(), r.slo_attainment(c),
                  kSloSeconds[c] * 1e3);
    }
    std::printf("\n");
  }

  // --- phase 3: warm cache --------------------------------------------------
  const double cache_mib = flags.cache_mib > 0 ? flags.cache_mib : 256.0;
  ServiceBench cached = OpenServing(flags, queue_depth, cache_mib);
  // Pass 1 warms the pool; pass 2 is the measured steady state.
  RunClosedLoop(cached.session.get(), 4, requests_per_client);
  const PhaseResult warm =
      RunClosedLoop(cached.session.get(), 4, requests_per_client);
  const CacheStats cs = cached.cache->Stats();
  std::printf("\n[warm cache] %.0f MiB pool: %6.1f qps, hit ratio %.3f, "
              "prefetch skips %" PRId64 "\n",
              cache_mib, warm.qps(), cs.HitRatio(), warm.prefetch_skips);
  RecordMetric("warm_qps", warm.qps());
  RecordMetric("service_cache_hit_ratio", cs.HitRatio());
  RecordMetric("warm_prefetch_skips",
               static_cast<double>(warm.prefetch_skips));

  // --- phase 4: sockets -----------------------------------------------------
  // The same prepared-statement workload driven two ways against one
  // catalog-served dataset: in-process Submit vs real loopback TCP through
  // the wire protocol (docs/NETWORK.md), 8 closed-loop clients each. The
  // ratio isolates protocol + poll-loop overhead; acceptance >= 0.9 on the
  // modeled disk.
  {
    DatasetConfig config;
    config.store.throttle = std::make_shared<DiskThrottle>(
        flags.bandwidth_mib * 1024 * 1024, flags.latency_us, queue_depth);
    config.store.batch_max_bytes = 1;
    config.session.chi = PaperChiConfig(bench.spec);
    config.session.index_path = bench.dir + "/serving_default.chi";
    config.session.verify_batch = 32;
    config.service.num_workers = 8;
    config.service.max_queue_depth = 32;
    Catalog catalog;
    Dataset* dataset =
        catalog.Register("serving", bench.dir, config).ValueOrDie();
    auto server =
        net::NetServer::Start(&catalog, net::NetServerOptions{}).ValueOrDie();

    const std::string sql =
        "SELECT mask_id FROM MasksDatabaseView "
        "WHERE CP(mask, object, (?, 1.0)) > ?;";
    auto params_for = [](size_t client, size_t i) {
      return std::vector<double>{
          0.5 + 0.05 * static_cast<double>(i % 8),
          static_cast<double>((client * 41 + i * 37) % 800)};
    };

    auto run_inproc = [&](size_t clients) {
      auto stmt = PreparedStatement::Prepare(sql).ValueOrDie();
      std::atomic<uint64_t> done{0};
      Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t i = 0; i < requests_per_client; ++i) {
            ServiceRequest req;
            req.tenant = static_cast<TenantId>(c);
            req.query = stmt->BindRequest(params_for(c, i)).ValueOrDie();
            dataset->service()->Execute(std::move(req)).status().CheckOK();
            done.fetch_add(1);
          }
        });
      }
      for (auto& t : threads) t.join();
      const double s = wall.ElapsedSeconds();
      return s > 0 ? static_cast<double>(done.load()) / s : 0.0;
    };

    auto run_socket = [&](size_t clients) {
      std::atomic<uint64_t> done{0};
      Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          auto client =
              net::NetClient::Connect("127.0.0.1", server->port())
                  .ValueOrDie();
          auto handle = client->Prepare("serving", sql).ValueOrDie();
          for (size_t i = 0; i < requests_per_client; ++i) {
            client->Execute(handle.stmt_id, params_for(c, i))
                .status()
                .CheckOK();
            done.fetch_add(1);
          }
          client->CloseStmt(handle.stmt_id).CheckOK();
        });
      }
      for (auto& t : threads) t.join();
      const double s = wall.ElapsedSeconds();
      return s > 0 ? static_cast<double>(done.load()) / s : 0.0;
    };

    const double inproc_qps = run_inproc(8);
    const double sock1_qps = run_socket(1);
    const double sock8_qps = run_socket(8);
    server->Stop();
    const double ratio = inproc_qps > 0 ? sock8_qps / inproc_qps : 0;
    std::printf("\n[sockets] prepared statements on 127.0.0.1:%u: in-process "
                "%6.1f qps, socket x1 %6.1f qps, socket x8 %6.1f qps "
                "(%.2fx of in-process, target >= 0.9x)\n",
                server->port(), inproc_qps, sock1_qps, sock8_qps, ratio);
    const MetadataCache::CacheStats mstats = dataset->metadata()->stats();
    std::printf("  metadata cache: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(mstats.hits),
                static_cast<unsigned long long>(mstats.misses));
    RecordMetric("socket_inproc_qps", inproc_qps);
    RecordMetric("socket_clients_8_qps", sock8_qps);
    RecordMetric("socket_scaling_8x",
                 sock1_qps > 0 ? sock8_qps / sock1_qps : 0);
    RecordMetric("socket_vs_inproc_ratio", ratio);
    catalog.ShutdownAll();
  }

  // --- phase 5: replicated tier ---------------------------------------------
  // Closed-loop load routed across N in-process replicas of the serving
  // dataset. Each replica gets its OWN modeled disk (a fresh DiskThrottle)
  // and its own executor slots — the whole point of replication is more
  // devices behind the tier, so sharing one throttle would measure nothing.
  // Routing keys are spread per-request (not per-statement) so the load
  // actually fans out across the ring; with per-statement affinity a small
  // statement set would collapse onto one replica.
  {
    auto open_replica = [&](ReplicaGroup* group, const std::string& name) {
      ReplicaConfig config;
      config.store.throttle = std::make_shared<DiskThrottle>(
          flags.bandwidth_mib * 1024 * 1024, flags.latency_us, queue_depth);
      config.store.batch_max_bytes = 1;
      config.session.chi = PaperChiConfig(bench.spec);
      config.session.index_path = bench.dir + "/serving_default.chi";
      config.session.verify_batch = 32;
      config.service.num_workers = 4;
      config.service.max_queue_depth = 64;
      group->Add(InProcessReplica::Open(name, bench.dir, config).ValueOrDie())
          .CheckOK();
    };

    // Runs 2*replicas closed-loop clients through a Router; `fault_spec`
    // (optional) script-kills a replica mid-run. Returns qps; client-visible
    // errors (what leaked past the retry budget) land in *errors_out.
    auto run_replicated = [&](size_t replicas, const std::string& fault_spec,
                              uint64_t* errors_out, RouterStats* stats_out) {
      ReplicaGroup group;
      for (size_t r = 0; r < replicas; ++r) {
        open_replica(&group, "r" + std::to_string(r));
      }
      FaultInjector injector;
      RouterOptions ropts;
      ropts.failure_threshold = 1;
      ropts.probe_interval_seconds = 0.01;
      ropts.max_attempts = 4;
      ropts.backoff_base_seconds = 0.0005;
      if (!fault_spec.empty()) {
        injector.Schedule(FaultInjector::Parse(fault_spec).ValueOrDie());
        ropts.fault_injector = &injector;
      }
      Router router(&group, ropts);

      const size_t clients = 2 * replicas;
      std::atomic<uint64_t> done{0};
      std::atomic<uint64_t> errors{0};
      Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const std::vector<ServiceRequest> stream = ClientStream(
              bench.session->store(), static_cast<int64_t>(c),
              requests_per_client);
          for (size_t i = 0; i < stream.size(); ++i) {
            RoutedRequest req;
            req.service = stream[i];
            req.routing_key =
                (c * 0x9E3779B9ull + i * 0x85EBCA6Bull) | 1;  // spread
            if (router.Execute(req).ok()) {
              done.fetch_add(1);
            } else {
              errors.fetch_add(1);  // leaked past the failover budget
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      const double s = wall.ElapsedSeconds();
      if (stats_out) *stats_out = router.Stats();
      if (errors_out) *errors_out = errors.load();
      router.Shutdown();
      group.StopAll();
      return s > 0 ? static_cast<double>(done.load()) / s : 0.0;
    };

    const double q2 = run_replicated(2, "", nullptr, nullptr);
    const double q4 = run_replicated(4, "", nullptr, nullptr);
    const double rep_scaling = q2 > 0 ? q4 / q2 : 0;
    std::printf("\n[replicated tier] 2 replicas %6.1f qps, 4 replicas %6.1f "
                "qps (%.2fx, near-linear target)\n", q2, q4, rep_scaling);
    RecordMetric("replica_2_qps", q2);
    RecordMetric("replica_4_qps", q4);
    RecordMetric("replica_scaling_4v2", rep_scaling);

    // Failover segment: kill one of two replicas halfway through the run.
    // Correctness of survivor bytes is the test suite's job (replica_test,
    // failure_injection_test); the bench records the operational envelope —
    // throughput across the kill and the error budget the clients saw.
    const uint64_t total = 4 * requests_per_client;
    uint64_t leaked = 0;
    RouterStats fstats;
    const double fq = run_replicated(
        2, "kill:r0:" + std::to_string(std::max<uint64_t>(1, total / 2)),
        &leaked, &fstats);
    std::printf("  failover (kill r0 mid-run): %6.1f qps, client errors "
                "%llu/%llu, retries %llu, failovers %llu, shed %llu\n",
                fq, static_cast<unsigned long long>(leaked),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(fstats.retries),
                static_cast<unsigned long long>(fstats.failovers),
                static_cast<unsigned long long>(fstats.shed));
    RecordMetric("failover_qps", fq);
    RecordMetric("failover_error_budget", static_cast<double>(leaked));
    RecordMetric("failover_retries", static_cast<double>(fstats.retries));
  }

  // --- phase 6: tracing overhead --------------------------------------------
  // The observability acceptance gate (docs/OBSERVABILITY.md): the tracing
  // spine must be near-free. Four warm-cache closed-loop variants over the
  // already-warm pool: an untraced baseline, a second untraced variant
  // (what "disabled" costs is indistinguishable from run-to-run noise, and
  // this records that noise floor), 1% sampling, and full tracing with a
  // slow-query log attached (every request traced and offered; the
  // sky-high threshold keeps the ring empty so render cost stays out of the
  // measurement). One pass of a variant is noise-dominated, so each runs
  // kTracingRounds times, alternated round by round (and rotated, so no
  // variant always runs first), and the overheads compare median qps
  // against the baseline's, clamped at 0 when the variant came out faster.
  {
    // One unmeasured pass first: phases 4/5 ran against other stores, so
    // this settles the pool back to steady state before the baseline.
    RunClosedLoop(cached.session.get(), 4, requests_per_client);
    obs::SlowQueryLog::Options lopts;
    lopts.threshold_seconds = 3600.0;
    lopts.capacity = 16;
    obs::SlowQueryLog slow_log(lopts);
    constexpr int kVariants = 4;  // base, disabled, sampled, full
    constexpr int kTracingRounds = 5;
    std::array<std::vector<double>, kVariants> qps;
    for (int round = 0; round < kTracingRounds; ++round) {
      for (int k = 0; k < kVariants; ++k) {
        const int variant = (round + k) % kVariants;
        const double rate = variant == 2 ? 0.01 : variant == 3 ? 1.0 : 0.0;
        qps[variant].push_back(
            RunClosedLoop(cached.session.get(), 4, requests_per_client, rate,
                          variant == 3 ? &slow_log : nullptr)
                .qps());
      }
    }
    std::array<double, kVariants> median{};
    for (int v = 0; v < kVariants; ++v) {
      std::sort(qps[v].begin(), qps[v].end());
      median[v] = Percentile(qps[v], 0.5);
    }
    auto overhead_pct = [&](double measured) {
      if (median[0] <= 0) return 0.0;
      return std::max(0.0, (median[0] - measured) / median[0] * 100.0);
    };
    const double disabled_pct = overhead_pct(median[1]);
    const double sampled_pct = overhead_pct(median[2]);
    const double full_pct = overhead_pct(median[3]);
    std::printf("\n[tracing overhead] warm closed loop x4 clients, median of "
                "%d alternated passes: untraced %6.1f qps, untraced again "
                "%6.1f qps (%.2f%%), 1%% sampling %6.1f qps (%.2f%%, target "
                "< 5%%), full trace + slow log %6.1f qps (%.2f%%)\n",
                kTracingRounds, median[0], median[1], disabled_pct, median[2],
                sampled_pct, median[3], full_pct);
    RecordMetric("warm_qps_untraced", median[0]);
    RecordMetric("warm_qps_traced", median[2]);
    RecordMetric("warm_qps_full_trace", median[3]);
    RecordMetric("tracing_disabled_overhead_pct", disabled_pct);
    RecordMetric("tracing_sampled_overhead_pct", sampled_pct);
    RecordMetric("tracing_full_overhead_pct", full_pct);
  }

  // --- phase 7: record / replay ---------------------------------------------
  // A live session served over loopback TCP is recorded at wire admission
  // (docs/OBSERVABILITY.md), then the recorded trace is replayed closed-loop
  // through the same catalog. replay_mix_exact is the acceptance gate: the
  // replay must reproduce the recorded request count and per-class mix
  // exactly (1 = exact, 0 = drift).
  {
    DatasetConfig config;
    config.store.throttle = std::make_shared<DiskThrottle>(
        flags.bandwidth_mib * 1024 * 1024, flags.latency_us, queue_depth);
    config.store.batch_max_bytes = 1;
    config.session.chi = PaperChiConfig(bench.spec);
    config.session.index_path = bench.dir + "/serving_default.chi";
    config.session.verify_batch = 32;
    config.service.num_workers = 8;
    config.service.max_queue_depth = 64;
    Catalog catalog;
    catalog.Register("serving", bench.dir, config).ValueOrDie();

    const std::string trace_path = flags.data_dir + "/serving_session.trace";
    auto recorder = obs::TraceRecorder::Open(trace_path).ValueOrDie();
    net::NetServerOptions sopts;
    sopts.recorder = recorder.get();
    auto server = net::NetServer::Start(&catalog, sopts).ValueOrDie();

    const size_t n_record = 3 * requests_per_client;
    std::array<uint64_t, kNumPriorityClasses> sent_by_class{};
    auto client =
        net::NetClient::Connect("127.0.0.1", server->port()).ValueOrDie();
    for (size_t i = 0; i < n_record; ++i) {
      const auto priority =
          static_cast<PriorityClass>(i % kNumPriorityClasses);
      ++sent_by_class[static_cast<size_t>(priority)];
      const std::string sql =
          "SELECT mask_id FROM MasksDatabaseView "
          "WHERE CP(mask, object, (0.5, 1.0)) > " +
          std::to_string(100 + 37 * (i % 16)) + ";";
      client->Query("serving", sql, static_cast<int64_t>(i % 4), priority)
          .status()
          .CheckOK();
    }
    client.reset();
    server->Stop();
    recorder->Flush();
    RecordMetric("record_requests", static_cast<double>(recorder->recorded()));

    ReplayOptions ropts;
    ropts.open_loop = false;
    ropts.closed_loop_clients = 4;
    const ReplayStats rstats =
        ReplayTrace(&catalog, obs::LoadTrace(trace_path).ValueOrDie(), ropts)
            .ValueOrDie();
    bool mix_exact = rstats.submitted == n_record;
    for (size_t c = 0; c < kNumPriorityClasses; ++c) {
      if (rstats.by_class[c] != sent_by_class[c]) mix_exact = false;
    }
    const double replay_qps = rstats.wall_seconds > 0
                                  ? static_cast<double>(rstats.completed) /
                                        rstats.wall_seconds
                                  : 0;
    std::printf("\n[record/replay] recorded %llu wire requests, replayed "
                "%llu (completed %llu, failed %llu) at %6.1f qps; per-class "
                "mix %s\n",
                static_cast<unsigned long long>(recorder->recorded()),
                static_cast<unsigned long long>(rstats.submitted),
                static_cast<unsigned long long>(rstats.completed),
                static_cast<unsigned long long>(rstats.failed), replay_qps,
                mix_exact ? "exact" : "DRIFTED");
    RecordMetric("replay_requests", static_cast<double>(rstats.submitted));
    RecordMetric("replay_qps", replay_qps);
    RecordMetric("replay_mix_exact", mix_exact ? 1 : 0);
    catalog.ShutdownAll();
  }
}

}  // namespace
}  // namespace bench
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch::bench;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintHeader(flags, "bench_service",
              "serving-layer load harness (docs/SERVING.md; Fig. 11 mix)");
  Run(flags);
  return 0;
}
