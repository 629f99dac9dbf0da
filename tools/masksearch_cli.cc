// masksearch_cli: command-line front end to a MaskSearch store.
//
//   masksearch_cli generate --dir D [--images N] [--models M] [--width W]
//                           [--height H] [--seed S] [--compressed]
//       Build a synthetic mask database (see workload/datasets.h).
//
//   masksearch_cli info --dir D
//       Print store statistics.
//
//   masksearch_cli query --dir D --sql "SELECT ..." [--incremental]
//                        [--cell C] [--bins B] [--index-path P] [--explain]
//                        [--no-index] [--limit-print K]
//       Parse, bind, (optionally explain,) and execute a query.
//
//   masksearch_cli explain --sql "SELECT ..."
//       Show the bound plan without executing.
//
//   masksearch_cli shard --dir D --out D2 [--shards N]
//       Rewrite a store with N data-file shards (blobs copied verbatim;
//       --shards 1 converts back to the single-file layout).
//
//   masksearch_cli serve --dir D --script F [--clients N] [--repeat R]
//       Replay a script through the dataset's QueryService
//       (docs/SERVING.md): N closed-loop clients share N x R copies of F.
//       A script is a trace file (obs/recorder.h) — one request per line,
//       `[tenant=N] [class=C] [deadline_ms=X] sql=SELECT ...`, '#' lines
//       are comments — and an unset tenant takes its client's index.
//       Prints the outcome classes (completed, shed, deadline-expired,
//       cancelled, errors), ServiceStats and cache stats; exits non-zero
//       iff a hard error occurred.
//
//   masksearch_cli serve --dir D --port P [--bind A] [--name N]
//                        [--workers W] [--queue-depth Q] [--cache-mib M]
//                        [--replicas N] [--fault SPEC[,SPEC...]]
//                        [--failure-threshold K] [--probe-interval-ms T]
//                        [--max-attempts A] ...
//       Network mode (docs/NETWORK.md): registers --dir as the named
//       dataset N (default "default") in a catalog and serves the wire
//       protocol on A:P until SIGINT/SIGTERM; --port 0 picks a free port
//       (printed as "listening on A:P"). Exits 0 on a clean shutdown.
//       --replicas N >= 2 serves through a replicated tier
//       (docs/REPLICATION.md): N in-process replicas of --dir behind a
//       health-checked router with failover; --fault arms scripted faults
//       ("kill:r1:40", "error:r0:10:5", "stall:r2:0:20") for the CI
//       fault-injection smoke. Observability (docs/OBSERVABILITY.md):
//       --slow-ms N keeps a slow-query log (wire TRACE / client --slow),
//       --trace-sample R samples traces, --record F captures the session
//       as a replayable trace file.
//
//   masksearch_cli client --port P [--host H] [--dataset D]
//                         [--sql S | --prepare S --params "v1,v2" | --list
//                          | --metrics [--json] | --slow]
//                         [--repeat N] [--timeout-ms T] [--trace-id T]
//       Socket client for a running `serve --port`: ping (default),
//       one-shot SQL, prepared-statement replay, dataset listing, a
//       metrics scrape, or a slow-query-log dump. --trace-id forces the
//       server to trace the query under the given id.
//
//   masksearch_cli replay --dir D --trace F [--closed-loop] [--speed X]
//                         [--clients N]
//       Replay a trace file — a session recorded by `serve --port --record
//       F` or a serve script (docs/OBSERVABILITY.md): open loop reproduces
//       the recorded arrival times (scaled by --speed), --closed-loop
//       drives the same requests through N closed-loop clients. Preserves
//       the request count and per-class mix exactly; output and exit rule
//       as `serve --script`.
//
//   masksearch_cli ingest --dir D [--count N] [--epochs K] [--shards S]
//                         [--width W] [--bins B] [--seed S] [--compressed]
//                         [--serve-queries N] [--clients C] [--cache-mib M]
//                         [--delete-every N] [--compact-every E]
//       Streaming ingest (docs/INGEST.md): append N synthetic masks to
//       --dir across K atomic epoch publishes, creating the store on
//       first use and resuming at the last durable epoch otherwise.
//       --serve-queries N races N queries per client against the
//       publishes through a snapshot-pinning QueryService — the
//       ingest-while-serving smoke. --delete-every N tombstones every
//       N-th appended mask; --compact-every E runs a generation-rewrite
//       compaction (docs/COMPACTION.md) after every E-th publish — the
//       compact-while-ingesting-while-serving smoke.
//
//   masksearch_cli compact --dir D [--shards S] [--throttle-mib M]
//       One-shot generation-rewrite compaction of a live store
//       (docs/COMPACTION.md): drops tombstoned masks, optionally
//       re-shards to S data files, and atomically swaps the new
//       generation in. --throttle-mib bounds the bulk-copy bandwidth.
//
//   masksearch_cli stats --dir D [--sql S] [--repeat N] [--script F]
//                        [--clients N]
//       Open the dataset behind the buffer-pool cache (docs/CACHING.md),
//       optionally run a query N times through its session (--sql) and/or
//       replay a script through its QueryService (--script), and print one
//       observability surface: store counters, CacheStats (hit ratio,
//       resident bytes, evictions, pins), and service counters
//       (admitted/rejected/deadline-missed, per-class p50/p95/p99).
//       --metrics [--json] appends the process metrics registry; --watch S
//       [--watch-count N] loops, re-running the --sql workload each tick
//       and printing only the samples that moved.
//
// Every command that opens a dataset (query, stats, serve, replay) builds
// it from one flag set (DatasetConfigFromArgs), so a replay indexes and
// verifies exactly like the server whose session it replays: CHI cell
// --cell (default side/8 of the store's masks, the paper's rule), --bins
// (16), --verify-batch (32), --incremental, --no-index, --index-path,
// --attach-index, one buffer pool for mask blobs and CHIs (--cache-mib,
// default 0 for query and 256 otherwise; --cache-shards,
// --cache-admission) and the service limits (--workers, --queue-depth,
// --max-queued-mib, --deadline-ms, --trace-sample).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "masksearch/exec/explain.h"
#include "masksearch/masksearch.h"
#include "masksearch/storage/npy.h"
#include "masksearch/version.h"

namespace masksearch {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = options.find(key);
    return it == options.end() ? def : std::stoll(it->second);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args.options[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.options[arg] = argv[++i];
    } else {
      args.options[arg] = "1";
    }
  }
  return args;
}

int Usage(int exit_code = 2) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "masksearch_cli %s\n"
               "usage: masksearch_cli "
               "<generate|info|query|stats|serve|client|ingest|compact|"
               "replay|explain|shard|import|export> [options]\n"
               "  generate --dir D [--images N] [--models M] [--width W]\n"
               "           [--height H] [--seed S] [--compressed]\n"
               "  info     --dir D\n"
               "  query    --dir D --sql S [--explain] [--limit-print K]\n"
               "  stats    --dir D [--sql S] [--repeat N] [--script F]\n"
               "           [--clients N] [--metrics [--json]]\n"
               "           [--watch S [--watch-count N]]\n"
               "  serve    --dir D --script F [--clients N] [--repeat R]\n"
               "  serve    --dir D --port P [--bind A] [--name N]\n"
               "           [--max-conns C] [--replicas N]\n"
               "           [--fault SPEC[,SPEC...]] [--failure-threshold K]\n"
               "           [--probe-interval-ms T] [--max-attempts A]\n"
               "           [--record F] [--slow-ms N]\n"
               "  replay   --dir D --trace F [--closed-loop] [--speed X]\n"
               "           [--clients N]\n"
               "  client   --port P [--host H] [--dataset D] [--sql S]\n"
               "           [--prepare S --params V] [--repeat N] [--list]\n"
               "           [--timeout-ms T] [--limit-print K] [--trace-id T]\n"
               "           [--metrics [--json]] [--slow]\n"
               "  ingest   --dir D [--count N] [--epochs K] [--shards S]\n"
               "           [--width W] [--bins B] [--seed S] [--compressed]\n"
               "           [--serve-queries N] [--clients C] [--cache-mib M]\n"
               "           [--cache-shards N] [--delete-every N]\n"
               "           [--compact-every E]\n"
               "  compact  --dir D [--shards S] [--throttle-mib M]\n"
               "  explain  --sql S\n"
               "  shard    --dir D --out D2 [--shards N]\n"
               "  import   --dir D --npy-dir P [--models M]\n"
               "  export   --dir D --mask-id N --out F.npy\n"
               "  --help | --version\n"
               "dataset flags of query, stats, serve and replay:\n"
               "  [--cell C] [--bins B] [--verify-batch V] [--incremental]\n"
               "  [--no-index] [--index-path P] [--attach-index]\n"
               "  [--cache-mib M] [--cache-shards N]\n"
               "  [--cache-admission all|scan] [--workers W] [--queue-depth Q]\n"
               "  [--max-queued-mib M] [--deadline-ms M] [--trace-sample R]\n"
               "  The CHI cell defaults to side/8 of the store's masks (the\n"
               "  paper's rule), --bins to 16, --verify-batch to 32, and\n"
               "  --cache-mib to 0 for query and 256 otherwise.\n"
               "script / trace line (one request; only sql= is required):\n"
               "  [at_ms=T] [dataset=D] [tenant=N] [class=C] [deadline_ms=X]\n"
               "  [trace=I] [params=V,...] sql=SELECT ...\n",
               VersionString());
  return exit_code;
}

int RunGenerate(const Args& args) {
  if (!args.Has("dir")) return Usage();
  DatasetSpec spec;
  spec.name = "cli";
  spec.num_images = args.GetInt("images", 500);
  spec.num_models = static_cast<int32_t>(args.GetInt("models", 2));
  spec.saliency.width = static_cast<int32_t>(args.GetInt("width", 112));
  spec.saliency.height = static_cast<int32_t>(args.GetInt("height", 112));
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  if (args.Has("compressed")) spec.storage = StorageKind::kCompressed;
  const Status st = BuildDataset(args.Get("dir"), spec);
  if (!st.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("generated %lld masks (%lld images x %d models) at %s\n",
              static_cast<long long>(spec.num_masks()),
              static_cast<long long>(spec.num_images), spec.num_models,
              args.Get("dir").c_str());
  return 0;
}

int RunInfo(const Args& args) {
  if (!args.Has("dir")) return Usage();
  auto store = MaskStore::Open(args.Get("dir"));
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
    return 1;
  }
  const MaskStore& s = **store;
  std::printf("store: %s\n", s.dir().c_str());
  std::printf("masks: %lld (%s)\n", static_cast<long long>(s.num_masks()),
              s.kind() == StorageKind::kRawFloat32 ? "raw float32"
                                                   : "compressed");
  std::printf("shards: %d\n", s.num_shards());
  std::printf("data bytes: %.2f MiB\n", s.TotalDataBytes() / 1048576.0);
  if (s.num_masks() > 0) {
    std::printf("mask shape: %dx%d\n", s.meta(0).width, s.meta(0).height);
    std::map<ModelId, int64_t> by_model;
    std::map<ImageId, int64_t> images;
    for (MaskId id = 0; id < s.num_masks(); ++id) {
      ++by_model[s.meta(id).model_id];
      ++images[s.meta(id).image_id];
    }
    std::printf("images: %zu\n", images.size());
    for (const auto& [model, count] : by_model) {
      std::printf("  model %d: %lld masks\n", model,
                  static_cast<long long>(count));
    }
  }
  return 0;
}

/// The one dataset configuration of every command that opens a store
/// (query, stats, serve, replay); the flag rules are in the header comment
/// and Usage(). The CHI cell defaults to side/8 of the store's masks, read
/// from its manifest (112 px, the generator's default, for an empty store).
Result<DatasetConfig> DatasetConfigFromArgs(const Args& args,
                                            int64_t def_cache_mib) {
  const std::string dir = args.Get("dir");
  MS_ASSIGN_OR_RETURN(const int64_t gen, ReadStoreGeneration(dir));
  MS_ASSIGN_OR_RETURN(const internal::ParsedManifest manifest,
                      internal::ReadMaskStoreManifest(GenerationDir(dir, gen)));
  const int32_t side = manifest.metas.empty() ? 112 : manifest.metas[0].width;

  DatasetConfig config;
  const int64_t mib =
      std::max<int64_t>(0, args.GetInt("cache-mib", def_cache_mib));
  const std::shared_ptr<BufferPool> pool = BufferPool::MaybeCreate(
      nullptr, static_cast<uint64_t>(mib) << 20,
      static_cast<int32_t>(args.GetInt("cache-shards", 8)),
      args.Get("cache-admission", "scan") == "all"
          ? CacheAdmission::kAdmitAll
          : CacheAdmission::kScanResistant);
  config.store.cache = pool;
  SessionOptions& session = config.session;
  session.cache = pool;
  session.chi.cell_width = session.chi.cell_height =
      static_cast<int32_t>(args.GetInt("cell", std::max(1, side / 8)));
  session.chi.num_bins = static_cast<int32_t>(args.GetInt("bins", 16));
  // Modest verification batches give the executors frequent deadline /
  // cancel checkpoints; results are batch-independent.
  session.verify_batch = static_cast<size_t>(args.GetInt("verify-batch", 32));
  session.incremental = args.Has("incremental");
  session.use_index = !args.Has("no-index");
  session.index_path = args.Get("index-path");
  session.attach_index = args.Has("attach-index");
  QueryServiceOptions& service = config.service;
  service.num_workers = static_cast<size_t>(args.GetInt("workers", 4));
  service.max_queue_depth =
      static_cast<size_t>(args.GetInt("queue-depth", 256));
  service.max_queued_bytes =
      static_cast<uint64_t>(args.GetInt("max-queued-mib", 1024)) << 20;
  service.default_deadline_seconds = args.GetInt("deadline-ms", 0) / 1e3;
  service.trace_sample_rate =
      std::strtod(args.Get("trace-sample", "0").c_str(), nullptr);
  return config;
}

/// Registers --dir as dataset --name (default "default") in `catalog` under
/// `config` and prints its banner; on failure (of either step) prints the
/// error and returns null. The `-- session:` line is what the record/replay
/// smoke compares between `serve --port` and `replay`.
Dataset* OpenDataset(Catalog* catalog, const Args& args,
                     const Result<DatasetConfig>& config) {
  auto opened = config.ok() ? catalog->Register(args.Get("name", "default"),
                                                args.Get("dir"), *config)
                            : Result<Dataset*>(config.status());
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return nullptr;
  }
  Dataset* ds = *opened;
  const SessionOptions& s = ds->session()->options();
  std::printf("-- dataset \"%s\": %lld masks, %.2f MiB\n", ds->name().c_str(),
              static_cast<long long>(ds->store().num_masks()),
              ds->store().TotalDataBytes() / 1048576.0);
  std::printf("-- session: CHI cell %dx%d px, %d bins, verify batch %zu\n",
              s.chi.cell_width, s.chi.cell_height, s.chi.num_bins,
              s.verify_batch);
  if (!s.incremental && s.use_index) {
    std::printf("-- index built in %.2fs\n",
                ds->session()->index_build_seconds());
  }
  return ds;
}

/// Executes a bound query of any kind, discarding the results (the
/// cache-warming workload of `stats`).
Status ExecuteBoundQuery(Session* session, const sql::BoundQuery& bound) {
  switch (bound.kind) {
    case sql::BoundQuery::Kind::kFilter:
      return session->Filter(bound.filter).status();
    case sql::BoundQuery::Kind::kTopK:
      return session->TopK(bound.topk).status();
    case sql::BoundQuery::Kind::kAggregation:
      return session->Aggregate(bound.agg).status();
    case sql::BoundQuery::Kind::kMaskAgg:
      return session->MaskAggregate(bound.mask_agg).status();
  }
  return Status::Internal("unknown bound query kind");
}

std::string ExplainBound(const sql::BoundQuery& bound) {
  switch (bound.kind) {
    case sql::BoundQuery::Kind::kFilter:
      return ExplainFilter(bound.filter);
    case sql::BoundQuery::Kind::kTopK:
      return ExplainTopK(bound.topk);
    case sql::BoundQuery::Kind::kAggregation:
      return ExplainAggregation(bound.agg);
    case sql::BoundQuery::Kind::kMaskAgg:
      return ExplainMaskAgg(bound.mask_agg);
  }
  return "<unknown>";
}

int RunExplain(const Args& args) {
  if (!args.Has("sql")) return Usage();
  auto bound = sql::ParseAndBind(args.Get("sql"));
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", ExplainBound(*bound).c_str());
  return 0;
}

/// Rewrites a store into `--out` with `--shards` data files. Blob bytes,
/// metadata, and mask ids are preserved exactly (see ReshardMaskStore).
int RunShard(const Args& args) {
  if (!args.Has("dir") || !args.Has("out")) return Usage();
  const int64_t shards = args.GetInt("shards", 4);
  auto store = MaskStore::Open(args.Get("dir"));
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
    return 1;
  }
  const Status st = ReshardMaskStore(**store, args.Get("out"),
                                     static_cast<int32_t>(shards));
  if (!st.ok()) {
    std::fprintf(stderr, "shard failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("resharded %lld masks (%d -> %lld shards) into %s\n",
              static_cast<long long>((*store)->num_masks()),
              (*store)->num_shards(), static_cast<long long>(shards),
              args.Get("out").c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// serve --script / replay / stats --script: one trace format, one replayer
// ---------------------------------------------------------------------------

/// Loads the trace file at `path`, printing the error (which names the
/// bad line) on failure.
std::optional<std::vector<obs::RecordedRequest>> LoadTraceFile(
    const std::string& path) {
  auto loaded = obs::LoadTrace(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(*loaded);
}

/// Replays `once` into `dataset` through ReplayTrace, `copies` times over
/// (closed loop: --clients N; open loop: --speed X), and prints the outcome
/// classes. Shed / expired / cancelled requests are expected service
/// behaviour; `errors` counts the genuine failures.
Result<ReplayStats> ReplayRequests(
    Catalog* catalog, const Dataset& dataset,
    const std::vector<obs::RecordedRequest>& once, const Args& args,
    bool open_loop, int64_t copies) {
  std::vector<obs::RecordedRequest> requests;
  requests.reserve(once.size() * static_cast<size_t>(copies));
  for (int64_t c = 0; c < copies; ++c) {
    requests.insert(requests.end(), once.begin(), once.end());
  }
  ReplayOptions ropts;
  ropts.open_loop = open_loop;
  ropts.speed = std::strtod(args.Get("speed", "1").c_str(), nullptr);
  ropts.closed_loop_clients =
      static_cast<int>(std::max<int64_t>(1, args.GetInt("clients", 4)));
  // A recorded trace names the dataset it was served from; replaying into
  // a local catalog re-targets every line at the dataset opened here.
  ropts.dataset_override = dataset.name();
  MS_ASSIGN_OR_RETURN(const ReplayStats stats,
                      ReplayTrace(catalog, requests, ropts));
  dataset.service()->Drain();  // settle the gauges before any snapshot

  if (open_loop) {
    std::printf("-- replayed %zu requests (open loop, speed %gx)\n",
                requests.size(), ropts.speed);
  } else {
    std::printf("-- replayed %zu requests (closed loop, %d client(s))\n",
                requests.size(), ropts.closed_loop_clients);
  }
  std::printf("-- %llu submitted, %llu completed, %llu failed in %.3fs "
              "(%.1f qps): %llu shed, %llu deadline-expired, %llu cancelled, "
              "%llu errors\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              stats.wall_seconds,
              stats.wall_seconds > 0 ? stats.submitted / stats.wall_seconds
                                     : 0.0,
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.deadline_expired),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.errors));
  for (size_t c = 0; c < kNumPriorityClasses; ++c) {
    if (stats.by_class[c] == 0) continue;
    std::printf("   class %-12s %llu\n",
                PriorityClassToString(static_cast<PriorityClass>(c)),
                static_cast<unsigned long long>(stats.by_class[c]));
  }
  if (stats.errors > 0) {
    std::fprintf(stderr, "query failed: %s\n", stats.first_error.c_str());
  }
  return stats;
}

/// Prints the serving sections shared by `serve`, `replay` and `stats`:
/// service counters, the metadata cache, and the buffer pool.
void PrintServingStats(const Dataset& dataset) {
  const BufferPool* pool = dataset.session()->cache();
  std::printf("service:\n%s", dataset.service()->Stats().ToString().c_str());
  const MetadataCache::CacheStats mstats = dataset.metadata()->stats();
  std::printf("metadata cache: %llu hits / %llu misses, %zu entries\n",
              static_cast<unsigned long long>(mstats.hits),
              static_cast<unsigned long long>(mstats.misses), mstats.entries);
  if (pool != nullptr) {
    std::printf("cache: %s\n", pool->Stats().ToString().c_str());
  } else {
    std::printf("cache: disabled (--cache-mib 0)\n");
  }
}

/// `serve --script F` (closed loop, --clients x --repeat copies) and
/// `replay --trace F`: open the dataset, replay, print the serving stats.
/// Exits non-zero iff a hard error occurred.
int RunReplayCommand(const Args& args, const std::string& path,
                     bool open_loop, int64_t copies) {
  const auto requests = LoadTraceFile(path);
  if (!requests) return 1;
  Catalog catalog;
  Dataset* dataset = OpenDataset(
      &catalog, args, DatasetConfigFromArgs(args, /*def_cache_mib=*/256));
  if (dataset == nullptr) return 1;
  auto stats =
      ReplayRequests(&catalog, *dataset, *requests, args, open_loop, copies);
  if (!stats.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  PrintServingStats(*dataset);
  return stats->errors == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve --port / client: the socket server and its client (docs/NETWORK.md)
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

/// Network serve mode: registers --dir as one named dataset in a Catalog,
/// starts the NetServer, and runs until SIGINT/SIGTERM — then shuts down
/// cleanly (stats printed, in-flight queries drained or cancelled, exit 0).
int RunServeNetwork(const Args& args) {
  if (!args.Has("dir")) return Usage();

  // Observability wiring (docs/OBSERVABILITY.md): --slow-ms N keeps a
  // slow-query log of requests over N ms (and forces every request to be
  // traced so the log carries full span breakdowns); --trace-sample R
  // samples a fraction of requests into traces without the log;
  // --record FILE captures every admitted request as a replayable trace.
  std::unique_ptr<obs::SlowQueryLog> slow_log;
  if (args.Has("slow-ms")) {
    obs::SlowQueryLog::Options lopts;
    lopts.threshold_seconds = args.GetInt("slow-ms", 100) / 1e3;
    slow_log = std::make_unique<obs::SlowQueryLog>(lopts);
  }
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (args.Has("record")) {
    auto opened = obs::TraceRecorder::Open(args.Get("record"));
    if (!opened.ok()) {
      std::fprintf(stderr, "record failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    recorder = std::move(*opened);
  }

  auto config = DatasetConfigFromArgs(args, /*def_cache_mib=*/256);
  if (config.ok()) config->service.slow_query_log = slow_log.get();
  Catalog catalog;
  Dataset* dataset = OpenDataset(&catalog, args, config);
  if (dataset == nullptr) return 1;

  // --replicas N puts a replicated tier (docs/REPLICATION.md) behind the
  // wire protocol: N in-process replicas of --dir, health-checked routing
  // with failover, installed as the dataset's submission path. --fault
  // schedules scripted faults ("kill:r1:40", comma-separated) against the
  // tier — the CI fault-injection smoke uses it to kill a replica mid-replay
  // and assert clients see only typed errors.
  const int replicas = static_cast<int>(args.GetInt("replicas", 0));
  ReplicaGroup group;
  FaultInjector injector;
  std::unique_ptr<Router> router;
  if (replicas > 1) {
    ReplicaConfig rconfig;
    rconfig.store = config->store;
    rconfig.session = config->session;
    rconfig.service = config->service;
    if (Status s = group.AddInProcess("r", args.Get("dir"), rconfig,
                                      static_cast<size_t>(replicas));
        !s.ok()) {
      std::fprintf(stderr, "replica open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    RouterOptions ropts;
    ropts.failure_threshold =
        static_cast<int>(args.GetInt("failure-threshold", 1));
    ropts.probe_interval_seconds = args.GetInt("probe-interval-ms", 20) / 1e3;
    ropts.max_attempts = static_cast<int>(args.GetInt("max-attempts", 4));
    ropts.num_workers = config->service.num_workers;
    for (std::stringstream faults(args.Get("fault")); faults.good();) {
      std::string spec;
      if (!std::getline(faults, spec, ',') || spec.empty()) break;
      auto fault = FaultInjector::Parse(spec);
      if (!fault.ok()) {
        std::fprintf(stderr, "bad --fault spec \"%s\": %s\n", spec.c_str(),
                     fault.status().ToString().c_str());
        return 1;
      }
      injector.Schedule(*fault);
      ropts.fault_injector = &injector;
    }
    router = std::make_unique<Router>(&group, ropts);
    AttachRouter(dataset, router.get());
    std::printf("-- replicated tier: %d replicas of \"%s\"%s\n", replicas,
                args.Get("dir").c_str(),
                ropts.fault_injector ? " (fault injection armed)" : "");
  }

  net::NetServerOptions sopts;
  sopts.bind_address = args.Get("bind", "127.0.0.1");
  sopts.port = static_cast<uint16_t>(args.GetInt("port", 0));
  sopts.max_connections = static_cast<size_t>(args.GetInt("max-conns", 256));
  sopts.slow_log = slow_log.get();
  sopts.recorder = recorder.get();
  auto server = net::NetServer::Start(&catalog, sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "server failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  // Scripts wait for this exact line before connecting.
  std::printf("listening on %s:%u\n", sopts.bind_address.c_str(),
              (*server)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const net::NetServer::Stats net_stats = (*server)->stats();
  (*server)->Stop();
  std::printf("-- shutdown: %llu connections, %llu requests, "
              "%llu protocol errors\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.requests),
              static_cast<unsigned long long>(net_stats.protocol_errors));
  if (router != nullptr) {
    const RouterStats rstats = router->Stats();
    std::printf("-- router: %llu routed, %llu succeeded, %llu retries, "
                "%llu failovers, %llu shed, %llu injected\n",
                static_cast<unsigned long long>(rstats.routed),
                static_cast<unsigned long long>(rstats.succeeded),
                static_cast<unsigned long long>(rstats.retries),
                static_cast<unsigned long long>(rstats.failovers),
                static_cast<unsigned long long>(rstats.shed),
                static_cast<unsigned long long>(rstats.injected));
    for (const RouterReplicaStats& r : rstats.replicas) {
      std::printf("   replica %-8s %-10s routed %llu, failed %llu\n",
                  r.name.c_str(), ToString(r.health),
                  static_cast<unsigned long long>(r.routed),
                  static_cast<unsigned long long>(r.failed));
    }
    const FaultInjector::Stats fstats = injector.stats();
    if (fstats.requests_seen > 0) {
      std::printf("   faults: %llu kills, %llu errors, %llu stalls\n",
                  static_cast<unsigned long long>(fstats.kills_fired),
                  static_cast<unsigned long long>(fstats.errors_injected),
                  static_cast<unsigned long long>(fstats.stalls_injected));
    }
    router->Shutdown();
    group.StopAll();
  }
  PrintServingStats(*dataset);
  if (slow_log != nullptr) {
    std::printf("-- slow-query log: %llu over %.0f ms\n",
                static_cast<unsigned long long>(slow_log->recorded()),
                slow_log->threshold_seconds() * 1e3);
  }
  if (recorder != nullptr) {
    recorder->Flush();
    std::printf("-- recorded %llu requests to %s\n",
                static_cast<unsigned long long>(recorder->recorded()),
                recorder->path().c_str());
  }
  catalog.ShutdownAll();
  return 0;
}

/// Prints a wire query result the way `query` prints in-process results.
void PrintWireResult(const net::Response& resp, size_t print_limit) {
  const net::WireQueryResult& q = resp.result;
  switch (static_cast<QueryRequest::Kind>(q.kind)) {
    case QueryRequest::Kind::kFilter:
      std::printf("-- %zu masks match\n", q.mask_ids.size());
      for (size_t i = 0; i < q.mask_ids.size() && i < print_limit; ++i) {
        std::printf("mask %lld\n", static_cast<long long>(q.mask_ids[i]));
      }
      if (q.mask_ids.size() > print_limit) std::printf("...\n");
      break;
    case QueryRequest::Kind::kTopK:
      for (size_t i = 0; i < q.scored.size() && i < print_limit; ++i) {
        std::printf("%3zu. mask %lld  value %.4f\n", i + 1,
                    static_cast<long long>(q.scored[i].first),
                    q.scored[i].second);
      }
      break;
    case QueryRequest::Kind::kAggregation:
    case QueryRequest::Kind::kMaskAgg:
      for (size_t i = 0; i < q.scored.size() && i < print_limit; ++i) {
        std::printf("%3zu. group %lld  value %.4f\n", i + 1,
                    static_cast<long long>(q.scored[i].first),
                    q.scored[i].second);
      }
      break;
  }
  std::printf("-- queued %.1f ms, executed %.1f ms\n", q.queue_seconds * 1e3,
              q.exec_seconds * 1e3);
}

/// Comma-separated parameter values for --params.
Result<std::vector<double>> ParseParamList(const std::string& text) {
  std::vector<double> params;
  if (text.empty()) return params;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad parameter value: " + item);
    }
    params.push_back(v);
  }
  return params;
}

/// Socket client: ping (default), --list, one-shot --sql, or prepared
/// replay (--prepare SQL --params "v1,v2" --repeat N).
int RunClient(const Args& args) {
  if (!args.Has("port")) return Usage();
  net::NetClientOptions copts;
  copts.recv_timeout_seconds = args.GetInt("timeout-ms", 30000) / 1e3;
  auto client = net::NetClient::Connect(
      args.Get("host", "127.0.0.1"),
      static_cast<uint16_t>(args.GetInt("port", 0)), copts);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  if (args.Has("metrics")) {
    auto text = (*client)->Metrics(args.Has("json"));
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", text->c_str());
    if (!text->empty() && text->back() != '\n') std::printf("\n");
    return 0;
  }

  if (args.Has("slow")) {
    auto text = (*client)->SlowQueries();
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", text->c_str());
    return 0;
  }

  if (args.Has("list")) {
    auto datasets = (*client)->ListDatasets();
    if (!datasets.ok()) {
      std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
      return 1;
    }
    for (const net::DatasetInfo& d : *datasets) {
      std::printf("%s: %lld masks, %.2f MiB\n", d.name.c_str(),
                  static_cast<long long>(d.num_masks),
                  d.total_bytes / 1048576.0);
    }
    return 0;
  }

  const std::string dataset = args.Get("dataset", "default");
  const int64_t repeat = std::max<int64_t>(1, args.GetInt("repeat", 1));
  const size_t print_limit =
      static_cast<size_t>(args.GetInt("limit-print", 10));

  if (args.Has("prepare")) {
    auto handle = (*client)->Prepare(dataset, args.Get("prepare"));
    if (!handle.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   handle.status().ToString().c_str());
      return 1;
    }
    auto params = ParseParamList(args.Get("params"));
    if (!params.ok()) {
      std::fprintf(stderr, "%s\n", params.status().ToString().c_str());
      return 1;
    }
    std::printf("-- prepared statement %llu (%u parameters)\n",
                static_cast<unsigned long long>(handle->stmt_id),
                handle->num_params);
    Stopwatch wall;
    net::Response last;
    for (int64_t r = 0; r < repeat; ++r) {
      auto resp = (*client)->Execute(handle->stmt_id, *params);
      if (!resp.ok()) {
        std::fprintf(stderr, "execute failed: %s\n",
                     resp.status().ToString().c_str());
        return 1;
      }
      last = std::move(*resp);
    }
    const double seconds = wall.ElapsedSeconds();
    std::printf("-- %lld execution(s) in %.3fs (%.1f qps)\n",
                static_cast<long long>(repeat), seconds,
                seconds > 0 ? static_cast<double>(repeat) / seconds : 0.0);
    PrintWireResult(last, print_limit);
    const Status closed = (*client)->CloseStmt(handle->stmt_id);
    if (!closed.ok()) {
      std::fprintf(stderr, "close failed: %s\n", closed.ToString().c_str());
      return 1;
    }
    return 0;
  }

  if (args.Has("sql")) {
    net::Response last;
    Stopwatch wall;
    const uint64_t trace_id =
        static_cast<uint64_t>(args.GetInt("trace-id", 0));
    for (int64_t r = 0; r < repeat; ++r) {
      auto resp = (*client)->Query(dataset, args.Get("sql"), /*tenant=*/0,
                                   PriorityClass::kNormal,
                                   /*deadline_seconds=*/0, trace_id);
      if (!resp.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     resp.status().ToString().c_str());
        return 1;
      }
      last = std::move(*resp);
    }
    const double seconds = wall.ElapsedSeconds();
    if (repeat > 1) {
      std::printf("-- %lld queries in %.3fs (%.1f qps)\n",
                  static_cast<long long>(repeat), seconds,
                  seconds > 0 ? static_cast<double>(repeat) / seconds : 0.0);
    }
    PrintWireResult(last, print_limit);
    return 0;
  }

  const Status st = (*client)->Ping();
  if (!st.ok()) {
    std::fprintf(stderr, "ping failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("pong from %s:%lld\n", args.Get("host", "127.0.0.1").c_str(),
              static_cast<long long>(args.GetInt("port", 0)));
  return 0;
}

int RunServe(const Args& args) {
  // --port switches serve into network mode (docs/NETWORK.md); without it
  // the command replays a script: --clients N closed-loop clients share
  // N x --repeat R copies of it.
  if (args.Has("port")) return RunServeNetwork(args);
  if (!args.Has("dir") || !args.Has("script")) return Usage();
  const int64_t clients = std::max<int64_t>(1, args.GetInt("clients", 4));
  const int64_t repeat = std::max<int64_t>(1, args.GetInt("repeat", 1));
  return RunReplayCommand(args, args.Get("script"), /*open_loop=*/false,
                          clients * repeat);
}

/// Offline maintenance view of a store directory (docs/COMPACTION.md):
/// current generation, live/tombstoned counts, dead bytes, and the
/// persisted compaction counters. All read from sidecars — no ingestor is
/// opened, so this works on a store another process is serving.
void PrintMaintenanceSection(const std::string& dir) {
  auto gen = ReadStoreGeneration(dir);
  if (!gen.ok()) {
    std::printf("maintenance: unreadable (%s)\n",
                gen.status().ToString().c_str());
    return;
  }
  const std::string gen_root = GenerationDir(dir, *gen);
  int64_t tombstoned = 0;
  uint64_t dead_bytes = 0;
  int64_t physical = -1;
  if (auto tombstones = ReadMaskStoreTombstones(gen_root); tombstones.ok()) {
    tombstoned = static_cast<int64_t>(tombstones->size());
    if (auto manifest = internal::ReadMaskStoreManifest(gen_root);
        manifest.ok()) {
      physical = static_cast<int64_t>(manifest->sizes.size());
      for (const MaskId t : *tombstones) {
        if (t >= 0 && t < physical) dead_bytes += manifest->sizes[t];
      }
    }
  }
  std::printf("maintenance:\n");
  std::printf("  generation: %lld\n", static_cast<long long>(*gen));
  if (physical >= 0) {
    std::printf("  live masks: %lld  tombstoned: %lld  dead bytes: %.2f MiB\n",
                static_cast<long long>(physical - tombstoned),
                static_cast<long long>(tombstoned), dead_bytes / 1048576.0);
  }
  auto counters = ReadMaintenanceCounters(dir);
  if (!counters.ok()) {
    std::printf("  counters: unreadable (%s)\n",
                counters.status().ToString().c_str());
    return;
  }
  std::printf("  compactions completed: %lld (%lld failed)\n",
              static_cast<long long>(counters->compactions_completed),
              static_cast<long long>(counters->compactions_failed));
  if (counters->compactions_completed > 0) {
    std::printf("  last compaction: %.2f ms (swap pause %.2f ms), "
                "to generation %lld\n",
                counters->last_compaction_ms, counters->last_swap_pause_ms,
                static_cast<long long>(counters->last_generation));
    std::printf("  totals: %.2f MiB copied, %.2f MiB reclaimed, "
                "%lld masks dropped\n",
                counters->bytes_copied_total / 1048576.0,
                counters->dead_bytes_reclaimed_total / 1048576.0,
                static_cast<long long>(counters->masks_dropped_total));
  }
}

/// Opens the dataset behind the buffer-pool cache, optionally runs one SQL
/// query `--repeat` times through its session (--sql)
/// and/or replays a script through the QueryService (--script), and prints
/// one observability surface across cache and service: store counters +
/// CacheStats (docs/CACHING.md) + service counters (docs/SERVING.md). The
/// default --repeat 2 makes warm-cache behavior (hit ratio > 0) visible
/// immediately.
int RunStats(const Args& args) {
  if (!args.Has("dir")) return Usage();
  std::optional<std::vector<obs::RecordedRequest>> script;
  if (args.Has("script")) {
    script = LoadTraceFile(args.Get("script"));
    if (!script) return 1;
  }
  Catalog catalog;
  Dataset* dataset = OpenDataset(
      &catalog, args, DatasetConfigFromArgs(args, /*def_cache_mib=*/256));
  if (dataset == nullptr) return 1;
  Session* session = dataset->session();
  const MaskStore& s = dataset->store();

  if (args.Has("sql")) {
    auto bound = sql::ParseAndBind(args.Get("sql"));
    if (!bound.ok()) {
      std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
      return 1;
    }
    const int64_t repeat = std::max<int64_t>(1, args.GetInt("repeat", 2));
    for (int64_t r = 0; r < repeat; ++r) {
      const Status st = ExecuteBoundQuery(session, *bound);
      if (!st.ok()) {
        std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    std::printf("ran query %lld time(s)\n", static_cast<long long>(repeat));
  }

  // Service counters: replay a script through the QueryService so the
  // operator sees admission / deadline / per-class latency behaviour next
  // to the cache stats it produced. Hard query errors are reported in the
  // exit code only *after* the observability sections print — this command
  // exists to diagnose, so failure must not suppress the diagnostics.
  bool script_failed = false;
  if (script) {
    auto stats = ReplayRequests(&catalog, *dataset, *script, args,
                                /*open_loop=*/false, /*copies=*/1);
    if (!stats.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    script_failed = stats->errors > 0;
  }

  std::printf("store: %s\n", s.dir().c_str());
  std::printf("  masks: %lld  shards: %d  data: %.2f MiB (%s)\n",
              static_cast<long long>(s.num_masks()), s.num_shards(),
              s.TotalDataBytes() / 1048576.0,
              s.kind() == StorageKind::kRawFloat32 ? "raw float32"
                                                   : "compressed");
  std::printf("  physical reads: %llu masks, %.2f MiB\n",
              static_cast<unsigned long long>(s.masks_loaded()),
              s.bytes_read() / 1048576.0);
  PrintMaintenanceSection(args.Get("dir"));
  PrintServingStats(*dataset);
  if (const auto* cached = dynamic_cast<const CachedMaskStore*>(&s)) {
    std::printf("  store blob traffic: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(cached->cache_hits()),
                static_cast<unsigned long long>(cached->cache_misses()));
  }
  if (session->chis() != nullptr) {
    std::printf("  resident per-mask CHIs: %zu\n", session->chis()->size());
  }

  // --metrics dumps the process-wide registry (a scrape of every component
  // the commands above opened); --json switches the exposition.
  if (args.Has("metrics")) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    const std::string text = args.Has("json") ? reg.Json()
                                              : reg.PrometheusText();
    std::printf("%s", text.c_str());
    if (!text.empty() && text.back() != '\n') std::printf("\n");
  }

  // --watch S: incremental refresh loop — re-run the --sql workload each
  // tick and print only the registry samples that moved, as deltas. Runs
  // until SIGINT, or --watch-count ticks (the testable shape).
  if (args.Has("watch")) {
    const double interval =
        std::max(0.0, std::strtod(args.Get("watch", "2").c_str(), nullptr));
    const int64_t ticks = args.GetInt("watch-count", 0);
    std::signal(SIGINT, HandleStopSignal);
    std::vector<obs::MetricsRegistry::Sample> prev =
        obs::MetricsRegistry::Default().Samples();
    for (int64_t tick = 0; (ticks <= 0 || tick < ticks) && !g_stop_requested;
         ++tick) {
      if (interval > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      }
      if (args.Has("sql")) {
        if (auto bound = sql::ParseAndBind(args.Get("sql")); bound.ok()) {
          (void)ExecuteBoundQuery(session, *bound);
        }
      }
      std::vector<obs::MetricsRegistry::Sample> cur =
          obs::MetricsRegistry::Default().Samples();
      std::printf("-- watch tick %lld\n", static_cast<long long>(tick + 1));
      // Samples() is sorted by name; walk both snapshots in step. A name
      // only in `cur` is a new series (delta = its whole value).
      size_t i = 0;
      for (const obs::MetricsRegistry::Sample& sample : cur) {
        while (i < prev.size() && prev[i].name < sample.name) ++i;
        const double before =
            (i < prev.size() && prev[i].name == sample.name) ? prev[i].value
                                                             : 0;
        if (sample.value != before) {
          std::printf("  %s %.6g (%+.6g)\n", sample.name.c_str(), sample.value,
                      sample.value - before);
        }
      }
      std::fflush(stdout);
      prev = std::move(cur);
    }
  }
  return script_failed ? 1 : 0;
}

/// Imports a directory of .npy saliency maps into a mask store. Files are
/// taken in lexicographic order; `--models M` interprets consecutive runs of
/// M files as the masks of one image.
int RunImport(const Args& args) {
  if (!args.Has("dir") || !args.Has("npy-dir")) return Usage();
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(args.Get("npy-dir"), ec)) {
    if (entry.path().extension() == ".npy") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot list %s: %s\n", args.Get("npy-dir").c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no .npy files in %s\n", args.Get("npy-dir").c_str());
    return 1;
  }
  const int64_t models = std::max<int64_t>(1, args.GetInt("models", 1));
  auto writer = MaskStoreWriter::Create(args.Get("dir"));
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < files.size(); ++i) {
    auto mask = ReadNpyFile(files[i]);
    if (!mask.ok()) {
      std::fprintf(stderr, "%s: %s\n", files[i].c_str(),
                   mask.status().ToString().c_str());
      return 1;
    }
    MaskMeta meta;
    meta.image_id = static_cast<ImageId>(i / models);
    meta.model_id = static_cast<ModelId>(i % models);
    meta.object_box = mask->Extent();  // unknown: default to the full mask
    auto id = (*writer)->Append(meta, *mask);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  const Status st = (*writer)->Finish();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("imported %zu masks into %s\n", files.size(),
              args.Get("dir").c_str());
  return 0;
}

/// Exports one mask back to .npy.
int RunExport(const Args& args) {
  if (!args.Has("dir") || !args.Has("mask-id") || !args.Has("out")) {
    return Usage();
  }
  auto store = MaskStore::Open(args.Get("dir"));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  auto mask = (*store)->LoadMask(args.GetInt("mask-id", 0));
  if (!mask.ok()) {
    std::fprintf(stderr, "%s\n", mask.status().ToString().c_str());
    return 1;
  }
  const Status st = WriteNpyFile(args.Get("out"), *mask);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%dx%d)\n", args.Get("out").c_str(), mask->width(),
              mask->height());
  return 0;
}

int RunQuery(const Args& args) {
  if (!args.Has("dir") || !args.Has("sql")) return Usage();
  // The dataset flags' store and session parts: one pool for the store's
  // mask blobs and the session's CHI caches, a single byte budget
  // (docs/CACHING.md).
  auto config = DatasetConfigFromArgs(args, /*def_cache_mib=*/0);
  if (!config.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  const BufferPool* pool = config->store.cache.get();
  auto store = MaskStore::Open(args.Get("dir"), config->store);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
    return 1;
  }
  auto bound = sql::ParseAndBind(args.Get("sql"));
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  if (args.Has("explain")) {
    std::printf("%s\n", ExplainBound(*bound).c_str());
  }

  const SessionOptions& opts = config->session;
  auto session = Session::Open(store->get(), opts);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  if (!opts.incremental && opts.use_index) {
    std::printf("-- index built in %.2fs\n", (*session)->index_build_seconds());
  }

  // With a pool configured, report its stats on every exit path.
  struct CacheReport {
    const BufferPool* pool;
    ~CacheReport() {
      if (pool != nullptr) {
        std::printf("-- cache: %s\n", pool->Stats().ToString().c_str());
      }
    }
  } cache_report{pool};

  const size_t print_limit =
      static_cast<size_t>(args.GetInt("limit-print", 20));
  switch (bound->kind) {
    case sql::BoundQuery::Kind::kFilter: {
      auto r = (*session)->Filter(bound->filter);
      if (!r.ok()) break;
      std::printf("-- %zu masks match\n", r->mask_ids.size());
      for (size_t i = 0; i < r->mask_ids.size() && i < print_limit; ++i) {
        std::printf("%s\n", (*store)->meta(r->mask_ids[i]).ToString().c_str());
      }
      if (r->mask_ids.size() > print_limit) std::printf("...\n");
      std::printf("-- %s\n", SummarizeStats(r->stats).c_str());
      if (opts.incremental && !opts.index_path.empty()) {
        (void)(*session)->Save();
      }
      return 0;
    }
    case sql::BoundQuery::Kind::kTopK: {
      auto r = (*session)->TopK(bound->topk);
      if (!r.ok()) break;
      for (size_t i = 0; i < r->items.size() && i < print_limit; ++i) {
        std::printf("%3zu. mask %lld  value %.4f\n", i + 1,
                    static_cast<long long>(r->items[i].mask_id),
                    r->items[i].value);
      }
      std::printf("-- %s\n", SummarizeStats(r->stats).c_str());
      return 0;
    }
    case sql::BoundQuery::Kind::kAggregation: {
      auto r = (*session)->Aggregate(bound->agg);
      if (!r.ok()) break;
      for (size_t i = 0; i < r->groups.size() && i < print_limit; ++i) {
        std::printf("%3zu. group %lld  aggregate %.4f\n", i + 1,
                    static_cast<long long>(r->groups[i].group),
                    r->groups[i].value);
      }
      std::printf("-- %s\n", SummarizeStats(r->stats).c_str());
      return 0;
    }
    case sql::BoundQuery::Kind::kMaskAgg: {
      auto r = (*session)->MaskAggregate(bound->mask_agg);
      if (!r.ok()) break;
      for (size_t i = 0; i < r->groups.size() && i < print_limit; ++i) {
        std::printf("%3zu. group %lld  CP(derived) %.0f\n", i + 1,
                    static_cast<long long>(r->groups[i].group),
                    r->groups[i].value);
      }
      std::printf("-- %s\n", SummarizeStats(r->stats).c_str());
      return 0;
    }
  }
  std::fprintf(stderr, "query execution failed\n");
  return 1;
}

/// Streaming ingest (docs/INGEST.md): appends --count synthetic saliency
/// masks to --dir across --epochs atomic epoch publishes. Creates the
/// store on first use; resumes at the last durable epoch otherwise (torn
/// unpublished tails are truncated on open). With --serve-queries N the
/// publishes race N filter queries per client through a QueryService that
/// pins the current epoch snapshot at admission — the ingest-while-serving
/// CI smoke.
int RunIngest(const Args& args) {
  if (!args.Has("dir")) return Usage();
  const std::string dir = args.Get("dir");
  const int64_t count = std::max<int64_t>(1, args.GetInt("count", 200));
  const int64_t epochs = std::max<int64_t>(1, args.GetInt("epochs", 4));
  const int32_t side = static_cast<int32_t>(args.GetInt("width", 64));

  IngestorOptions iopts;
  iopts.num_shards = static_cast<int32_t>(args.GetInt("shards", 4));
  if (args.Has("compressed")) iopts.kind = StorageKind::kCompressed;
  iopts.chi.cell_width = iopts.chi.cell_height = std::max(1, side / 8);
  iopts.chi.num_bins = static_cast<int32_t>(args.GetInt("bins", 16));
  iopts.cache_budget_bytes =
      static_cast<uint64_t>(std::max<int64_t>(0, args.GetInt("cache-mib", 64)))
      << 20;
  iopts.cache_shards = static_cast<int32_t>(args.GetInt("cache-shards", 8));

  // Resume at the last durable epoch, or create on first use. A corrupt
  // generation sidecar is an error here, never a Create that wipes the
  // store.
  bool resume = false;
  auto opened = Ingestor::OpenOrCreate(dir, iopts, &resume);
  if (!opened.ok()) {
    std::fprintf(stderr, "ingest open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Ingestor& ing = **opened;
  std::printf("%s %s at epoch %lld (watermark %lld)\n",
              resume ? "resumed" : "created", dir.c_str(),
              static_cast<long long>(ing.epoch()),
              static_cast<long long>(ing.watermark()));

  // The read side: closed-loop clients each running --serve-queries filter
  // queries against whatever epoch admission pins while the writer below
  // keeps publishing.
  const int64_t serve_queries = args.GetInt("serve-queries", 0);
  const int num_clients =
      static_cast<int>(std::max<int64_t>(1, args.GetInt("clients", 2)));
  std::unique_ptr<QueryService> service;
  std::vector<std::thread> clients;
  std::atomic<int64_t> queries_ok{0};
  std::atomic<int64_t> queries_failed{0};
  if (serve_queries > 0) {
    QueryServiceOptions sopts;
    sopts.num_workers = num_clients;
    sopts.session_resolver = [&ing]() -> SessionLease {
      std::shared_ptr<const Snapshot> snap = ing.snapshot();
      SessionLease lease;
      lease.session = snap->session();
      lease.epoch = snap->epoch();
      lease.pin = std::move(snap);
      return lease;
    };
    auto started = QueryService::Start(nullptr, sopts);
    if (!started.ok()) {
      std::fprintf(stderr, "service start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    service = std::move(*started);
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(static_cast<uint64_t>(9000 + c));
        for (int64_t i = 0; i < serve_queries; ++i) {
          FilterQuery q;
          CpTerm term;
          term.roi_source = RoiSource::kConstant;
          term.constant_roi = ROI{0, 0, side / 2, side / 2};
          term.range = ValueRange{0.5, 1.0};
          q.terms = {term};
          q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt,
                                           rng.NextDouble() * side);
          ServiceRequest req;
          req.tenant = c;
          req.query = QueryRequest::Filter(q);
          auto pending = service->Submit(req);
          if (!pending.ok()) {
            ++queries_failed;
            continue;
          }
          auto response = (*pending)->Wait();
          (response.ok() ? queries_ok : queries_failed)++;
        }
      });
    }
  }

  // The write side: --count appends across --epochs publishes, image ids
  // continuing from the resumed watermark. --delete-every N tombstones
  // every N-th appended mask right after its append (before any compaction
  // can renumber it); --compact-every E rewrites the store into a fresh
  // generation after every E-th publish.
  const int64_t delete_every = args.GetInt("delete-every", 0);
  const int64_t compact_every = args.GetInt("compact-every", 0);
  Compactor compactor(&ing);
  int64_t deletes_done = 0;
  int64_t publishes_done = 0;
  int64_t compactions_done = 0;
  int64_t compactions_failed = 0;
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));
  SaliencySpec spec;
  spec.width = spec.height = side;
  const int64_t per_epoch = std::max<int64_t>(1, (count + epochs - 1) / epochs);
  const int64_t base = ing.watermark();
  Stopwatch timer;
  for (int64_t i = 0; i < count; ++i) {
    const ROI box = GenerateObjectBox(&rng, side, side);
    Mask mask = GenerateSaliencyMask(&rng, spec, box, rng.NextBool(0.3));
    MaskMeta meta;
    meta.image_id = base + i;
    meta.model_id = 0;
    meta.mask_type = MaskType::kSaliencyMap;
    meta.object_box = box;
    auto id = ing.Append(meta, mask);
    if (!id.ok()) {
      std::fprintf(stderr, "append failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    if (delete_every > 0 && (i + 1) % delete_every == 0) {
      const Status st = ing.Delete(*id);
      if (!st.ok()) {
        std::fprintf(stderr, "delete failed: %s\n", st.ToString().c_str());
        return 1;
      }
      ++deletes_done;
    }
    if ((i + 1) % per_epoch == 0 || i + 1 == count) {
      const Status st = ing.Publish();
      if (!st.ok()) {
        std::fprintf(stderr, "publish failed: %s\n", st.ToString().c_str());
        return 1;
      }
      ++publishes_done;
      if (compact_every > 0 && publishes_done % compact_every == 0) {
        auto stats = compactor.Compact();
        if (stats.ok()) {
          ++compactions_done;
          std::printf("completed compaction: %s\n",
                      stats->ToString().c_str());
        } else {
          ++compactions_failed;
          std::fprintf(stderr, "compaction failed: %s\n",
                       stats.status().ToString().c_str());
        }
      }
    }
  }
  const double seconds = timer.ElapsedSeconds();

  for (auto& t : clients) t.join();
  if (service != nullptr) service->Drain();

  std::printf("ingested %lld masks in %.3fs (%.0f masks/s), now at epoch "
              "%lld (watermark %lld)\n",
              static_cast<long long>(count), seconds,
              seconds > 0 ? count / seconds : 0.0,
              static_cast<long long>(ing.epoch()),
              static_cast<long long>(ing.watermark()));
  std::printf("-- %s\n", ing.Stats().ToString().c_str());
  if (delete_every > 0 || compact_every > 0) {
    const MaintenanceCounters mc = compactor.Counters();
    std::printf("deleted %lld masks, reclaimed %.2f MiB\n",
                static_cast<long long>(deletes_done),
                mc.dead_bytes_reclaimed_total / 1048576.0);
    std::printf("compactions completed: %lld (%lld failed)\n",
                static_cast<long long>(compactions_done),
                static_cast<long long>(compactions_failed));
  }
  if (serve_queries > 0) {
    std::printf("served %lld queries while ingesting (%lld failed)\n",
                static_cast<long long>(queries_ok.load()),
                static_cast<long long>(queries_failed.load()));
    if (service != nullptr) service->Shutdown();
    // The smoke contract: the read side must have made progress.
    if (queries_ok.load() == 0) {
      std::fprintf(stderr, "no queries succeeded while ingesting\n");
      return 1;
    }
  }
  return 0;
}

// One offline compaction run: open the store's current generation, rewrite
// its live masks into the next one (optionally re-sharding), and report the
// stats. The same Compactor the maintenance scheduler drives online.
int RunCompact(const Args& args) {
  if (!args.Has("dir")) return Usage();
  const std::string dir = args.Get("dir");

  auto exists = Ingestor::StoreExists(dir);
  if (!exists.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 exists.status().ToString().c_str());
    return 1;
  }
  if (!*exists) {
    std::fprintf(stderr, "no mask store at %s\n", dir.c_str());
    return 1;
  }
  IngestorOptions iopts;
  auto opened = Ingestor::Open(dir, iopts);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Ingestor& ing = **opened;

  CompactorOptions copts;
  copts.target_num_shards = static_cast<int32_t>(args.GetInt("shards", 0));
  if (args.Has("throttle-mib")) {
    copts.throttle_bytes_per_sec =
        static_cast<double>(args.GetInt("throttle-mib", 256)) * 1048576.0;
  }
  Compactor compactor(&ing, copts);
  auto stats = compactor.Compact();
  if (!stats.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("completed compaction: %s\n", stats->ToString().c_str());
  return 0;
}

/// Replays a trace file against the store, in-process, through the same
/// path as `serve --script` (docs/OBSERVABILITY.md). Open loop reproduces
/// the recorded arrival times (scaled by --speed); --closed-loop replays
/// the same requests through N closed-loop clients instead.
int RunReplay(const Args& args) {
  if (!args.Has("dir") || !args.Has("trace")) return Usage();
  return RunReplayCommand(args, args.Get("trace"),
                          /*open_loop=*/!args.Has("closed-loop"),
                          /*copies=*/1);
}

}  // namespace
}  // namespace masksearch

int main(int argc, char** argv) {
  using namespace masksearch;
  const Args args = ParseArgs(argc, argv);
  if (args.Has("help") || args.command == "help" || args.command == "--help") {
    return Usage(0);
  }
  if (args.Has("version") || args.command == "version" ||
      args.command == "--version") {
    std::printf("masksearch_cli %s\n", VersionString());
    return 0;
  }
  if (args.command == "generate") return RunGenerate(args);
  if (args.command == "info") return RunInfo(args);
  if (args.command == "query") return RunQuery(args);
  if (args.command == "stats") return RunStats(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "client") return RunClient(args);
  if (args.command == "explain") return RunExplain(args);
  if (args.command == "ingest") return RunIngest(args);
  if (args.command == "compact") return RunCompact(args);
  if (args.command == "replay") return RunReplay(args);
  if (args.command == "shard") return RunShard(args);
  if (args.command == "import") return RunImport(args);
  if (args.command == "export") return RunExport(args);
  return Usage();
}
