// msbench: the one-command MaskSearch benchmark (see README.md beside this
// file for the workloads, the metric dictionary and how to compare runs).
//
//   msbench --workload W --seed N --seconds S --trace 0|1 --data-dir DIR
//   msbench --smoke --data-dir DIR
//
// One invocation runs one workload in this process. It builds (or reuses) the
// workload's synthetic dataset under DIR, sets the system up several times
// (the median is `setup_s`), drives the seeded request sequence for S
// seconds, checks the answers against the brute-force ReferenceEvaluator
// outside the timed window, and prints `workload metric value unit` lines
// followed by one JSON result line:
//
//   {"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: every request of a traced run
// carries an obs::Trace (spans harvested by name from the library's
// instrumentation) and the bench times its own calls into sql, kernels and
// ingest. --smoke runs all four workloads at a tiny scale with full answer
// checking and prints both metric sets.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "masksearch/baselines/reference.h"
#include "masksearch/masksearch.h"

namespace masksearch {
namespace msbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "msbench: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void Must(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

double PercentileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return Percentile(v, q);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string data_dir;
};

[[noreturn]] void Usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: msbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-dir DIR\n"
               "       msbench --smoke --data-dir DIR\n"
               "workloads: explore_cold serve_warm_sql serve_open_disk "
               "ingest_serve\n");
  std::exit(code);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    auto value = [&]() -> std::string {
      if (eq != std::string::npos) return arg.substr(eq + 1);
      if (i + 1 >= argc) Die("missing value for " + key);
      return argv[++i];
    };
    try {
      if (key == "--help" || key == "-h") {
        Usage(0);
      } else if (key == "--smoke") {
        f.smoke = true;
      } else if (key == "--workload") {
        f.workload = value();
      } else if (key == "--seed") {
        f.seed = std::stoull(value());
      } else if (key == "--seconds") {
        f.seconds = std::stod(value());
      } else if (key == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") Die("--trace takes 0 or 1");
        f.trace = v == "1";
      } else if (key == "--data-dir") {
        f.data_dir = value();
      } else {
        std::fprintf(stderr, "msbench: unknown flag %s\n", arg.c_str());
        Usage(2);
      }
    } catch (const std::exception&) {
      Die("bad value for " + key);
    }
  }
  if (f.data_dir.empty()) Die("--data-dir is required");
  if (!f.smoke && f.workload.empty()) Usage(2);
  if (!(f.seconds > 0)) Die("--seconds must be positive");
  return f;
}

// ---------------------------------------------------------------------------
// Metrics and the result line
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},
    {"setup_rss_mb", "MiB"},
    {"bytes_per_user_byte", "ratio"},
};

// Must match "per_layer" in BENCHMARK.json. A metric a workload has no
// layer for reads 0.
constexpr MetricDef kPerLayer[] = {
    {"storage.masks_loaded_per_query", "count"},
    {"storage.bytes_read_per_query", "bytes"},
    {"storage.disk_requests_per_query", "count"},
    {"storage.read_ms_per_query", "ms"},
    {"storage.decode_ms_per_query", "ms"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_query", "count"},
    {"cache.miss_load_ms_per_query", "ms"},
    {"index.fml", "ratio"},
    {"index.pruned_frac", "ratio"},
    {"index.verify_precision", "ratio"},
    {"index.bounds_ms_per_query", "ms"},
    {"index.build_us_per_mask", "us"},
    {"kernels.chi_build_us_per_mask", "us"},
    {"kernels.count_pixels_ns_per_kpixel", "ns"},
    {"exec.verify_ms_per_query", "ms"},
    {"exec.io_wait_ms_per_query", "ms"},
    {"exec.prefetch_skipped_per_query", "count"},
    {"sql.parse_bind_us_per_query", "us"},
    {"net.overhead_ms_per_query", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.exec_p50_ms", "ms"},
    {"service.rejected_frac", "ratio"},
    {"catalog.metadata_hit_ratio", "ratio"},
    {"ingest.append_us_per_mask", "us"},
    {"ingest.publish_p95_ms", "ms"},
    {"ingest.manifest_kib_per_publish", "KiB"},
    {"ingest.write_amp", "ratio"},
    {"maintain.compact_ms_per_run", "ms"},
    {"maintain.swap_pause_ms_max", "ms"},
    {"maintain.bytes_rewritten_per_user_byte", "ratio"},
    {"maintain.query_p99_during_compact_ms", "ms"},
    {"obs.tracing_overhead_pct", "%"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.attributed_pct", "%"},
    {"bench.peak_rss_mb", "MiB"},
};

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "msbench: FAILED: %s\n", why.c_str());
  }

  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_ && failed_ == 0; }

  void Note(const std::string& workload, const std::string& text) const {
    std::printf("# %s %s\n", workload.c_str(), text.c_str());
  }

  /// Prints the metric lines of the selected sets and, when `json`, the
  /// result line (which must be the last line of standard output).
  void Print(const std::string& workload, bool end_to_end, bool per_layer,
             bool json) {
    std::string metrics;
    auto emit = [&](const MetricDef& d, bool required) {
      auto it = values_.find(d.name);
      double v = it == values_.end() ? 0.0 : it->second;
      if (it == values_.end() && required) {
        Fail(std::string("metric not measured: ") + d.name);
      }
      if (!std::isfinite(v)) {
        Fail(std::string("non-finite metric: ") + d.name);
        v = 0;
      }
      std::printf("%s %s %.9g %s\n", workload.c_str(), d.name, v, d.unit);
      metrics += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     metrics.empty() ? "" : ", ", d.name, v, d.unit);
    };
    if (end_to_end) {
      for (const MetricDef& d : kEndToEnd) emit(d, /*required=*/true);
    }
    if (per_layer) {
      for (const MetricDef& d : kPerLayer) emit(d, /*required=*/false);
    }
    if (attempted_ == 0) Fail("no operation attempted");
    if (json) {
      std::printf(
          "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
          "\"metrics\": {%s}}\n",
          correct() ? "true" : "false",
          static_cast<unsigned long long>(attempted_),
          static_cast<unsigned long long>(failed_), metrics.c_str());
    }
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Current resident set, from /proc/self/statm.
double ResidentMiB() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Bytes of every regular file under `dir`. Tolerates files vanishing
/// mid-walk (a compaction retiring a generation).
uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  fs::recursive_directory_iterator it(dir, ec), end;
  while (!ec && it != end) {
    std::error_code fec;
    if (it->is_regular_file(fec)) {
      const uint64_t n = it->file_size(fec);
      if (!fec) total += n;
    }
    it.increment(ec);
  }
  return total;
}

uint64_t RawBytes(const MaskMeta& m) {
  return static_cast<uint64_t>(m.width) * m.height * sizeof(float);
}

// ---------------------------------------------------------------------------
// Answers: every response is reduced to a digest of its canonical wire form
// (ids, and values rounded to 1/1024 so the last-ulp order of a floating
// sum cannot flip a check), compared with the reference's digest.
// ---------------------------------------------------------------------------

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t Digest(const net::WireQueryResult& r) {
  uint64_t h = HashMix(0x51ed27, r.kind);
  h = HashMix(h, r.mask_ids.size());
  for (int64_t id : r.mask_ids) h = HashMix(h, static_cast<uint64_t>(id));
  h = HashMix(h, r.scored.size());
  for (const auto& [id, value] : r.scored) {
    h = HashMix(h, static_cast<uint64_t>(id));
    h = HashMix(h, static_cast<uint64_t>(std::llround(value * 1024.0)));
  }
  return h;
}

uint64_t Digest(const QueryResponse& r) {
  return Digest(net::QueryResultResponse(0, r).result);
}

/// Runs `q` on anything with the executor surface: a Session, or the
/// brute-force ReferenceEvaluator.
template <typename Engine>
Result<QueryResponse> Run(Engine& engine, const QueryRequest& q) {
  QueryResponse r;
  r.kind = q.kind;
  switch (q.kind) {
    case QueryRequest::Kind::kFilter: {
      MS_ASSIGN_OR_RETURN(r.filter, engine.Filter(q.filter));
      break;
    }
    case QueryRequest::Kind::kTopK: {
      MS_ASSIGN_OR_RETURN(r.topk, engine.TopK(q.topk));
      break;
    }
    case QueryRequest::Kind::kAggregation: {
      MS_ASSIGN_OR_RETURN(r.agg, engine.Aggregate(q.agg));
      break;
    }
    case QueryRequest::Kind::kMaskAgg: {
      MS_ASSIGN_OR_RETURN(r.agg, engine.MaskAggregate(q.mask_agg));
      break;
    }
  }
  return r;
}

MaskLoader StoreLoader(const MaskStore* store) {
  return [store](MaskId id, int64_t* bytes) -> Result<Mask> {
    *bytes = static_cast<int64_t>(store->BlobSize(id));
    return store->LoadMask(id);
  };
}

/// One checked answer: which statement, and the digest the system returned.
struct Observed {
  size_t stmt = 0;
  uint64_t digest = 0;
};

/// Compares observed answers with the digests of the brute-force reference
/// over `store` (each distinct statement evaluated once, in parallel on
/// `pool`); returns the mismatch count.
uint64_t CheckAnswers(const MaskStore& store,
                      const std::vector<QueryRequest>& queries,
                      const std::vector<std::string>& sql,
                      const std::vector<Observed>& observed, ThreadPool* pool,
                      Report* report) {
  std::vector<size_t> wanted;
  for (const Observed& o : observed) wanted.push_back(o.stmt);
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  const ReferenceEvaluator ref(&store, StoreLoader(&store));
  std::vector<Result<QueryResponse>> answers(wanted.size(),
                                            Status::Internal("not run"));
  ParallelFor(pool, wanted.size(), [&](size_t i) {
    answers[i] = Run(ref, queries[wanted[i]]);
  });
  std::map<size_t, uint64_t> want;
  for (size_t i = 0; i < wanted.size(); ++i) {
    if (answers[i].ok()) want[wanted[i]] = Digest(*answers[i]);
  }
  uint64_t mismatches = 0;
  for (const Observed& o : observed) {
    auto it = want.find(o.stmt);
    if (it != want.end() && it->second == o.digest) continue;
    if (mismatches++ < 5) {
      report->Fail("answer differs from the reference: " + sql[o.stmt]);
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Request mix. Every workload's requests are SQL text in the Fig.-11 mix
// (50% filter, 25% top-k, 15% scalar aggregation, 10% mask aggregation)
// over §4.5 predicted-class subsets. The mix is a block design: each block
// of 20 requests holds the same 20 templates (kind, ROI, value range,
// threshold stratum, subset size). The seed orders each block and draws
// what the templates leave open: the classes (p_seen of them already
// explored), the threshold within its stratum and the top-k rectangles.
// So runs with different seeds send different requests but the same
// workload, and their numbers differ far less than with independent draws.
// ---------------------------------------------------------------------------

struct MixSpec {
  int32_t width = 0;
  int32_t height = 0;
  int32_t num_classes = 0;
  int min_classes = 2;
  int max_classes = 5;
  /// Share of each query's classes drawn from those already explored (§4.5).
  double p_seen = 0.5;
  /// Filter thresholds lie in [0, max_threshold_frac · pixels].
  double max_threshold_frac = 0.15;
  /// Only the filter and top-k templates, for the ingest readers.
  bool filter_topk_only = false;
};

enum class Kind { kFilter, kTopK, kAgg, kMaskAgg };

struct Template {
  Kind kind = Kind::kFilter;
  bool object_roi = true;  ///< filter: object box, else the paper's box
  double lv = 0.5;         ///< CP value range (lv, 1.0)
  int stratum = 0;         ///< filter: threshold stratum of kStrata
  bool descending = true;  ///< top-k order
  const char* op = "";     ///< scalar or mask aggregate
  double mask_t = 0;       ///< mask aggregate threshold
  int classes = 2;         ///< predicted classes selected
};

constexpr int kStrata = 5;

std::vector<Template> MakeBlock(const MixSpec& spec) {
  std::vector<Template> block;
  const double lvs[kStrata] = {0.5, 0.6, 0.7, 0.8, 0.6};
  for (const bool object : {true, false}) {
    for (int s = 0; s < kStrata; ++s) {
      Template t;
      t.object_roi = object;
      t.lv = lvs[s];
      t.stratum = s;
      block.push_back(t);
    }
  }
  const double topk_lv[] = {0.5, 0.6, 0.7, 0.8, 0.7};
  const bool topk_desc[] = {true, false, true, false, true};
  for (int j = 0; j < 5; ++j) {
    Template t;
    t.kind = Kind::kTopK;
    t.lv = topk_lv[j];
    t.descending = topk_desc[j];
    block.push_back(t);
  }
  if (!spec.filter_topk_only) {
    const std::pair<const char*, double> aggs[] = {
        {"AVG", 0.8}, {"MAX", 0.6}, {"SUM", 0.5}};
    for (const auto& [op, lv] : aggs) {
      Template t;
      t.kind = Kind::kAgg;
      t.op = op;
      t.lv = lv;
      block.push_back(t);
    }
    const std::pair<const char*, double> masks[] = {{"INTERSECT", 0.8},
                                                    {"UNION", 0.6}};
    for (const auto& [op, threshold] : masks) {
      Template t;
      t.kind = Kind::kMaskAgg;
      t.op = op;
      t.mask_t = threshold;
      block.push_back(t);
    }
  }
  const int hi = std::min(spec.max_classes, spec.num_classes);
  const int span = std::max(1, hi - spec.min_classes + 1);
  for (size_t j = 0; j < block.size(); ++j) {
    block[j].classes = spec.min_classes + static_cast<int>(j) % span;
  }
  return block;
}

class MixGenerator {
 public:
  MixGenerator(const MixSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed), block_(MakeBlock(spec)) {
    for (int32_t c = 0; c < spec.num_classes; ++c) unseen_.push_back(c);
    Shuffle(&unseen_);
  }

  // Every draw is its own statement: argument evaluation order is
  // unspecified, and the seed must map to the same requests on every build.
  std::string Next() {
    if (next_ == 0) Shuffle(&block_);
    const Template t = block_[next_];
    next_ = (next_ + 1) % block_.size();
    const std::string where = Classes(t.classes);
    switch (t.kind) {
      case Kind::kFilter: {
        const double u = rng_.NextDouble();
        const double threshold = (t.stratum + u) / kStrata *
                                 spec_.max_threshold_frac * Pixels();
        return Fmt("SELECT mask_id FROM masks WHERE CP(mask, %s, (%.1f, 1.0)) "
                   "> %.1f AND %s;",
                   t.object_roi ? "object" : PaperRect().c_str(), t.lv,
                   threshold, where.c_str());
      }
      case Kind::kTopK: {
        const std::string roi = RandomRect();
        return Fmt("SELECT mask_id FROM masks WHERE %s ORDER BY CP(mask, %s, "
                   "(%.1f, 1.0)) %s LIMIT 25;",
                   where.c_str(), roi.c_str(), t.lv,
                   t.descending ? "DESC" : "ASC");
      }
      case Kind::kAgg:
        return Fmt("SELECT image_id, %s(CP(mask, object, (%.1f, 1.0))) AS v "
                   "FROM masks WHERE %s GROUP BY image_id ORDER BY v DESC "
                   "LIMIT 25;",
                   t.op, t.lv, where.c_str());
      case Kind::kMaskAgg:
        return Fmt("SELECT image_id, CP(%s(mask > %.1f), object, (0.5, 1.0)) "
                   "AS v FROM masks WHERE %s GROUP BY image_id ORDER BY v "
                   "DESC LIMIT 10;",
                   t.op, t.mask_t, where.c_str());
    }
    return "";
  }

  /// The paper's Table 1 queries Q1–Q5, scaled to the mask size.
  std::vector<std::string> PaperQueries() const {
    const std::string rect = PaperRect();
    return {
        Fmt("SELECT mask_id FROM masks WHERE CP(mask, %s, (0.6, 1.0)) > %.1f "
            "AND model_id = 1;",
            rect.c_str(), 0.04 * Pixels()),
        Fmt("SELECT mask_id FROM masks WHERE CP(mask, object, (0.8, 1.0)) > "
            "%.1f AND model_id = 1;",
            0.01 * Pixels()),
        Fmt("SELECT mask_id FROM masks WHERE model_id = 1 ORDER BY CP(mask, "
            "%s, (0.8, 1.0)) DESC LIMIT 25;",
            rect.c_str()),
        "SELECT image_id, AVG(CP(mask, object, (0.8, 1.0))) AS v FROM masks "
        "GROUP BY image_id ORDER BY v DESC LIMIT 25;",
        "SELECT image_id, CP(INTERSECT(mask > 0.8), object, (0.8, 1.0)) AS v "
        "FROM masks GROUP BY image_id ORDER BY v DESC LIMIT 25;",
    };
  }

 private:
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng_.UniformInt(
                                 0, static_cast<int64_t>(i) - 1))]);
    }
  }

  double Pixels() const {
    return static_cast<double>(spec_.width) * spec_.height;
  }

  /// The paper's ((50,50),(200,200)) box on 224², scaled.
  std::string PaperRect() const {
    return Fmt("rect(%d, %d, %d, %d)", spec_.width * 50 / 224,
               spec_.height * 50 / 224, spec_.width * 200 / 224,
               spec_.height * 200 / 224);
  }

  /// A rectangle covering 30–60% of each side, placed anywhere.
  std::string RandomRect() {
    const double fw = 0.3 + 0.3 * rng_.NextDouble();
    const double fh = 0.3 + 0.3 * rng_.NextDouble();
    const double fx = rng_.NextDouble();
    const double fy = rng_.NextDouble();
    const int32_t w = std::max(1, static_cast<int32_t>(spec_.width * fw));
    const int32_t h = std::max(1, static_cast<int32_t>(spec_.height * fh));
    const int32_t x0 = static_cast<int32_t>((spec_.width - w) * fx);
    const int32_t y0 = static_cast<int32_t>((spec_.height - h) * fy);
    return Fmt("rect(%d, %d, %d, %d)", x0, y0, x0 + w, y0 + h);
  }

  /// `predicted_label IN (...)`: p_seen of the classes come from those
  /// already explored, the rest are fresh (GenerateWorkload's class mode).
  std::string Classes(int count) {
    count = std::min(count, spec_.num_classes);
    std::vector<int32_t> picked;
    while (static_cast<int>(picked.size()) < count) {
      const bool take_seen =
          !seen_.empty() && (unseen_.empty() || rng_.NextBool(spec_.p_seen));
      int32_t cls;
      if (take_seen) {
        cls = seen_[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(seen_.size()) - 1))];
      } else {
        cls = unseen_.back();
        unseen_.pop_back();
        seen_.push_back(cls);
      }
      if (std::find(picked.begin(), picked.end(), cls) == picked.end()) {
        picked.push_back(cls);
      }
    }
    std::sort(picked.begin(), picked.end());
    std::string s = "predicted_label IN (";
    for (size_t i = 0; i < picked.size(); ++i) {
      s += (i ? ", " : "") + std::to_string(picked[i]);
    }
    return s + ")";
  }

  MixSpec spec_;
  Rng rng_;
  std::vector<Template> block_;
  size_t next_ = 0;
  std::vector<int32_t> seen_;
  std::vector<int32_t> unseen_;
};

/// A statement list bound once, outside any timed region.
struct Statements {
  std::vector<std::string> sql;
  std::vector<QueryRequest> queries;

  void Add(const std::string& text) {
    auto bound = sql::ParseAndBind(text);
    if (!bound.ok()) Die("bench statement does not bind: " + text);
    sql.push_back(text);
    queries.push_back(RequestFromBound(*bound));
  }
  size_t size() const { return sql.size(); }
};

Statements MakeStatements(const MixSpec& spec, uint64_t seed, size_t n,
                          bool paper_opening) {
  MixGenerator gen(spec, seed);
  Statements s;
  if (paper_opening) {
    for (const std::string& q : gen.PaperQueries()) s.Add(q);
  }
  while (s.size() < n) s.Add(gen.Next());
  return s;
}

/// sql.parse_bind_us_per_query: mean ParseAndBind time over the statements.
double ParseBindMicros(const Statements& s) {
  const size_t n = std::min<size_t>(s.size(), 256);
  if (n == 0) return 0;
  size_t calls = 0;
  const auto start = Clock::now();
  do {
    for (size_t i = 0; i < n; ++i, ++calls) {
      if (!sql::ParseAndBind(s.sql[i]).ok()) Die("statement stopped binding");
    }
  } while (Since(start) < 0.05);
  return Since(start) * 1e6 / static_cast<double>(calls);
}

// ---------------------------------------------------------------------------
// Per-layer accounting
// ---------------------------------------------------------------------------

/// Span seconds summed over traced requests, by the library's span names.
struct SpanTotals {
  uint64_t requests = 0;
  double queue_wait = 0, classify = 0, filter_verify = 0, topk_bounds = 0,
         topk_scan = 0, agg_verify = 0, io_wait = 0, storage_read = 0,
         decode = 0, cache_miss_load = 0;

  void Add(const std::vector<obs::Trace::Span>& spans) {
    ++requests;
    for (const obs::Trace::Span& s : spans) {
      const double t = s.total_seconds;
      if (s.name == "queue_wait") queue_wait += t;
      else if (s.name == "filter_classify") classify += t;
      else if (s.name == "filter_verify") filter_verify += t;
      else if (s.name == "topk_bounds") topk_bounds += t;
      else if (s.name == "topk_scan") topk_scan += t;
      else if (s.name == "agg_verify") agg_verify += t;
      else if (s.name == "io_wait") io_wait += t;
      else if (s.name == "storage_read" || s.name == "shard_read") storage_read += t;
      else if (s.name == "decode") decode += t;
      else if (s.name == "cache_miss_load") cache_miss_load += t;
    }
  }

  void Merge(const SpanTotals& o) {
    requests += o.requests;
    queue_wait += o.queue_wait;
    classify += o.classify;
    filter_verify += o.filter_verify;
    topk_bounds += o.topk_bounds;
    topk_scan += o.topk_scan;
    agg_verify += o.agg_verify;
    io_wait += o.io_wait;
    storage_read += o.storage_read;
    decode += o.decode;
    cache_miss_load += o.cache_miss_load;
  }

  /// Time on the request's blocking path that a layer span accounts for.
  /// Storage and cache spans are excluded: they run inside io_wait or on
  /// prefetch threads, so adding them would count time twice.
  double Attributed() const {
    return queue_wait + classify + filter_verify + topk_bounds + topk_scan +
           agg_verify + io_wait;
  }

  void Emit(Report* r) const {
    const double n = std::max<uint64_t>(1, requests);
    r->Set("storage.read_ms_per_query", storage_read * 1e3 / n);
    r->Set("storage.decode_ms_per_query", decode * 1e3 / n);
    r->Set("cache.miss_load_ms_per_query", cache_miss_load * 1e3 / n);
    r->Set("index.bounds_ms_per_query", (classify + topk_bounds) * 1e3 / n);
    r->Set("exec.verify_ms_per_query",
           (filter_verify + agg_verify + topk_scan) * 1e3 / n);
    r->Set("exec.io_wait_ms_per_query", io_wait * 1e3 / n);
  }
};

/// ExecStats summed over responses (index accounting, Table 2 / §4.4).
struct ExecTotals {
  uint64_t queries = 0;
  int64_t targeted = 0, pruned = 0, accepted = 0, loaded = 0, bytes = 0,
          prefetch_skipped = 0, filter_candidates = 0, filter_hits = 0;

  void Add(const QueryResponse& r) {
    const ExecStats& s = r.stats();
    ++queries;
    targeted += s.masks_targeted;
    pruned += s.pruned;
    accepted += s.accepted_by_bounds;
    loaded += s.masks_loaded;
    bytes += s.bytes_read;
    prefetch_skipped += s.prefetch_skipped;
    if (r.kind == QueryRequest::Kind::kFilter) {
      filter_candidates += s.candidates;
      filter_hits +=
          static_cast<int64_t>(r.filter.mask_ids.size()) - s.accepted_by_bounds;
    }
  }

  void Merge(const ExecTotals& o) {
    queries += o.queries;
    targeted += o.targeted;
    pruned += o.pruned;
    accepted += o.accepted;
    loaded += o.loaded;
    bytes += o.bytes;
    prefetch_skipped += o.prefetch_skipped;
    filter_candidates += o.filter_candidates;
    filter_hits += o.filter_hits;
  }

  void Emit(Report* r) const {
    r->Set("index.fml", Ratio(static_cast<double>(loaded), targeted));
    r->Set("index.pruned_frac",
           Ratio(static_cast<double>(pruned + accepted), targeted));
    r->Set("index.verify_precision",
           Ratio(static_cast<double>(filter_hits), filter_candidates));
    r->Set("exec.prefetch_skipped_per_query",
           Ratio(static_cast<double>(prefetch_skipped), queries));
  }
};

/// Physical storage counters of one store (deltas give per-window traffic).
struct StorageCounters {
  uint64_t masks = 0, bytes = 0, requests = 0;

  static StorageCounters Read(const MaskStore& store) {
    StorageCounters c;
    c.masks = store.masks_loaded();
    c.bytes = store.bytes_read();
    if (store.throttle() != nullptr) c.requests = store.throttle()->total_requests();
    return c;
  }

  void Emit(const StorageCounters& before, uint64_t queries,
            Report* r) const {
    const double n = std::max<uint64_t>(1, queries);
    r->Set("storage.masks_loaded_per_query", (masks - before.masks) / n);
    r->Set("storage.bytes_read_per_query", (bytes - before.bytes) / n);
    r->Set("storage.disk_requests_per_query", (requests - before.requests) / n);
  }
};

void ReportCache(const CacheStats& before, const CacheStats& after,
                 uint64_t queries, Report* r) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  r->Set("cache.hit_ratio", Ratio(hits, hits + misses));
  r->Set("cache.evictions_per_query",
         Ratio(static_cast<double>(after.evictions - before.evictions),
               static_cast<double>(queries)));
}

void ReportService(const ServiceStats& s, Report* r) {
  r->Set("service.rejected_frac",
         Ratio(static_cast<double>(s.total.rejected),
               static_cast<double>(s.total.submitted)));
}

/// obs.tracing_overhead_pct from mean latencies of traced and untraced
/// requests of the same run.
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  const double base = Mean(untraced);
  return base > 0 ? (Mean(traced) / base - 1.0) * 100.0 : 0.0;
}

/// ops_per_s, query_p50_ms and query_p95_ms of a timed window.
void ReportWindow(const std::vector<double>& latencies, double elapsed,
                  Report* r) {
  r->Set("ops_per_s", Ratio(static_cast<double>(latencies.size()), elapsed));
  r->Set("query_p50_ms", PercentileOf(latencies, 0.5) * 1e3);
  r->Set("query_p95_ms", PercentileOf(latencies, 0.95) * 1e3);
}

/// kernels.*: BuildChi and CountPixels timed on a fixed mask sample.
void TimeKernels(const std::vector<Mask>& sample, const ChiConfig& cfg,
                 Report* r) {
  if (sample.empty()) return;
  size_t builds = 0;
  auto start = Clock::now();
  do {
    for (const Mask& m : sample) {
      const Chi chi = BuildChi(m, cfg);
      if (chi.MemoryBytes() == 0) Die("empty CHI");
      ++builds;
    }
  } while (Since(start) < 0.1);
  r->Set("kernels.chi_build_us_per_mask",
         Since(start) * 1e6 / static_cast<double>(builds));

  double pixels = 0;
  int64_t sink = 0;
  start = Clock::now();
  do {
    for (const Mask& m : sample) {
      sink += CountPixels(m, ValueRange(0.5, 1.0));
      pixels += static_cast<double>(m.NumPixels());
    }
  } while (Since(start) < 0.1);
  if (sink < 0) Die("negative pixel count");
  r->Set("kernels.count_pixels_ns_per_kpixel", Since(start) * 1e12 / pixels);
}

std::vector<Mask> SampleMasks(const MaskStore& store, size_t n) {
  std::vector<Mask> out;
  for (MaskId id = 0; id < store.num_masks() && out.size() < n; ++id) {
    out.push_back(Must(store.LoadMask(id), "sample mask"));
  }
  return out;
}

struct SetupCost {
  double seconds = 0;  ///< median wall time of one set-up
  double rss_mb = 0;   ///< resident memory once the kept system is up
};

/// Runs `setup` at least 3 times and until a second of set-up has been
/// timed (at most 25 times), keeping the last system. The previous system is
/// torn down before the next set up, outside the timed region.
template <typename System, typename Fn>
SetupCost TimedSetup(std::unique_ptr<System>* keep, Fn setup) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 3 || (total < 1.0 && times.size() < 25)) {
    keep->reset();
    const auto start = Clock::now();
    *keep = setup();
    times.push_back(Since(start));
    total += times.back();
  }
  return {Median(times), ResidentMiB()};
}

// ---------------------------------------------------------------------------
// Datasets and workload scales
// ---------------------------------------------------------------------------

constexpr double kMiB = 1024.0 * 1024.0;
/// The paper's EBS gp3 volume (§4.1): 125 MiB/s, 200 µs per request.
constexpr double kDiskBytesPerSec = 125 * kMiB;
constexpr double kDiskLatencyUs = 200;

struct Scale {
  bool smoke = false;
  DatasetSpec wilds;
  DatasetSpec imagenet;
  int imagenet_min_classes = 4;
  int imagenet_max_classes = 12;
  size_t statement_pool = 1024;
  /// Open-loop arrival rate of serve_open_disk, requests per second.
  double open_rate = 240;
  int ingest_side = 64;
  int64_t ingest_initial = 2000;
  /// The ingest writer publishes one epoch per period.
  std::chrono::milliseconds epoch_period{500};
};

Scale MakeScale(bool smoke) {
  Scale s;
  s.smoke = smoke;
  s.wilds = WildsSimSpec(0.05);
  s.imagenet = ImageNetSimSpec(0.001);
  if (smoke) {
    s.wilds.name = "wilds-smoke";
    s.wilds.num_images = 40;
    s.wilds.saliency.width = s.wilds.saliency.height = 64;
    s.imagenet.name = "imagenet-smoke";
    s.imagenet.num_images = 120;
    s.imagenet.num_classes = 20;
    s.imagenet.saliency.width = s.imagenet.saliency.height = 32;
    s.imagenet_min_classes = 2;
    s.imagenet_max_classes = 5;
    s.statement_pool = 24;
    s.open_rate = 100;
    s.ingest_side = 32;
    s.ingest_initial = 200;
    s.epoch_period = std::chrono::milliseconds(40);
  }
  return s;
}

/// Paper §4.1 index configuration: cell = side / 8, 16 value buckets.
ChiConfig PaperChi(int32_t width, int32_t height) {
  ChiConfig cfg;
  cfg.cell_width = std::max(1, width / 8);
  cfg.cell_height = std::max(1, height / 8);
  cfg.num_bins = 16;
  return cfg;
}

std::string EnsureData(const Flags& f, const DatasetSpec& spec) {
  const std::string dir = f.data_dir + "/" + spec.name + "-" +
                          std::to_string(spec.num_images);
  Must(CreateDirs(f.data_dir), "create data dir");
  Must(EnsureDataset(dir, spec), "generate dataset");
  return dir;
}

double StoreBytesPerUserByte(const std::string& dir, const MaskStore& store) {
  uint64_t user = 0;
  for (const MaskMeta& m : store.metas()) user += RawBytes(m);
  return Ratio(static_cast<double>(DirBytes(dir)), static_cast<double>(user));
}

/// Builds every CHI from the unthrottled store and saves them for the
/// session to load; returns the build seconds.
double BuildChiFile(const std::string& dir, const ChiConfig& cfg,
                    const std::string& path, ThreadPool* pool) {
  auto etl = Must(MaskStore::Open(dir), "open store");
  IndexManager index(etl->num_masks(), cfg);
  const auto start = Clock::now();
  Must(index.BuildAll(*etl, pool), "build CHIs");
  const double seconds = Since(start);
  Must(index.SaveToFile(path), "save CHIs");
  return seconds;
}

// ---------------------------------------------------------------------------
// explore_cold: one analyst, closed loop, in-process Session over the
// paper's modeled disk, no buffer pool.
// ---------------------------------------------------------------------------

struct ExploreSystem {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<MaskStore> store;
  std::unique_ptr<Session> session;
  double build_seconds = 0;
};

void RunExploreCold(const Flags& f, const Scale& scale, Report* report) {
  const DatasetSpec& spec = scale.wilds;
  const std::string dir = EnsureData(f, spec);
  const ChiConfig cfg = PaperChi(spec.saliency.width, spec.saliency.height);
  const std::string chi_path = f.data_dir + "/explore_cold.chi";

  MixSpec mix;
  mix.width = spec.saliency.width;
  mix.height = spec.saliency.height;
  mix.num_classes = spec.num_classes;
  const Statements stmts =
      MakeStatements(mix, f.seed, scale.smoke ? 64 : 2000, /*opening=*/true);
  const auto etl = Must(MaskStore::Open(dir), "open store");

  std::unique_ptr<ExploreSystem> sys;
  const SetupCost setup = TimedSetup(&sys, [&] {
    auto s = std::make_unique<ExploreSystem>();
    s->pool = std::make_unique<ThreadPool>(4);
    s->build_seconds = BuildChiFile(dir, cfg, chi_path, s->pool.get());
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(kDiskBytesPerSec,
                                                   kDiskLatencyUs, 1);
    s->store = Must(MaskStore::Open(dir, opts), "open throttled store");
    SessionOptions so;
    so.chi = cfg;
    so.pool = s->pool.get();
    so.io_pool = s->pool.get();
    so.index_path = chi_path;
    s->session = Must(Session::Open(s->store.get(), so), "open session");
    return s;
  });

  // Counts over the first kExactPrefix queries repeat exactly for a given
  // seed (one client, deterministic executors), so they can be compared
  // exactly between commits; time-window totals cannot.
  constexpr size_t kExactPrefix = 32;
  const StorageCounters at_start = StorageCounters::Read(*sys->store);
  StorageCounters at_prefix = at_start;
  ExecTotals prefix_exec;
  SpanTotals spans;
  std::vector<double> latencies, traced_lat, untraced_lat;
  std::vector<Observed> observed;
  uint64_t failed = 0;
  double traced_total = 0;

  const auto start = Clock::now();
  size_t i = 0;
  while (Since(start) < f.seconds) {
    const size_t stmt = i % stmts.size();
    const bool traced = f.trace && i % 2 == 0;
    obs::Trace trace(i + 1);
    const auto t0 = Clock::now();
    Result<QueryResponse> r = Status::Internal("not run");
    {
      obs::TraceScope scope(traced ? &trace : nullptr);
      r = Run(*sys->session, stmts.queries[stmt]);
    }
    const double lat = Since(t0);
    if (!r.ok()) {
      ++failed;
      report->Fail("query failed: " + r.status().ToString());
    } else {
      latencies.push_back(lat);
      observed.push_back({stmt, Digest(*r)});
      if (i < kExactPrefix) prefix_exec.Add(*r);
    }
    if (f.trace) {
      (traced ? traced_lat : untraced_lat).push_back(lat);
      if (traced) {
        spans.Add(trace.spans());
        traced_total += lat;
      }
    }
    ++i;
    if (i == kExactPrefix) at_prefix = StorageCounters::Read(*sys->store);
  }
  const double elapsed = Since(start);
  report->Set("bench.peak_rss_mb", PeakRssMiB());
  if (i < kExactPrefix) at_prefix = StorageCounters::Read(*sys->store);

  report->Count(i, failed);
  report->Set("setup_s", setup.seconds);
  report->Set("setup_rss_mb", setup.rss_mb);
  ReportWindow(latencies, elapsed, report);
  report->Set("bytes_per_user_byte", StoreBytesPerUserByte(dir, *sys->store));
  report->Note("explore_cold", Fmt("samples %zu queries in %.2f s (exact "
                                   "counts over the first %zu)",
                                   latencies.size(), elapsed,
                                   std::min(i, kExactPrefix)));

  if (f.trace) {
    at_prefix.Emit(at_start, std::min(i, kExactPrefix), report);
    prefix_exec.Emit(report);
    spans.Emit(report);
    report->Set("index.build_us_per_mask",
                sys->build_seconds * 1e6 / sys->store->num_masks());
    report->Set("sql.parse_bind_us_per_query", ParseBindMicros(stmts));
    report->Set("obs.tracing_overhead_pct",
                OverheadPct(traced_lat, untraced_lat));
    report->Set("bench.attributed_pct",
                Ratio(spans.Attributed(), traced_total) * 100);
    TimeKernels(SampleMasks(*etl, 256), cfg, report);
  }

  report->Count(0, CheckAnswers(*etl, stmts.queries, stmts.sql, observed,
                                sys->pool.get(), report));
}

// ---------------------------------------------------------------------------
// serve_warm_sql: four analysts, closed loop, SQL text over loopback TCP to
// a NetServer + Catalog dataset whose data is resident in a warmed pool.
// ---------------------------------------------------------------------------

constexpr int kClients = 4;

struct WarmSystem {
  std::unique_ptr<ThreadPool> io_pool;
  std::shared_ptr<BufferPool> cache;
  std::unique_ptr<Catalog> catalog;
  Dataset* dataset = nullptr;
  std::unique_ptr<net::NetServer> server;
  double build_seconds = 0;

  ~WarmSystem() {
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<WarmSystem> SetUpWarm(const std::string& dir,
                                      const ChiConfig& cfg,
                                      const std::string& chi_path,
                                      obs::SlowQueryLog* slow_log) {
  auto s = std::make_unique<WarmSystem>();
  s->io_pool = std::make_unique<ThreadPool>(4);
  s->build_seconds = BuildChiFile(dir, cfg, chi_path, s->io_pool.get());
  BufferPool::Options po;
  po.budget_bytes = 256ull << 20;
  s->cache = std::make_shared<BufferPool>(po);
  DatasetConfig c;
  c.store.cache = s->cache;
  c.session.chi = cfg;
  c.session.cache = s->cache;
  c.session.io_pool = s->io_pool.get();
  c.session.index_path = chi_path;
  c.service.num_workers = kClients;
  c.service.max_queue_depth = 1024;
  c.service.slow_query_log = slow_log;
  s->catalog = std::make_unique<Catalog>();
  s->dataset = Must(s->catalog->Register("warm", dir, c), "register dataset");
  s->server = Must(net::NetServer::Start(s->catalog.get(), {}), "start server");
  // Pool warm-up: every mask once through the cached store.
  const MaskStore& store = s->dataset->store();
  std::vector<MaskId> batch;
  for (MaskId id = 0; id < store.num_masks(); ++id) {
    batch.push_back(id);
    if (batch.size() == 256 || id + 1 == store.num_masks()) {
      Must(store.LoadMaskBatch(batch).status(), "warm pool");
      batch.clear();
    }
  }
  return s;
}

/// What the closed-loop clients of one timed window saw.
struct ClientRun {
  std::vector<double> latencies;
  std::vector<double> traced, untraced;  ///< latencies split, when alternating
  std::vector<Observed> observed;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed = 0;

  void Merge(ClientRun&& o) {
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    traced.insert(traced.end(), o.traced.begin(), o.traced.end());
    untraced.insert(untraced.end(), o.untraced.begin(), o.untraced.end());
    observed.insert(observed.end(), o.observed.begin(), o.observed.end());
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// kClients connections, each sending its rotation of the statement pool
/// back to back (tenant = connection, rotating priority classes). With
/// `alternate_trace` every other request carries a trace id, which makes
/// the server trace it.
ClientRun DriveSqlClients(uint16_t port, const Statements& stmts,
                          double seconds, bool alternate_trace = false) {
  std::vector<std::unique_ptr<net::NetClient>> conns;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(
        Must(net::NetClient::Connect("127.0.0.1", port), "connect"));
  }
  std::vector<ClientRun> runs(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientRun& run = runs[c];
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const size_t stmt = (c * stmts.size() / kClients + i) % stmts.size();
        const bool traced = alternate_trace && i % 2 == 0;
        const uint64_t trace_id =
            traced ? (static_cast<uint64_t>(c) << 40) + i + 1 : 0;
        const auto t0 = Clock::now();
        auto r = conns[c]->Query("warm", stmts.sql[stmt], c,
                                 static_cast<PriorityClass>(i % 3),
                                 /*deadline_seconds=*/0, trace_id);
        ++run.attempted;
        if (!r.ok()) {
          ++run.failed;
          run.errors.push_back(r.status().ToString());
          continue;
        }
        const double lat = Since(t0);
        run.latencies.push_back(lat);
        if (alternate_trace) (traced ? run.traced : run.untraced).push_back(lat);
        run.observed.push_back({stmt, Digest(r->result)});
      }
    });
  }
  for (auto& t : threads) t.join();
  ClientRun all;
  all.elapsed = Since(start);
  for (ClientRun& r : runs) all.Merge(std::move(r));
  return all;
}

void CheckSqlRun(const MaskStore& store, const Statements& stmts,
                 const ClientRun& run, ThreadPool* pool, Report* report) {
  report->Count(run.attempted, run.failed);
  for (size_t i = 0; i < run.errors.size() && i < 5; ++i) {
    report->Fail("request failed: " + run.errors[i]);
  }
  report->Count(0, CheckAnswers(store, stmts.queries, stmts.sql, run.observed,
                                pool, report));
}

void RunServeWarmSql(const Flags& f, const Scale& scale, Report* report) {
  const DatasetSpec& spec = scale.imagenet;
  const std::string dir = EnsureData(f, spec);
  const ChiConfig cfg = PaperChi(spec.saliency.width, spec.saliency.height);
  const std::string chi_path = f.data_dir + "/serve_warm_sql.chi";
  MixSpec mix;
  mix.width = spec.saliency.width;
  mix.height = spec.saliency.height;
  mix.num_classes = spec.num_classes;
  mix.min_classes = scale.imagenet_min_classes;
  mix.max_classes = scale.imagenet_max_classes;
  const Statements stmts =
      MakeStatements(mix, f.seed, scale.statement_pool, /*opening=*/false);
  const auto etl = Must(MaskStore::Open(dir), "open store");
  ThreadPool check_pool(4);

  // The run is invalid unless the mask working set stayed resident. Mask
  // blob hits only: derived-mask CHIs share the pool and miss on first use.
  auto blob_counts = [](const WarmSystem& s) {
    const auto* cached =
        dynamic_cast<const CachedMaskStore*>(&s.dataset->store());
    if (cached == nullptr) Die("warm store is not cached");
    return std::make_pair(cached->cache_hits(), cached->cache_misses());
  };
  auto check_resident = [&](const WarmSystem& s,
                            std::pair<uint64_t, uint64_t> before) {
    const auto after = blob_counts(s);
    const double hits = static_cast<double>(after.first - before.first);
    const double misses = static_cast<double>(after.second - before.second);
    if (Ratio(hits, hits + misses) < 0.99) {
      report->Fail(Fmt("working set not resident: blob hit ratio %.4f < 0.99",
                       Ratio(hits, hits + misses)));
    }
  };

  if (!f.trace) {
    std::unique_ptr<WarmSystem> sys;
    const SetupCost setup = TimedSetup(&sys, [&] {
      return SetUpWarm(dir, cfg, chi_path, nullptr);
    });
    const auto blobs_before = blob_counts(*sys);
    const ClientRun run = DriveSqlClients(sys->server->port(), stmts, f.seconds);
    report->Set("bench.peak_rss_mb", PeakRssMiB());
    check_resident(*sys, blobs_before);
    report->Set("setup_s", setup.seconds);
    report->Set("setup_rss_mb", setup.rss_mb);
    ReportWindow(run.latencies, run.elapsed, report);
    report->Set("bytes_per_user_byte", StoreBytesPerUserByte(dir, *etl));
    report->Note("serve_warm_sql", Fmt("samples %zu requests in %.2f s",
                                       run.latencies.size(), run.elapsed));
    CheckSqlRun(*etl, stmts, run, &check_pool, report);
    return;
  }

  // Traced run, two halves. First, every other request carries a trace id
  // (traced, spans discarded): traced and untraced round trips of the same
  // window give the tracing overhead. Then a second server traces every
  // request into a slow-query log with threshold 0, whose entries give the
  // span breakdown.
  ClientRun alternating;
  {
    auto sys = SetUpWarm(dir, cfg, chi_path, nullptr);
    alternating = DriveSqlClients(sys->server->port(), stmts, f.seconds / 2,
                                  /*alternate_trace=*/true);
  }
  CheckSqlRun(*etl, stmts, alternating, &check_pool, report);

  obs::SlowQueryLog::Options lo;
  lo.threshold_seconds = 0;
  lo.capacity = 1u << 20;
  obs::SlowQueryLog slow_log(lo);
  auto sys = SetUpWarm(dir, cfg, chi_path, &slow_log);
  const CacheStats cache_before = sys->cache->Stats();
  const auto blobs_before = blob_counts(*sys);
  const StorageCounters io_before = StorageCounters::Read(sys->dataset->store());
  const ClientRun run = DriveSqlClients(sys->server->port(), stmts, f.seconds / 2);
  const CacheStats cache_after = sys->cache->Stats();
  check_resident(*sys, blobs_before);
  report->Set("bench.peak_rss_mb", PeakRssMiB());
  const uint64_t n = run.latencies.size();
  StorageCounters::Read(sys->dataset->store()).Emit(io_before, n, report);
  ReportCache(cache_before, cache_after, n, report);

  SpanTotals spans;
  std::vector<double> queue_waits, execs;
  double server_total = 0;
  for (const obs::SlowQueryEntry& e : slow_log.Entries()) {
    spans.Add(e.spans);
    queue_waits.push_back(e.queue_seconds);
    execs.push_back(e.exec_seconds);
    server_total += e.total_seconds;
  }
  spans.Emit(report);
  double client_total = 0;
  for (double l : run.latencies) client_total += l;
  const double net_overhead = Ratio(client_total - server_total, n);
  report->Set("net.overhead_ms_per_query", net_overhead * 1e3);
  report->Set("service.queue_wait_p50_ms", PercentileOf(queue_waits, 0.5) * 1e3);
  report->Set("service.queue_wait_p99_ms", PercentileOf(queue_waits, 0.99) * 1e3);
  report->Set("service.exec_p50_ms", PercentileOf(execs, 0.5) * 1e3);
  ReportService(sys->dataset->service()->Stats(), report);
  const MetadataCache::CacheStats meta = sys->dataset->metadata()->stats();
  report->Set("catalog.metadata_hit_ratio",
              Ratio(static_cast<double>(meta.hits),
                    static_cast<double>(meta.hits + meta.misses)));
  report->Set("bench.attributed_pct",
              Ratio(spans.Attributed() + (client_total - server_total),
                    client_total) * 100);
  report->Set("obs.tracing_overhead_pct",
              OverheadPct(alternating.traced, alternating.untraced));
  report->Set("index.build_us_per_mask",
              sys->build_seconds * 1e6 / etl->num_masks());
  report->Set("sql.parse_bind_us_per_query", ParseBindMicros(stmts));

  // Executor accounting is not on the wire: replay each distinct statement
  // in-process on the server's session (warm, untimed) for the index counts.
  std::vector<bool> seen(stmts.size(), false);
  ExecTotals exec;
  for (const Observed& o : run.observed) {
    if (seen[o.stmt]) continue;
    seen[o.stmt] = true;
    exec.Add(Must(Run(*sys->dataset->session(), stmts.queries[o.stmt]),
                  "replay"));
  }
  exec.Emit(report);
  TimeKernels(SampleMasks(*etl, 256), cfg, report);
  CheckSqlRun(*etl, stmts, run, &check_pool, report);
}

// ---------------------------------------------------------------------------
// serve_open_disk: independent users arriving on their own clock (Poisson,
// fixed absolute rate) into an in-process QueryService whose working set is
// larger than its pool, on a QD-16 modeled disk.
// ---------------------------------------------------------------------------

struct DiskSystem {
  std::unique_ptr<ThreadPool> io_pool;
  std::shared_ptr<BufferPool> cache;
  std::unique_ptr<MaskStore> store;
  std::unique_ptr<Session> session;
  std::unique_ptr<QueryService> service;
  double build_seconds = 0;
};

std::unique_ptr<DiskSystem> SetUpDisk(const std::string& dir,
                                      const ChiConfig& cfg,
                                      const std::string& chi_path) {
  auto s = std::make_unique<DiskSystem>();
  s->io_pool = std::make_unique<ThreadPool>(4);
  s->build_seconds = BuildChiFile(dir, cfg, chi_path, s->io_pool.get());
  BufferPool::Options po;
  po.budget_bytes = 32ull << 20;
  s->cache = std::make_shared<BufferPool>(po);
  MaskStore::Options so;
  so.throttle =
      std::make_shared<DiskThrottle>(kDiskBytesPerSec, kDiskLatencyUs, 16);
  so.cache = s->cache;
  s->store = Must(MaskStore::Open(dir, so), "open throttled store");
  SessionOptions sess;
  sess.chi = cfg;
  sess.cache = s->cache;
  sess.io_pool = s->io_pool.get();
  sess.index_path = chi_path;
  s->session = Must(Session::Open(s->store.get(), sess), "open session");
  QueryServiceOptions qo;
  qo.num_workers = 4;
  qo.max_queue_depth = 1 << 16;
  qo.max_queued_bytes = ~0ull;
  s->service = Must(QueryService::Start(s->session.get(), qo), "start service");
  // Pool warm-up: a fixed pseudo-random sample of masks, until full.
  std::vector<MaskId> ids(static_cast<size_t>(s->store->num_masks()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<MaskId>(i);
  Rng rng(7);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
  }
  for (size_t i = 0; i < ids.size(); i += 64) {
    if (s->cache->Stats().resident_bytes >= po.budget_bytes * 9 / 10) break;
    std::vector<MaskId> batch(ids.begin() + i,
                              ids.begin() + std::min(ids.size(), i + 64));
    Must(s->store->LoadMaskBatch(batch).status(), "warm pool");
  }
  return s;
}

/// One open-loop arrival. Completion time is written by the finishing
/// worker (NotifyDone) and read after the service drains.
struct Arrival {
  size_t stmt = 0;
  bool traced = false;
  Clock::time_point due;
  double lag = 0;
  std::shared_ptr<PendingQuery> pending;
  Clock::time_point done;
};

void RunServeOpenDisk(const Flags& f, const Scale& scale, Report* report) {
  const DatasetSpec& spec = scale.imagenet;
  const std::string dir = EnsureData(f, spec);
  const ChiConfig cfg = PaperChi(spec.saliency.width, spec.saliency.height);
  const std::string chi_path = f.data_dir + "/serve_open_disk.chi";
  MixSpec mix;
  mix.width = spec.saliency.width;
  mix.height = spec.saliency.height;
  mix.num_classes = spec.num_classes;
  mix.min_classes = scale.imagenet_min_classes;
  mix.max_classes = scale.imagenet_max_classes;
  const Statements stmts =
      MakeStatements(mix, f.seed, scale.statement_pool * 2, /*opening=*/false);

  std::unique_ptr<DiskSystem> sys;
  const SetupCost setup = TimedSetup(&sys, [&] {
    return SetUpDisk(dir, cfg, chi_path);
  });
  const CacheStats cache_before = sys->cache->Stats();
  const StorageCounters io_before = StorageCounters::Read(*sys->store);

  // One generator thread submits on an absolute Poisson schedule; a request
  // is timed from when it was due, so a stall counts against every request
  // it delays. The exponential gaps are stratified: each block of kGapStrata
  // gaps takes one quantile from each stratum, in seeded order, so every
  // run offers the same load with the same burstiness.
  constexpr int kGapStrata = 20;
  std::vector<int> strata;
  std::deque<Arrival> arrivals;
  uint64_t shed = 0;
  Rng rng(f.seed * 0x9e3779b97f4a7c15ull + 1);
  const auto start = Clock::now();
  auto due = start;
  for (size_t i = 0; Between(start, due) < f.seconds; ++i) {
    std::this_thread::sleep_until(due);
    Arrival& a = arrivals.emplace_back();
    a.stmt = i % stmts.size();
    a.due = due;
    a.lag = Since(due);
    a.traced = f.trace && i % 2 == 0;
    ServiceRequest req;
    req.tenant = static_cast<TenantId>(i % kClients);
    req.priority = static_cast<PriorityClass>(i % 3);
    req.query = stmts.queries[a.stmt];
    req.trace_id = a.traced ? i + 1 : 0;
    auto p = sys->service->Submit(std::move(req));
    if (p.ok()) {
      a.pending = *p;
      Clock::time_point* done = &a.done;
      a.pending->NotifyDone([done] { *done = Clock::now(); });
    } else {
      ++shed;
    }
    if (strata.empty()) {
      for (int s = 0; s < kGapStrata; ++s) strata.push_back(s);
      for (size_t k = strata.size(); k > 1; --k) {
        std::swap(strata[k - 1], strata[static_cast<size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(k) - 1))]);
      }
    }
    const double u = (strata.back() + rng.NextDouble()) / kGapStrata;
    strata.pop_back();
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - u) / scale.open_rate));
  }
  sys->service->Drain();  // every NotifyDone callback has run after this
  report->Set("bench.peak_rss_mb", PeakRssMiB());

  std::vector<double> latencies, lags, queue_waits, execs, traced_exec,
      untraced_exec;
  std::vector<Observed> observed;
  SpanTotals spans;
  ExecTotals exec;
  double traced_total = 0, traced_lag = 0;
  uint64_t failed = shed;
  Clock::time_point last_done = start;
  for (Arrival& a : arrivals) {
    lags.push_back(a.lag);
    if (a.pending == nullptr) continue;
    auto r = a.pending->Wait();
    if (!r.ok()) {
      if (failed++ < 5) report->Fail("request failed: " + r.status().ToString());
      continue;
    }
    const double lat = Between(a.due, a.done);
    last_done = std::max(last_done, a.done);
    latencies.push_back(lat);
    queue_waits.push_back(r->queue_seconds);
    execs.push_back(r->exec_seconds);
    observed.push_back({a.stmt, Digest(*r)});
    exec.Add(*r);
    if (a.traced && a.pending->trace() != nullptr) {
      spans.Add(a.pending->trace()->spans());
      traced_total += lat;
      traced_lag += a.lag;
      traced_exec.push_back(r->exec_seconds);
    } else {
      untraced_exec.push_back(r->exec_seconds);
    }
  }
  if (shed > 0) report->Fail(Fmt("%llu requests shed by admission",
                                 static_cast<unsigned long long>(shed)));
  report->Count(arrivals.size(), failed);
  const double elapsed = Between(start, last_done);
  report->Set("setup_s", setup.seconds);
  report->Set("setup_rss_mb", setup.rss_mb);
  ReportWindow(latencies, elapsed, report);
  const auto etl = Must(MaskStore::Open(dir), "open store");
  report->Set("bytes_per_user_byte", StoreBytesPerUserByte(dir, *etl));
  report->Note("serve_open_disk",
               Fmt("samples %zu requests at %.1f/s offered over %.2f s",
                   latencies.size(), scale.open_rate, elapsed));

  if (f.trace) {
    const uint64_t n = latencies.size();
    StorageCounters::Read(*sys->store).Emit(io_before, n, report);
    ReportCache(cache_before, sys->cache->Stats(), n, report);
    exec.Emit(report);
    spans.Emit(report);
    report->Set("service.queue_wait_p50_ms", PercentileOf(queue_waits, 0.5) * 1e3);
    report->Set("service.queue_wait_p99_ms", PercentileOf(queue_waits, 0.99) * 1e3);
    report->Set("service.exec_p50_ms", PercentileOf(execs, 0.5) * 1e3);
    ReportService(sys->service->Stats(), report);
    report->Set("bench.generator_lag_p99_ms", PercentileOf(lags, 0.99) * 1e3);
    report->Set("bench.attributed_pct",
                Ratio(spans.Attributed() + traced_lag, traced_total) * 100);
    report->Set("obs.tracing_overhead_pct",
                OverheadPct(traced_exec, untraced_exec));
    report->Set("index.build_us_per_mask",
                sys->build_seconds * 1e6 / etl->num_masks());
    report->Set("sql.parse_bind_us_per_query", ParseBindMicros(stmts));
    TimeKernels(SampleMasks(*etl, 256), cfg, report);
  }
  report->Count(0, CheckAnswers(*etl, stmts.queries, stmts.sql, observed,
                                sys->io_pool.get(), report));
}

// ---------------------------------------------------------------------------
// ingest_serve: one writer ingesting, deleting, publishing and compacting a
// live dataset while two closed-loop readers query it.
// ---------------------------------------------------------------------------

/// Pre-generated masks the writer cycles through; key k is mask k % size
/// with its own image id. The masks are stored through the lossy codec, so
/// they are generated as codec round trips: what the store holds is then
/// exactly what the oracle evaluates.
struct Corpus {
  std::vector<Mask> masks;
  std::vector<MaskMeta> metas;
  std::vector<uint64_t> blob_bytes;  ///< stored (encoded) size of each mask

  MaskMeta MetaFor(int64_t key) const {
    MaskMeta m = metas[static_cast<size_t>(key) % metas.size()];
    m.image_id = key;
    m.model_id = static_cast<ModelId>(key % 2);
    return m;
  }
  const Mask& MaskFor(int64_t key) const {
    return masks[static_cast<size_t>(key) % masks.size()];
  }
};

Corpus MakeCorpus(int side, size_t n, int32_t num_classes, uint64_t seed) {
  Corpus c;
  Rng rng(seed);
  SaliencySpec spec;
  spec.width = spec.height = side;
  for (size_t i = 0; i < n; ++i) {
    const ROI box = GenerateObjectBox(&rng, side, side);
    const Mask mask = GenerateSaliencyMask(&rng, spec, box, rng.NextBool(0.15));
    const std::string blob = EncodeMask(mask);
    c.blob_bytes.push_back(blob.size());
    c.masks.push_back(Must(DecodeMask(blob), "codec round trip"));
    MaskMeta m;
    m.mask_type = MaskType::kSaliencyMap;
    m.width = m.height = side;
    m.label = static_cast<int32_t>(rng.UniformInt(0, num_classes - 1));
    m.predicted_label =
        rng.NextBool(0.1)
            ? static_cast<int32_t>(rng.UniformInt(0, num_classes - 1))
            : m.label;
    m.object_box = box;
    c.metas.push_back(m);
  }
  return c;
}

/// Metadata-only store of one epoch's visible corpus, rebuilt from the
/// writer's own record of what it appended and deleted — independent of the
/// system under test — for the reference evaluator, whose masks come from
/// the corpus through its loader.
class OracleStore final : public MaskStore {
 public:
  explicit OracleStore(std::vector<MaskMeta> metas)
      : MaskStore("", Options{}, StorageKind::kRawFloat32, metas,
                  Sizes(metas)) {}

  int32_t num_shards() const override { return 1; }
  Result<Mask> LoadMask(MaskId) const override { return Unsupported(); }
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>&) const override {
    return Unsupported();
  }
  Result<Mask> LoadMaskRows(MaskId, int32_t, int32_t) const override {
    return Unsupported();
  }
  Status ReadBlob(MaskId, std::string*) const override {
    return Unsupported();
  }

 private:
  static std::vector<uint64_t> Sizes(const std::vector<MaskMeta>& metas) {
    std::vector<uint64_t> sizes;
    for (const MaskMeta& m : metas) sizes.push_back(RawBytes(m));
    return sizes;
  }
  static Status Unsupported() {
    return Status::NotImplemented("oracle store holds metadata only");
  }
};

using Keys = std::vector<int64_t>;

struct LiveSystem {
  std::unique_ptr<Catalog> catalog;
  Dataset* dataset = nullptr;
  std::string dir;
  // The writer's record of the current generation: the corpus key of each
  // physical id, and which ids are tombstoned.
  Keys phys;
  std::vector<char> dead;
  int64_t next_key = 0;
  int epochs_since_compaction = 0;
  std::map<int64_t, std::shared_ptr<const Keys>> visible;  ///< by epoch
};

/// Everything the writer measured.
struct WriterLog {
  std::vector<double> append_s, publish_s, compact_ms, swap_pause_ms,
      space_amp;
  uint64_t appended = 0, appended_bytes = 0, stored_bytes = 0,
           manifest_bytes = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void Check(const Status& st, const char* what) {
    ++attempted;
    if (st.ok()) return;
    ++failed;
    errors.push_back(std::string(what) + ": " + st.ToString());
  }
};

constexpr int kMasksPerEpoch = 100;
constexpr double kDeleteFraction = 0.05;
constexpr int kEpochsPerCompaction = 10;

/// Records the visible corpus of the epoch just published.
void RecordEpoch(LiveSystem* s, WriterLog* log) {
  auto keys = std::make_shared<Keys>();
  for (size_t p = 0; p < s->phys.size(); ++p) {
    if (!s->dead[p]) keys->push_back(s->phys[p]);
  }
  if (s->dataset->ingestor()->watermark() != static_cast<int64_t>(keys->size())) {
    log->Check(Status::Internal(Fmt("watermark %lld, writer expects %zu",
                                    static_cast<long long>(
                                        s->dataset->ingestor()->watermark()),
                                    keys->size())),
               "publish");
  }
  s->visible[s->dataset->epoch()] = std::move(keys);
}

/// Appends `count` masks, deletes kDeleteFraction of the visible ones,
/// publishes, and every kEpochsPerCompaction epochs compacts.
void WriteEpoch(LiveSystem* s, const Corpus& corpus, int count, Rng* rng,
                WriterLog* log, std::atomic<bool>* compacting) {
  Dataset* d = s->dataset;
  const size_t published = s->phys.size();
  for (int i = 0; i < count; ++i) {
    const int64_t key = s->next_key++;
    const auto t0 = Clock::now();
    auto id = d->Ingest(corpus.MetaFor(key), corpus.MaskFor(key));
    log->append_s.push_back(Since(t0));
    log->Check(id.status(), "ingest");
    if (id.ok() && *id != static_cast<MaskId>(s->phys.size())) {
      log->Check(Status::Internal("unexpected physical id"), "ingest");
    }
    s->phys.push_back(key);
    s->dead.push_back(0);
    ++log->appended;
    log->appended_bytes += RawBytes(corpus.MetaFor(key));
    log->stored_bytes +=
        corpus.blob_bytes[static_cast<size_t>(key) % corpus.blob_bytes.size()];
  }
  std::vector<MaskId> alive;
  for (size_t p = 0; p < published; ++p) {
    if (!s->dead[p]) alive.push_back(static_cast<MaskId>(p));
  }
  const size_t deletes = static_cast<size_t>(kDeleteFraction * alive.size());
  for (size_t i = 0; i < deletes; ++i) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(i),
                        static_cast<int64_t>(alive.size()) - 1));
    std::swap(alive[i], alive[j]);
    log->Check(d->Delete(alive[i]), "delete");
    s->dead[static_cast<size_t>(alive[i])] = 1;
  }
  const auto t0 = Clock::now();
  log->Check(d->Publish(), "publish");
  log->publish_s.push_back(Since(t0));
  const std::string manifest = MaskStoreManifestPath(
      GenerationDir(s->dir, d->ingestor()->generation()));
  auto manifest_size = FileSize(manifest);
  if (manifest_size.ok()) log->manifest_bytes += *manifest_size;
  RecordEpoch(s, log);

  if (++s->epochs_since_compaction == kEpochsPerCompaction) {
    s->epochs_since_compaction = 0;
    compacting->store(true);
    const auto c0 = Clock::now();
    log->Check(d->Compact(), "compact");
    log->compact_ms.push_back(Since(c0) * 1e3);
    compacting->store(false);
    log->swap_pause_ms.push_back(d->maintenance()->Stats().last_swap_pause_ms);
    Keys survivors;
    for (size_t p = 0; p < s->phys.size(); ++p) {
      if (!s->dead[p]) survivors.push_back(s->phys[p]);
    }
    s->phys = std::move(survivors);
    s->dead.assign(s->phys.size(), 0);
    RecordEpoch(s, log);
  }
  uint64_t user = 0;
  for (int64_t key : *s->visible.rbegin()->second) {
    user += RawBytes(corpus.MetaFor(key));
  }
  log->space_amp.push_back(
      Ratio(static_cast<double>(DirBytes(s->dir)), static_cast<double>(user)));
}

std::unique_ptr<LiveSystem> SetUpLive(const std::string& dir,
                                      const Corpus& corpus, int side,
                                      int64_t initial, WriterLog* log) {
  Must(RemovePathRecursive(dir), "clear ingest dir");
  auto s = std::make_unique<LiveSystem>();
  s->dir = dir;
  LiveDatasetConfig c;
  c.ingest.chi = PaperChi(side, side);
  c.ingest.kind = StorageKind::kCompressed;
  c.ingest.num_shards = 4;
  c.ingest.cache_budget_bytes = 64ull << 20;
  c.service.num_workers = 2;
  c.service.max_queue_depth = 1024;
  s->catalog = std::make_unique<Catalog>();
  s->dataset = Must(s->catalog->RegisterLive("live", dir, c), "register live");
  Rng rng(11);
  std::atomic<bool> compacting{false};
  WriteEpoch(s.get(), corpus, static_cast<int>(initial), &rng, log,
             &compacting);
  return s;
}

/// One reader's view of the run.
struct ReaderRun {
  std::vector<double> latencies, during_compaction, traced_lat, untraced_lat;
  SpanTotals spans;
  ExecTotals exec;
  double traced_total = 0;
  // Deterministic 5% sample checked against the per-epoch oracle.
  std::vector<std::pair<int64_t, Observed>> sampled;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

void RunIngestServe(const Flags& f, const Scale& scale, Report* report) {
  const int side = scale.ingest_side;
  const std::string dir = f.data_dir + "/ingest_serve";
  Must(CreateDirs(f.data_dir), "create data dir");
  const Corpus corpus =
      MakeCorpus(side, scale.smoke ? 128 : 1024, 20, f.seed);
  MixSpec mix;
  mix.width = mix.height = side;
  mix.num_classes = 20;
  mix.min_classes = 5;
  mix.max_classes = 10;
  mix.filter_topk_only = true;
  const Statements stmts =
      MakeStatements(mix, f.seed, scale.statement_pool, /*opening=*/false);

  WriterLog setup_log;
  std::unique_ptr<LiveSystem> sys;
  const SetupCost setup = TimedSetup(&sys, [&] {
    setup_log = WriterLog{};
    return SetUpLive(dir, corpus, side, scale.ingest_initial, &setup_log);
  });
  report->Count(setup_log.attempted, setup_log.failed);
  for (const std::string& e : setup_log.errors) report->Fail(e);

  Dataset* d = sys->dataset;
  BufferPool* pool = d->ingestor()->cache();
  const CacheStats cache_before = pool->Stats();
  const uint64_t copied_before =
      d->maintenance()->compactor()->Counters().bytes_copied_total;

  // The writer runs on a fixed schedule, one epoch per period, so
  // every run puts the same write load beside the readers; a writer that
  // falls behind shows as lag. Readers are closed loops.
  WriterLog log;
  std::vector<double> writer_lag;
  std::atomic<bool> compacting{false};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(f.seconds));
  std::thread writer([&] {
    Rng rng(f.seed ^ 0x5bd1e995ull);
    for (auto due = start; due < deadline; due += scale.epoch_period) {
      std::this_thread::sleep_until(due);
      writer_lag.push_back(Since(due));
      WriteEpoch(sys.get(), corpus, kMasksPerEpoch, &rng, &log, &compacting);
    }
  });
  constexpr int kReaders = 2;
  std::vector<ReaderRun> readers(kReaders);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      ReaderRun& run = readers[c];
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const size_t stmt = (c * stmts.size() / kReaders + i) % stmts.size();
        const bool traced = f.trace && i % 2 == 0;
        ServiceRequest req;
        req.tenant = c;
        req.priority = static_cast<PriorityClass>(i % 3);
        req.query = stmts.queries[stmt];
        req.trace_id = traced ? (static_cast<uint64_t>(c) << 40) + i + 1 : 0;
        const bool under_compaction = compacting.load();
        const auto t0 = Clock::now();
        ++run.attempted;
        auto p = d->Submit(std::move(req), stmts.sql[stmt]);
        Result<QueryResponse> r =
            p.ok() ? (*p)->Wait() : Result<QueryResponse>(p.status());
        const double lat = Since(t0);
        if (!r.ok()) {
          ++run.failed;
          run.errors.push_back(r.status().ToString());
          continue;
        }
        run.latencies.push_back(lat);
        if (under_compaction) run.during_compaction.push_back(lat);
        run.exec.Add(*r);
        if (f.trace) {
          (traced ? run.traced_lat : run.untraced_lat).push_back(lat);
          if (traced && (*p)->trace() != nullptr) {
            run.spans.Add((*p)->trace()->spans());
            run.traced_total += lat;
          }
        }
        if (i % 20 == 0) run.sampled.push_back({(*p)->epoch(), {stmt, Digest(*r)}});
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = Since(start);
  writer.join();
  report->Set("bench.peak_rss_mb", PeakRssMiB());

  ReaderRun all;
  for (ReaderRun& r : readers) {
    all.latencies.insert(all.latencies.end(), r.latencies.begin(), r.latencies.end());
    all.during_compaction.insert(all.during_compaction.end(),
                                 r.during_compaction.begin(),
                                 r.during_compaction.end());
    all.traced_lat.insert(all.traced_lat.end(), r.traced_lat.begin(), r.traced_lat.end());
    all.untraced_lat.insert(all.untraced_lat.end(), r.untraced_lat.begin(),
                            r.untraced_lat.end());
    all.sampled.insert(all.sampled.end(), r.sampled.begin(), r.sampled.end());
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.traced_total += r.traced_total;
    all.spans.Merge(r.spans);
    all.exec.Merge(r.exec);
  }
  report->Count(all.attempted + log.attempted, all.failed + log.failed);
  for (size_t i = 0; i < all.errors.size() && i < 5; ++i) {
    report->Fail("query failed: " + all.errors[i]);
  }
  for (size_t i = 0; i < log.errors.size() && i < 5; ++i) report->Fail(log.errors[i]);

  report->Set("setup_s", setup.seconds);
  report->Set("setup_rss_mb", setup.rss_mb);
  ReportWindow(all.latencies, elapsed, report);
  report->Set("bytes_per_user_byte", Mean(log.space_amp));
  report->Note("ingest_serve",
               Fmt("samples %zu queries, %llu masks in %zu epochs, %zu "
                   "compactions over %.2f s",
                   all.latencies.size(),
                   static_cast<unsigned long long>(log.appended),
                   log.publish_s.size(), log.compact_ms.size(), elapsed));

  if (f.trace) {
    const double n = std::max<uint64_t>(1, all.exec.queries);
    report->Set("storage.masks_loaded_per_query", all.exec.loaded / n);
    report->Set("storage.bytes_read_per_query", all.exec.bytes / n);
    ReportCache(cache_before, pool->Stats(), all.exec.queries, report);
    all.exec.Emit(report);
    all.spans.Emit(report);
    ReportService(d->service()->Stats(), report);
    const double user = static_cast<double>(log.appended_bytes);
    const double copied = static_cast<double>(
        d->maintenance()->compactor()->Counters().bytes_copied_total -
        copied_before);
    report->Set("ingest.append_us_per_mask", Mean(log.append_s) * 1e6);
    report->Set("ingest.publish_p95_ms", PercentileOf(log.publish_s, 0.95) * 1e3);
    report->Set("ingest.manifest_kib_per_publish",
                Ratio(log.manifest_bytes / 1024.0,
                      static_cast<double>(log.publish_s.size())));
    report->Set("ingest.write_amp",
                Ratio(static_cast<double>(log.stored_bytes + log.manifest_bytes) +
                          copied,
                      user));
    report->Set("maintain.compact_ms_per_run", Mean(log.compact_ms));
    report->Set("maintain.swap_pause_ms_max",
                log.swap_pause_ms.empty()
                    ? 0
                    : *std::max_element(log.swap_pause_ms.begin(),
                                        log.swap_pause_ms.end()));
    report->Set("maintain.bytes_rewritten_per_user_byte", Ratio(copied, user));
    report->Set("maintain.query_p99_during_compact_ms",
                PercentileOf(all.during_compaction, 0.99) * 1e3);
    report->Set("bench.generator_lag_p99_ms",
                PercentileOf(writer_lag, 0.99) * 1e3);
    report->Set("obs.tracing_overhead_pct",
                OverheadPct(all.traced_lat, all.untraced_lat));
    report->Set("bench.attributed_pct",
                Ratio(all.spans.Attributed(), all.traced_total) * 100);
    report->Set("sql.parse_bind_us_per_query", ParseBindMicros(stmts));
    std::vector<Mask> sample(corpus.masks.begin(),
                             corpus.masks.begin() +
                                 std::min<size_t>(256, corpus.masks.size()));
    TimeKernels(sample, PaperChi(side, side), report);
  }

  // Per-epoch oracle: rebuild each sampled epoch's visible corpus from the
  // writer's record and evaluate the sampled queries by brute force.
  std::map<int64_t, std::vector<Observed>> by_epoch;
  for (const auto& [epoch, o] : all.sampled) by_epoch[epoch].push_back(o);
  std::vector<int64_t> epochs;
  for (const auto& entry : by_epoch) epochs.push_back(entry.first);
  std::vector<uint64_t> wrong(epochs.size(), 0);
  std::vector<char> unknown(epochs.size(), 0);
  ThreadPool check_pool(4);
  ParallelFor(&check_pool, epochs.size(), [&](size_t e) {
    auto it = sys->visible.find(epochs[e]);
    if (it == sys->visible.end()) {
      unknown[e] = 1;
      return;
    }
    const Keys& keys = *it->second;
    std::vector<MaskMeta> metas;
    for (size_t i = 0; i < keys.size(); ++i) {
      MaskMeta m = corpus.MetaFor(keys[i]);
      m.mask_id = static_cast<MaskId>(i);
      metas.push_back(m);
    }
    const OracleStore oracle(std::move(metas));
    const ReferenceEvaluator ref(
        &oracle, [&](MaskId id, int64_t* bytes) -> Result<Mask> {
          const Mask& m = corpus.MaskFor(keys[static_cast<size_t>(id)]);
          *bytes = static_cast<int64_t>(m.ByteSize());
          return m;
        });
    for (const Observed& o : by_epoch[epochs[e]]) {
      auto r = Run(ref, stmts.queries[o.stmt]);
      if (!r.ok() || Digest(*r) != o.digest) ++wrong[e];
    }
  });
  uint64_t mismatches = 0;
  for (size_t e = 0; e < epochs.size(); ++e) {
    if (unknown[e]) report->Fail(Fmt("query admitted at unpublished epoch %lld",
                                     static_cast<long long>(epochs[e])));
    mismatches += wrong[e];
  }
  if (mismatches > 0) {
    report->Fail(Fmt("%llu sampled answers differ from the epoch oracle",
                     static_cast<unsigned long long>(mismatches)));
  }
  report->Count(0, mismatches);
  report->Note("ingest_serve", Fmt("checked %zu sampled answers over %zu epochs",
                                   all.sampled.size(), epochs.size()));
  sys.reset();
  Must(RemovePathRecursive(dir), "clear ingest dir");
}

// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(const Flags&, const Scale&, Report*);
};

constexpr Workload kWorkloads[] = {
    {"explore_cold", RunExploreCold},
    {"serve_warm_sql", RunServeWarmSql},
    {"serve_open_disk", RunServeOpenDisk},
    {"ingest_serve", RunIngestServe},
};

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.smoke) {
    // Tiny scale, both modes, every answer checked.
    const Scale scale = MakeScale(/*smoke=*/true);
    bool ok = true;
    for (const Workload& w : kWorkloads) {
      for (const bool trace : {false, true}) {
        Flags f = flags;
        f.workload = w.name;
        f.seconds = 0.5;
        f.trace = trace;
        Report report;
        w.run(f, scale, &report);
        report.Print(w.name, !trace, trace, /*json=*/false);
        ok = ok && report.correct();
      }
    }
    std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  for (const Workload& w : kWorkloads) {
    if (flags.workload != w.name) continue;
    Report report;
    w.run(flags, MakeScale(/*smoke=*/false), &report);
    report.Print(w.name, !flags.trace, flags.trace, /*json=*/true);
    return report.correct() ? 0 : 3;
  }
  std::fprintf(stderr, "msbench: unknown workload '%s'\n",
               flags.workload.c_str());
  Usage(2);
}

}  // namespace
}  // namespace msbench
}  // namespace masksearch

int main(int argc, char** argv) {
  return masksearch::msbench::Main(argc, argv);
}
