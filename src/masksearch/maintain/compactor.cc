#include "masksearch/maintain/compactor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "masksearch/obs/metrics.h"

namespace masksearch {

namespace {
double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string FmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}
}  // namespace

std::string CompactionStats::ToString() const {
  return "generation=" + std::to_string(generation) +
         " masks_copied=" + std::to_string(masks_copied) +
         " masks_dropped=" + std::to_string(masks_dropped) +
         " bytes_copied=" + std::to_string(bytes_copied) +
         " dead_bytes_reclaimed=" + std::to_string(dead_bytes_reclaimed) +
         " total_ms=" + FmtMs(total_ms) +
         " swap_pause_ms=" + FmtMs(swap_pause_ms);
}

std::string MaintenanceCounters::ToString() const {
  return "compactions_completed=" + std::to_string(compactions_completed) +
         " compactions_failed=" + std::to_string(compactions_failed) +
         " bytes_copied_total=" + std::to_string(bytes_copied_total) +
         " dead_bytes_reclaimed_total=" +
         std::to_string(dead_bytes_reclaimed_total) +
         " masks_dropped_total=" + std::to_string(masks_dropped_total) +
         " last_compaction_ms=" + FmtMs(last_compaction_ms) +
         " last_swap_pause_ms=" + FmtMs(last_swap_pause_ms) +
         " last_generation=" + std::to_string(last_generation);
}

std::string IngestMaintenancePath(const std::string& dir) {
  return dir + "/ingest.maintenance";
}

Result<MaintenanceCounters> ReadMaintenanceCounters(const std::string& dir) {
  MaintenanceCounters c;
  const std::string path = IngestMaintenancePath(dir);
  if (!PathExists(path)) return c;
  MS_ASSIGN_OR_RETURN(std::string body, ReadFile(path));
  size_t pos = 0;
  bool first = true;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (first) {
      first = false;
      if (line != "maintenance v1") {
        return Status::Corruption("bad maintenance sidecar header in '" +
                                  path + "'");
      }
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    // Lenient by design: unknown keys are skipped so the format can grow.
    if (key == "compactions_completed") {
      c.compactions_completed = std::atoll(val.c_str());
    } else if (key == "compactions_failed") {
      c.compactions_failed = std::atoll(val.c_str());
    } else if (key == "bytes_copied_total") {
      c.bytes_copied_total = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "dead_bytes_reclaimed_total") {
      c.dead_bytes_reclaimed_total = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "masks_dropped_total") {
      c.masks_dropped_total = std::atoll(val.c_str());
    } else if (key == "last_compaction_ms") {
      c.last_compaction_ms = std::atof(val.c_str());
    } else if (key == "last_swap_pause_ms") {
      c.last_swap_pause_ms = std::atof(val.c_str());
    } else if (key == "last_generation") {
      c.last_generation = std::atoll(val.c_str());
    }
  }
  if (first) {
    return Status::Corruption("empty maintenance sidecar '" + path + "'");
  }
  return c;
}

Compactor::Compactor(Ingestor* ingestor, CompactorOptions opts)
    : ingestor_(ingestor),
      opts_(opts),
      throttle_(opts.throttle_bytes_per_sec, /*latency_us=*/0.0,
                /*queue_depth=*/1) {
  Result<MaintenanceCounters> persisted =
      ReadMaintenanceCounters(ingestor_->dir());
  if (persisted.ok()) counters_ = *persisted;
  loaded_ = counters_;
  // The ms_maintain_* counters are per process: the persisted history
  // loaded above is subtracted out.
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        std::lock_guard<std::mutex> lock(mu_);
        const MaintenanceCounters& c = counters_;
        const MaintenanceCounters& at_load = loaded_;
        sink.Counter("ms_maintain_compactions_total",
                     c.compactions_completed - at_load.compactions_completed);
        sink.Counter("ms_maintain_compactions_failed_total",
                     c.compactions_failed - at_load.compactions_failed);
        sink.Counter("ms_maintain_bytes_copied_total",
                     c.bytes_copied_total - at_load.bytes_copied_total);
        sink.Counter("ms_maintain_dead_bytes_reclaimed_total",
                     c.dead_bytes_reclaimed_total -
                         at_load.dead_bytes_reclaimed_total);
        sink.Histogram("ms_maintain_swap_pause_seconds", swap_pauses_);
      });
}

Compactor::~Compactor() {
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

void Compactor::Persist(const MaintenanceCounters& counters) {
  // The sidecar holds ToString()'s key=value fields, one per line.
  std::string fields = counters.ToString();
  std::replace(fields.begin(), fields.end(), ' ', '\n');
  // Best-effort: a failed stats write must not fail the compaction that
  // already swapped in durably.
  (void)WriteFileAtomic(IngestMaintenancePath(ingestor_->dir()),
                        "maintenance v1\n" + fields + "\n");
}

Result<CompactionStats> Compactor::Compact() {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  Result<CompactionStats> result = CompactLocked();
  MaintenanceCounters counters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      counters_.compactions_completed += 1;
      counters_.bytes_copied_total += result->bytes_copied;
      counters_.dead_bytes_reclaimed_total += result->dead_bytes_reclaimed;
      counters_.masks_dropped_total += result->masks_dropped;
      counters_.last_compaction_ms = result->total_ms;
      counters_.last_swap_pause_ms = result->swap_pause_ms;
      counters_.last_generation = result->generation;
      swap_pauses_.Record(result->swap_pause_ms * 1e-3);
    } else {
      counters_.compactions_failed += 1;
    }
    counters = counters_;
  }
  Persist(counters);
  return result;
}

Result<CompactionStats> Compactor::CompactLocked() {
  const auto t0 = std::chrono::steady_clock::now();

  // Phase A: pin the current snapshot and bulk-copy its visible masks into
  // the next generation directory. No ingest locks are held — writers
  // append and queries serve throughout, and the pin guarantees the blobs
  // we read are byte-stable.
  std::shared_ptr<const Snapshot> base = ingestor_->snapshot();
  if (base == nullptr) {
    return Status::Internal("Compact: ingestor has no published snapshot");
  }
  const int64_t dst_gen = base->generation() + 1;
  const std::string dst_dir = GenerationDir(ingestor_->dir(), dst_gen);
  // A previously failed run may have left a half-built directory.
  MS_RETURN_NOT_OK(RemovePathRecursive(dst_dir));

  MaskStoreWriter::Options wopts;
  wopts.kind = ingestor_->kind();
  wopts.num_shards = opts_.target_num_shards > 0 ? opts_.target_num_shards
                                                 : base->store().num_shards();
  MS_ASSIGN_OR_RETURN(std::unique_ptr<MaskStoreWriter> writer,
                      MaskStoreWriter::Create(dst_dir, wopts));

  int64_t bulk_copied = 0;
  uint64_t bulk_bytes = 0;
  std::string blob;
  for (MaskId v = 0; v < base->watermark(); ++v) {
    MS_RETURN_NOT_OK(base->store().ReadBlob(v, &blob));
    if (throttle_.enabled()) throttle_.Acquire(blob.size());
    MS_ASSIGN_OR_RETURN(MaskId assigned,
                        writer->AppendBlob(base->store().meta(v), blob));
    if (assigned != v) {
      return Status::Internal("Compact: bulk copy id drift (" +
                              std::to_string(assigned) +
                              " != " + std::to_string(v) + ")");
    }
    ++bulk_copied;
    bulk_bytes += blob.size();
  }

  // Phase B: the ingestor catches up, swaps, and publishes under its write
  // lock — the pause writers (not readers) observe.
  int64_t catchup_copied = 0, dropped = 0;
  uint64_t catchup_bytes = 0, reclaimed = 0;
  const auto swap_t0 = std::chrono::steady_clock::now();
  MS_RETURN_NOT_OK(ingestor_->SwapGeneration(writer.get(), *base, dst_dir,
                                             dst_gen, &catchup_copied,
                                             &catchup_bytes, &dropped,
                                             &reclaimed));
  const double swap_ms = MsSince(swap_t0);
  base.reset();  // drop our pin: the old generation may now drain

  CompactionStats stats;
  stats.generation = dst_gen;
  stats.masks_copied = bulk_copied + catchup_copied;
  stats.masks_dropped = dropped;
  stats.bytes_copied = bulk_bytes + catchup_bytes;
  stats.dead_bytes_reclaimed = reclaimed;
  stats.total_ms = MsSince(t0);
  stats.swap_pause_ms = swap_ms;
  return stats;
}

MaintenanceCounters Compactor::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace masksearch
