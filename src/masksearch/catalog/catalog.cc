#include "masksearch/catalog/catalog.h"

#include <utility>

#include "masksearch/obs/metrics.h"

namespace masksearch {

Dataset::~Dataset() {
  // The collector reads the session / pool / ingestor below — detach it
  // before anything it scrapes is torn down.
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
  // Stop background maintenance first so no compaction swap lands while
  // the service drains its in-flight (snapshot-pinning) queries.
  if (scheduler_ != nullptr) (void)scheduler_->Stop();
  if (service_ != nullptr) service_->Shutdown();
}

Result<std::shared_ptr<PendingQuery>> Dataset::Submit(
    ServiceRequest request, const std::string& sqltext) {
  if (submitter_) return submitter_(std::move(request), sqltext);
  return service_->Submit(std::move(request));
}

Result<MaskId> Dataset::Ingest(MaskMeta meta, const Mask& mask) {
  if (!live()) {
    return Status::InvalidArgument("dataset '" + name_ +
                                      "' is not a live (ingesting) dataset");
  }
  return ingestor_->Append(meta, mask);
}

Status Dataset::Publish() {
  if (!live()) {
    return Status::InvalidArgument("dataset '" + name_ +
                                      "' is not a live (ingesting) dataset");
  }
  return ingestor_->Publish();
}

Status Dataset::Delete(MaskId id) {
  if (!live()) {
    return Status::InvalidArgument("dataset '" + name_ +
                                      "' is not a live (ingesting) dataset");
  }
  return ingestor_->Delete(id);
}

Status Dataset::Compact() {
  if (!live()) {
    return Status::InvalidArgument("dataset '" + name_ +
                                      "' is not a live (ingesting) dataset");
  }
  return scheduler_->CompactNow();
}

Result<Dataset*> Catalog::Register(const std::string& name,
                                   const std::string& dir,
                                   const DatasetConfig& config) {
  MS_RETURN_NOT_OK(ClaimName(name));
  return Install(name, OpenDataset(name, dir, config));
}

Result<Dataset*> Catalog::RegisterLive(const std::string& name,
                                       const std::string& dir,
                                       const LiveDatasetConfig& config) {
  // Claimed before Ingestor::Open runs recovery: a second registration of
  // a live dataset's directory would truncate its unpublished appends.
  MS_RETURN_NOT_OK(ClaimName(name));
  return Install(name, OpenLiveDataset(name, dir, config));
}

Status Catalog::ClaimName(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty dataset name");
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.count(name) != 0 || !claimed_.insert(name).second) {
    return Status::AlreadyExists("dataset '" + name +
                                 "' is already registered");
  }
  return Status::OK();
}

Result<Dataset*> Catalog::Install(const std::string& name,
                                  Result<std::unique_ptr<Dataset>> opened) {
  std::lock_guard<std::mutex> lock(mu_);
  claimed_.erase(name);
  if (!opened.ok()) return opened.status();
  return datasets_.emplace(name, std::move(*opened)).first->second.get();
}

Result<std::unique_ptr<Dataset>> Catalog::OpenDataset(
    const std::string& name, const std::string& dir,
    const DatasetConfig& config) {
  auto dataset = std::unique_ptr<Dataset>(new Dataset());
  dataset->name_ = name;
  dataset->dir_ = dir;
  MS_ASSIGN_OR_RETURN(dataset->store_, MaskStore::Open(dir, config.store));
  MS_ASSIGN_OR_RETURN(dataset->session_,
                      Session::Open(dataset->store_.get(), config.session));
  dataset->metadata_ = std::make_unique<MetadataCache>(dataset->store_.get(),
                                                       config.metadata);
  QueryServiceOptions service_opts = config.service;
  if (!service_opts.cost_estimator) {
    // The memoization seam: admission costing goes through the TTL'd
    // metadata cache instead of the service's built-in catalog walk.
    service_opts.cost_estimator =
        [cache = dataset->metadata_.get()](const ServiceRequest& request) {
          return cache->EstimateCostBytes(request);
        };
  }
  MS_ASSIGN_OR_RETURN(
      dataset->service_,
      QueryService::Start(dataset->session_.get(), service_opts));

  // Cache gauges whose truth lives in the pool / session, read at scrape
  // time (docs/OBSERVABILITY.md). Labeled per dataset so a catalog serving
  // several stores stays distinguishable.
  const std::string label = obs::Label("dataset", name);
  std::shared_ptr<BufferPool> pool = config.store.cache;
  const ChiSource* chi = dataset->session_->chis();
  dataset->metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [label, pool, chi](obs::MetricSink& sink) {
        const CacheStats s = pool != nullptr ? pool->Stats() : CacheStats{};
        sink.Gauge("ms_cache_buffer_pool_hit_ratio" + label, s.HitRatio());
        sink.Gauge("ms_cache_buffer_pool_resident_bytes" + label,
                   static_cast<double>(s.resident_bytes));
        sink.Gauge("ms_cache_chi_resident" + label,
                   chi != nullptr ? static_cast<double>(chi->size()) : 0.0);
      });
  return dataset;
}

Result<std::unique_ptr<Dataset>> Catalog::OpenLiveDataset(
    const std::string& name, const std::string& dir,
    const LiveDatasetConfig& config) {
  auto dataset = std::unique_ptr<Dataset>(new Dataset());
  dataset->name_ = name;
  dataset->dir_ = dir;
  // Resume an existing store (with torn-tail recovery) or start a fresh
  // empty one at epoch 0.
  MS_ASSIGN_OR_RETURN(dataset->ingestor_,
                      Ingestor::OpenOrCreate(dir, config.ingest));
  dataset->scheduler_ = std::make_unique<MaintenanceScheduler>(
      dataset->ingestor_.get(), config.maintain);
  if (config.start_maintenance) dataset->scheduler_->Start();

  QueryServiceOptions service_opts = config.service;
  // Epoch-snapshot resolution (docs/INGEST.md): each admitted request pins
  // the snapshot current *now*; the lease keeps it alive until the request
  // finishes, however many epochs get published meanwhile. Admission
  // costing runs against the lease's byte-stable catalog (the service's
  // built-in walk), so no TTL'd metadata cache is installed for live
  // datasets.
  service_opts.session_resolver =
      [ingestor = dataset->ingestor_.get()]() -> SessionLease {
    std::shared_ptr<const Snapshot> snap = ingestor->snapshot();
    SessionLease lease;
    lease.session = snap->session();
    lease.epoch = snap->epoch();
    lease.pin = std::move(snap);
    return lease;
  };
  MS_ASSIGN_OR_RETURN(dataset->service_,
                      QueryService::Start(nullptr, service_opts));

  // Live-dataset gauges: the published epoch and the shared ingest CHI
  // cache's residency, read through the current snapshot at scrape time.
  const std::string label = obs::Label("dataset", name);
  Ingestor* ingestor = dataset->ingestor_.get();
  dataset->metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [label, ingestor](obs::MetricSink& sink) {
        sink.Gauge("ms_live_epoch" + label,
                   static_cast<double>(ingestor->epoch()));
        std::shared_ptr<const Snapshot> snap = ingestor->snapshot();
        const ChiSource* chi = snap != nullptr && snap->session() != nullptr
                                   ? snap->session()->chis()
                                   : nullptr;
        sink.Gauge("ms_cache_chi_resident" + label,
                   chi != nullptr ? static_cast<double>(chi->size()) : 0.0);
      });
  return dataset;
}

Dataset* Catalog::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) names.push_back(name);
  return names;
}

size_t Catalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datasets_.size();
}

void Catalog::ShutdownAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, dataset] : datasets_) {
    if (dataset->service_ != nullptr) dataset->service_->Shutdown();
  }
}

}  // namespace masksearch
