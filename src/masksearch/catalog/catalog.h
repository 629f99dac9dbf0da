// Catalog: named datasets served by one process (docs/NETWORK.md).
//
// A Dataset bundles everything one logical table needs to be served: the
// MaskStore, a shared Session (CHI caches + buffer pool), a QueryService
// (admission, fair scheduling, executor slots), and a MetadataCache that
// the catalog installs as the service's admission cost estimator — so the
// O(catalog) selection-costing walk runs at most once per TTL window per
// selection shape instead of on every Submit. The network server routes
// each wire request to a dataset by name, then through Dataset::Submit —
// the replication seam: by default work goes straight to the dataset's own
// QueryService, but a replicated deployment installs a submitter (the
// replica layer's AttachRouter) and every wire query is then routed across
// the replica group with health checks and failover (docs/REPLICATION.md).

#ifndef MASKSEARCH_CATALOG_CATALOG_H_
#define MASKSEARCH_CATALOG_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "masksearch/catalog/metadata_cache.h"
#include "masksearch/exec/session.h"
#include "masksearch/ingest/ingestor.h"
#include "masksearch/maintain/scheduler.h"
#include "masksearch/service/query_service.h"
#include "masksearch/storage/mask_store.h"

namespace masksearch {

/// \brief Everything needed to open and serve one dataset. Pointer members
/// inside the option structs (thread pools, shared buffer pools) stay
/// caller-owned and must outlive the catalog.
struct DatasetConfig {
  MaskStore::Options store;
  SessionOptions session;
  QueryServiceOptions service;
  MetadataCacheOptions metadata;
};

/// \brief Configuration of a *live* (ingesting) dataset: the ingestor owns
/// the store files and the snapshot machinery; the service resolves every
/// request against the current epoch's snapshot (docs/INGEST.md).
struct LiveDatasetConfig {
  IngestorOptions ingest;
  QueryServiceOptions service;
  MaintenanceOptions maintain;
  /// Launch the MaintenanceScheduler's background thread at registration.
  /// Off by default: Dataset::Compact() still works (inline single-flight),
  /// and tests that script compaction explicitly stay deterministic.
  bool start_maintenance = false;
};

/// \brief One served dataset. Owned by the Catalog; pointers returned by
/// the accessors are stable for the catalog's lifetime.
class Dataset {
 public:
  ~Dataset();

  const std::string& name() const { return name_; }
  const std::string& dir() const { return dir_; }
  Session* session() const { return session_.get(); }
  QueryService* service() const { return service_.get(); }
  MetadataCache* metadata() const { return metadata_.get(); }
  const MaskStore& store() const { return *store_; }

  /// \brief True for datasets registered with RegisterLive: the store is
  /// ingesting, `store()`/`session()`/`metadata()` are unset (null), and
  /// queries resolve the current epoch snapshot at admission instead.
  bool live() const { return ingestor_ != nullptr; }
  Ingestor* ingestor() const { return ingestor_.get(); }
  /// \brief Current published epoch (0 for fixed datasets).
  int64_t epoch() const { return live() ? ingestor_->epoch() : 0; }
  /// \brief Current published snapshot (null for fixed datasets).
  std::shared_ptr<const Snapshot> snapshot() const {
    return live() ? ingestor_->snapshot() : nullptr;
  }

  /// \brief INSERT path of a live dataset: appends `mask`, invisible until
  /// Publish(). Typed kInvalidArgument on a fixed dataset.
  Result<MaskId> Ingest(MaskMeta meta, const Mask& mask);
  /// \brief Publishes appended masks as the next epoch (live datasets only).
  Status Publish();
  /// \brief DELETE path of a live dataset: tombstones `id` (current
  /// generation's physical id space); the mask vanishes at the next
  /// Publish(). Typed kInvalidArgument on a fixed dataset.
  Status Delete(MaskId id);
  /// \brief Runs a compaction (single-flight through the dataset's
  /// MaintenanceScheduler, inline when no background thread is running) and
  /// blocks for its outcome. Typed kInvalidArgument on a fixed dataset.
  Status Compact();
  /// \brief Maintenance counters (live datasets only; null otherwise).
  MaintenanceScheduler* maintenance() const { return scheduler_.get(); }

  /// \brief Replacement submission path (the replication seam). Takes the
  /// request plus its SQL text when known — text a router needs to re-issue
  /// the query to a remote replica and to pin cache-affine placement.
  using Submitter = std::function<Result<std::shared_ptr<PendingQuery>>(
      ServiceRequest request, const std::string& sqltext)>;

  /// \brief Installs `submitter` as the dataset's submission path (empty
  /// restores the default). Install before serving starts: the hook itself
  /// is not guarded against concurrent Submit calls.
  void set_submitter(Submitter submitter) { submitter_ = std::move(submitter); }

  /// \brief Submits through the installed submitter, or directly to the
  /// dataset's own QueryService when none is installed. This is the path
  /// the network server uses for every wire query.
  Result<std::shared_ptr<PendingQuery>> Submit(
      ServiceRequest request, const std::string& sqltext = std::string());

 private:
  friend class Catalog;
  Dataset() = default;

  std::string name_;
  std::string dir_;
  // Destruction runs bottom-up: the service (joins its workers) goes before
  // the session and store it executes against. For live datasets the
  // ingestor replaces the fixed store/session pair; the service's leases
  // pin snapshots, and Shutdown drains them before the ingestor dies. The
  // maintenance scheduler sits between ingestor and service so its thread
  // (which compacts through the ingestor) is joined after the service
  // stops but before the ingestor goes away; ~Dataset also stops it
  // explicitly, ahead of service shutdown, so no compaction starts while
  // queries drain.
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<MetadataCache> metadata_;
  std::unique_ptr<Ingestor> ingestor_;
  std::unique_ptr<MaintenanceScheduler> scheduler_;
  std::unique_ptr<QueryService> service_;
  Submitter submitter_;
  /// Collector emitting this dataset's gauges (buffer-pool hit ratio and
  /// residency, CHI-cache residency, live epoch); removed first in
  /// ~Dataset, before the components it reads die.
  size_t metrics_collector_ = 0;
};

/// \brief Thread-safe name → Dataset registry. Registration normally
/// happens before serving starts, but late registration during serving is
/// safe.
class Catalog {
 public:
  Catalog() = default;
  ~Catalog() { ShutdownAll(); }

  /// \brief Opens the store at `dir`, starts its session + service, and
  /// registers the bundle under `name`. Fails on duplicate names — before
  /// opening anything — and on any open error (nothing is registered then).
  Result<Dataset*> Register(const std::string& name, const std::string& dir,
                            const DatasetConfig& config);

  /// \brief Registers a *live* (ingesting) dataset at `dir`: resumes an
  /// existing store there (Ingestor::Open, torn-tail recovery included) or
  /// creates a fresh empty one, then starts a QueryService whose every
  /// request resolves the current epoch snapshot at admission
  /// (docs/INGEST.md). INSERTs go through Dataset::Ingest + Publish.
  Result<Dataset*> RegisterLive(const std::string& name,
                                const std::string& dir,
                                const LiveDatasetConfig& config);

  /// \brief Null when `name` is not registered.
  Dataset* Find(const std::string& name) const;

  std::vector<std::string> Names() const;
  size_t size() const;

  /// \brief Stops every dataset's service (idempotent; also run by the
  /// destructor). Datasets stay registered for post-shutdown inspection.
  void ShutdownAll();

 private:
  /// Reserves `name` for an in-flight registration; AlreadyExists when it
  /// is registered or being registered.
  Status ClaimName(const std::string& name);
  /// Releases the claim on `name` and registers the opened dataset.
  Result<Dataset*> Install(const std::string& name,
                           Result<std::unique_ptr<Dataset>> opened);
  static Result<std::unique_ptr<Dataset>> OpenDataset(
      const std::string& name, const std::string& dir,
      const DatasetConfig& config);
  static Result<std::unique_ptr<Dataset>> OpenLiveDataset(
      const std::string& name, const std::string& dir,
      const LiveDatasetConfig& config);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Dataset>> datasets_;
  std::set<std::string> claimed_;  ///< registrations in progress
};

}  // namespace masksearch

#endif  // MASKSEARCH_CATALOG_CATALOG_H_
