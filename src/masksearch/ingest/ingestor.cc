#include "masksearch/ingest/ingestor.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "masksearch/cache/cached_mask_store.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/obs/metrics.h"
#include "masksearch/storage/codec.h"
#include "masksearch/storage/filtered_mask_store.h"
#include "masksearch/storage/sharded_mask_store.h"

namespace masksearch {

namespace {
constexpr int32_t kMaxIngestShards = 4096;  // mirrors the manifest limit

/// Removes every `gen-<g>` subdirectory of `dir` except the one named by
/// `keep_gen` (when > 0). Crashed compactions leave a half-built next
/// generation, and a process killed before GC leaves a retired one; both
/// are safe to delete at Open — no process holds a pin.
Status CleanStaleGenerations(const std::string& dir, int64_t keep_gen) {
  namespace fs = std::filesystem;
  const std::string keep = "gen-" + std::to_string(keep_gen);
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("list '" + dir + "': " + ec.message());
  }
  for (const auto& entry : it) {
    std::error_code type_ec;
    if (!entry.is_directory(type_ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("gen-", 0) != 0) continue;
    if (keep_gen > 0 && name == keep) continue;
    MS_RETURN_NOT_OK(RemovePathRecursive(entry.path().string()));
  }
  return Status::OK();
}

/// Removes the generation-0 store files living at the top-level directory
/// (manifest, shard data, tombstone sidecar). Used when Open finds the
/// current generation > 0 but generation 0 was never garbage-collected.
Status CleanGenerationZeroFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("list '" + dir + "': " + ec.message());
  }
  for (const auto& entry : it) {
    std::error_code type_ec;
    if (!entry.is_regular_file(type_ec)) continue;
    const std::string name = entry.path().filename().string();
    const bool is_data = name.rfind("masks.", 0) == 0 &&
                         name.size() > 4 &&
                         name.compare(name.size() - 4, 4, ".dat") == 0;
    if (name == "masks.msm" || name == "ingest.tombstones" || is_data) {
      MS_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  return Status::OK();
}
}  // namespace

std::string IngestEpochPath(const std::string& dir) {
  return dir + "/ingest.epoch";
}

// ---------------------------------------------------------------------------
// GenerationHandle
// ---------------------------------------------------------------------------

GenerationHandle::GenerationHandle(std::string root, int64_t gen,
                                   int32_t num_shards)
    : root_(std::move(root)), gen_(gen), num_shards_(num_shards) {}

GenerationHandle::~GenerationHandle() {
  if (!retired()) return;
  // Best-effort GC: a failed delete leaves garbage that the next Open's
  // stale-generation sweep removes, never a correctness problem.
  if (gen_ > 0) {
    (void)RemovePathRecursive(root_);
    return;
  }
  (void)RemoveFileIfExists(MaskStoreManifestPath(root_));
  (void)RemoveFileIfExists(MaskStoreTombstonePath(root_));
  for (int32_t s = 0; s < num_shards_; ++s) {
    (void)RemoveFileIfExists(MaskStoreShardDataPath(root_, s, num_shards_));
  }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Snapshot::~Snapshot() {
  // Order matters: the session references the store, and the store's
  // CachedMaskStore wrapper erases its pool owner on destruction — but that
  // erase skips entries a racing reader still held pinned. The explicit
  // sweep below runs after both are gone, so the last snapshot reference
  // always returns its cached bytes to the pool (the generation/owner leak
  // fix; regression in tests/cache_test.cc).
  session_.reset();
  store_.reset();
  if (pool_ != nullptr && has_blob_owner_) pool_->EraseOwner(blob_owner_);
  if (live_ != nullptr) live_->fetch_sub(1, std::memory_order_acq_rel);
  // gen_handle_ is released by member destruction: if this snapshot was the
  // last reference to a retired generation, its files are deleted now.
}

// ---------------------------------------------------------------------------
// Ingestor
// ---------------------------------------------------------------------------

std::string IngestStats::ToString() const {
  return "epoch=" + std::to_string(epoch) +
         " appended=" + std::to_string(appended) +
         " published=" + std::to_string(published) +
         " chis_built=" + std::to_string(chis_built) +
         " live_snapshots=" + std::to_string(live_snapshots) +
         " torn_bytes_recovered=" + std::to_string(torn_bytes_recovered) +
         " generation=" + std::to_string(generation) +
         " tombstones=" + std::to_string(tombstones) +
         " dead_bytes=" + std::to_string(dead_bytes);
}

Ingestor::Ingestor(std::string dir, IngestorOptions opts)
    : dir_(std::move(dir)), opts_(std::move(opts)), kind_(opts_.kind) {
  RotateChiCacheLocked();  // the first CHI index; nothing to lock yet
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        sink.Counter("ms_ingest_masks_appended_total", masks_appended_.load());
        sink.Counter("ms_ingest_bytes_appended_total", bytes_appended_.load());
        sink.Counter("ms_ingest_epochs_published_total",
                     epochs_published_.load());
        sink.Gauge("ms_ingest_visible_masks",
                   static_cast<double>(watermark()));
      });
}

Ingestor::~Ingestor() {
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

Result<std::unique_ptr<Ingestor>> Ingestor::Create(const std::string& dir,
                                                   const IngestorOptions& opts) {
  if (opts.num_shards < 1 || opts.num_shards > kMaxIngestShards) {
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxIngestShards) +
                                   "], got " + std::to_string(opts.num_shards));
  }
  if (!opts.chi.Valid()) {
    return Status::InvalidArgument("invalid CHI config: " +
                                   opts.chi.ToString());
  }
  MS_RETURN_NOT_OK(CreateDirs(dir));
  // Create replaces any previous store at `dir` wholesale — including a
  // compacted one: drop the generation sidecar, tombstone sidecar, and any
  // gen-* directories so the fresh store starts at generation 0.
  MS_RETURN_NOT_OK(RemoveFileIfExists(IngestGenerationPath(dir)));
  MS_RETURN_NOT_OK(RemoveFileIfExists(MaskStoreTombstonePath(dir)));
  MS_RETURN_NOT_OK(CleanStaleGenerations(dir, /*keep_gen=*/0));
  auto ing = std::unique_ptr<Ingestor>(new Ingestor(dir, opts));
  ing->gen_dir_ = dir;
  ing->shards_.reserve(opts.num_shards);
  for (int32_t s = 0; s < opts.num_shards; ++s) {
    MS_ASSIGN_OR_RETURN(
        auto w,
        FileWriter::Create(MaskStoreShardDataPath(dir, s, opts.num_shards)));
    ing->shards_.push_back(std::move(w));
  }
  ing->pool_ = BufferPool::MaybeCreate(opts.cache, opts.cache_budget_bytes,
                                       opts.cache_shards, opts.cache_admission);
  ing->live_ = std::make_shared<std::atomic<int64_t>>(0);
  ing->gen_handle_ =
      std::make_shared<GenerationHandle>(dir, 0, opts.num_shards);
  // Publish epoch 0 — the empty store — so a service can resolve a snapshot
  // before the first real Publish().
  {
    std::lock_guard<std::mutex> lock(ing->write_mu_);
    MS_RETURN_NOT_OK(ing->PublishLocked(0));
  }
  return ing;
}

Result<std::unique_ptr<Ingestor>> Ingestor::Open(const std::string& dir,
                                                 const IngestorOptions& opts) {
  if (!opts.chi.Valid()) {
    return Status::InvalidArgument("invalid CHI config: " +
                                   opts.chi.ToString());
  }
  // Generation resolution (docs/COMPACTION.md): the top-level sidecar names
  // the current generation; its directory holds the manifest + data files.
  MS_ASSIGN_OR_RETURN(int64_t gen, ReadStoreGeneration(dir));
  const std::string gen_root = GenerationDir(dir, gen);
  MS_ASSIGN_OR_RETURN(internal::ParsedManifest parsed,
                      internal::ReadMaskStoreManifest(gen_root));
  auto ing = std::unique_ptr<Ingestor>(new Ingestor(dir, opts));
  ing->kind_ = parsed.kind;
  ing->gen_dir_ = gen_root;
  ing->generation_.store(gen, std::memory_order_release);

  // Sweep generations other than the current one: a crashed compaction's
  // half-built next generation, or a retired one whose GC never ran. Safe —
  // no pins can exist before Open returns. When the current generation is
  // > 0, the never-collected generation-0 files at the top level go too.
  MS_RETURN_NOT_OK(CleanStaleGenerations(dir, gen));
  if (gen > 0) MS_RETURN_NOT_OK(CleanGenerationZeroFiles(dir));

  // Recovery: the manifest is the durable watermark. A shard file may have
  // a tail past what the manifest references (a torn append that never
  // published) — truncate it away. A shard file *shorter* than the manifest
  // requires lost published bytes: typed Corruption, never papered over.
  std::vector<uint64_t> required(parsed.num_shards, 0);
  for (size_t id = 0; id < parsed.sizes.size(); ++id) {
    const size_t shard = id % static_cast<size_t>(parsed.num_shards);
    required[shard] = std::max(required[shard],
                               parsed.offsets[id] + parsed.sizes[id]);
  }
  for (int32_t s = 0; s < parsed.num_shards; ++s) {
    const std::string path =
        MaskStoreShardDataPath(gen_root, s, parsed.num_shards);
    MS_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
    if (size < required[s]) {
      return Status::Corruption(
          "shard file '" + path + "' is shorter than the manifest requires (" +
          std::to_string(size) + " < " + std::to_string(required[s]) +
          " bytes): published data lost");
    }
    if (size > required[s]) {
      MS_RETURN_NOT_OK(TruncateFile(path, required[s]));
      ing->torn_bytes_recovered_ += size - required[s];
    }
    MS_ASSIGN_OR_RETURN(auto w, FileWriter::OpenAppend(path));
    ing->shards_.push_back(std::move(w));
  }

  // Resume the epoch counter from the sidecar (0 when absent — a store
  // written by MaskStoreWriter that is being made live for the first time).
  int64_t epoch = 0;
  if (PathExists(IngestEpochPath(dir))) {
    MS_ASSIGN_OR_RETURN(std::string text, ReadFile(IngestEpochPath(dir)));
    char* end = nullptr;
    epoch = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || epoch < 0) {
      return Status::Corruption("unparseable epoch sidecar: '" + text + "'");
    }
  }

  // Resume tombstones. A crash between the tombstone-sidecar write and the
  // manifest write can leave tombstones for appends that were rolled back
  // by the truncation above — drop them (the ids never published) and
  // rewrite the sidecar at the next publish.
  MS_ASSIGN_OR_RETURN(std::vector<MaskId> tombstones,
                      ReadMaskStoreTombstones(gen_root));
  {
    const MaskId n = static_cast<MaskId>(parsed.metas.size());
    const size_t before = tombstones.size();
    tombstones.erase(
        std::remove_if(tombstones.begin(), tombstones.end(),
                       [n](MaskId t) { return t >= n; }),
        tombstones.end());
    if (tombstones.size() != before) ing->tombstones_dirty_ = true;
  }
  uint64_t dead = 0;
  for (MaskId t : tombstones) dead += parsed.sizes[t];
  ing->tombstones_.insert(tombstones.begin(), tombstones.end());
  ing->tombstone_count_.store(static_cast<int64_t>(tombstones.size()),
                              std::memory_order_release);
  ing->dead_bytes_.store(dead, std::memory_order_release);

  ing->pool_ = BufferPool::MaybeCreate(opts.cache, opts.cache_budget_bytes,
                                       opts.cache_shards, opts.cache_admission);
  ing->live_ = std::make_shared<std::atomic<int64_t>>(0);
  ing->gen_handle_ =
      std::make_shared<GenerationHandle>(gen_root, gen, parsed.num_shards);

  ing->metas_ = std::move(parsed.metas);
  ing->offsets_ = std::move(parsed.offsets);
  ing->sizes_ = std::move(parsed.sizes);
  ing->appended_.store(static_cast<int64_t>(ing->metas_.size()),
                       std::memory_order_release);
  ing->RotateChiCacheLocked();  // sized to the recovered masks

  // Install the recovered snapshot without republishing: the on-disk state
  // already is the last durable epoch.
  MS_ASSIGN_OR_RETURN(
      std::shared_ptr<const Snapshot> snap,
      ing->BuildSnapshot(epoch, ing->metas_, ing->offsets_, ing->sizes_,
                         tombstones));
  {
    std::lock_guard<std::mutex> lock(ing->snap_mu_);
    ing->current_ = std::move(snap);
  }
  ing->epoch_.store(epoch, std::memory_order_release);
  ing->watermark_.store(
      static_cast<int64_t>(ing->metas_.size() - tombstones.size()),
      std::memory_order_release);
  return ing;
}

Result<bool> Ingestor::StoreExists(const std::string& dir) {
  MS_ASSIGN_OR_RETURN(const int64_t gen, ReadStoreGeneration(dir));
  return PathExists(MaskStoreManifestPath(GenerationDir(dir, gen)));
}

Result<std::unique_ptr<Ingestor>> Ingestor::OpenOrCreate(
    const std::string& dir, const IngestorOptions& opts, bool* resumed) {
  MS_ASSIGN_OR_RETURN(const bool exists, StoreExists(dir));
  if (resumed != nullptr) *resumed = exists;
  return exists ? Open(dir, opts) : Create(dir, opts);
}

Result<MaskId> Ingestor::AppendEncoded(MaskMeta meta,
                                       const std::string& payload,
                                       MaskId* visible_id,
                                       std::shared_ptr<IndexManager>* chis) {
  if (payload.empty()) {
    return Status::InvalidArgument("cannot append empty blob");
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  meta.mask_id = static_cast<MaskId>(metas_.size());
  FileWriter* data = shards_[meta.mask_id % num_shards()].get();
  const uint64_t offset = data->bytes_written();
  MS_RETURN_NOT_OK(data->Append(payload));
  masks_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(payload.size(), std::memory_order_relaxed);
  offsets_.push_back(offset);
  sizes_.push_back(payload.size());
  metas_.push_back(meta);
  appended_.store(static_cast<int64_t>(metas_.size()),
                  std::memory_order_release);
  // The visible id this mask will carry at the next publish: all current
  // tombstones sit below it, so the dense renumbering subtracts their
  // count. Captured with the CHI index under the same lock — a racing
  // Delete rotates the index, orphaning (not corrupting) this build.
  const MaskId visible = meta.mask_id - static_cast<MaskId>(tombstones_.size());
  if (visible >= chis_->num_masks()) RotateChiCacheLocked();
  if (visible_id != nullptr) *visible_id = visible;
  if (chis != nullptr && opts_.build_chi_on_ingest) *chis = chis_;
  return meta.mask_id;
}

void Ingestor::BuildIngestChi(const std::shared_ptr<IndexManager>& chi,
                              MaskId visible_id, const Mask& mask) {
  if (chi == nullptr) return;
  chi->Put(visible_id, BuildChi(mask, opts_.chi));
  chis_built_.fetch_add(1, std::memory_order_relaxed);
}

Result<MaskId> Ingestor::Append(MaskMeta meta, const Mask& mask) {
  if (mask.Empty()) return Status::InvalidArgument("cannot append empty mask");
  meta.width = mask.width();
  meta.height = mask.height();
  // Encode outside the write lock; only the file append is serialized.
  std::string payload;
  if (kind_ == StorageKind::kRawFloat32) {
    payload.assign(reinterpret_cast<const char*>(mask.data().data()),
                   mask.ByteSize());
  } else {
    payload = EncodeMask(mask, opts_.codec);
  }
  MaskId visible_id = 0;
  std::shared_ptr<IndexManager> chi;
  MS_ASSIGN_OR_RETURN(MaskId id,
                      AppendEncoded(meta, payload, &visible_id, &chi));
  // CHI build on ingest (§3.6 at the write path): the pixels are already in
  // memory, so the one-pass build happens now instead of on first query.
  BuildIngestChi(chi, visible_id, mask);
  return id;
}

Result<MaskId> Ingestor::AppendBlob(MaskMeta meta, const std::string& blob) {
  if (kind_ == StorageKind::kRawFloat32 &&
      blob.size() != static_cast<size_t>(meta.width) * meta.height *
                         sizeof(float)) {
    return Status::InvalidArgument(
        "raw blob size does not match meta width x height");
  }
  MaskId visible_id = 0;
  std::shared_ptr<IndexManager> chi;
  MS_ASSIGN_OR_RETURN(MaskId id, AppendEncoded(meta, blob, &visible_id, &chi));
  if (chi != nullptr) {
    // Decode to index. A blob that does not decode is still appended
    // verbatim (the writer contract); it just gets no ingest-time CHI.
    Result<Mask> decoded =
        kind_ == StorageKind::kRawFloat32
            ? [&]() -> Result<Mask> {
                std::vector<float> values(blob.size() / sizeof(float));
                std::memcpy(values.data(), blob.data(), blob.size());
                return Mask::FromData(meta.width, meta.height,
                                      std::move(values));
              }()
            : DecodeMask(blob);
    if (decoded.ok()) BuildIngestChi(chi, visible_id, *decoded);
  }
  return id;
}

Status Ingestor::Delete(MaskId id) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (id < 0 || id >= static_cast<MaskId>(metas_.size())) {
    return Status::InvalidArgument(
        "Delete: mask_id " + std::to_string(id) + " out of range [0, " +
        std::to_string(metas_.size()) + ") of generation " +
        std::to_string(generation_.load(std::memory_order_relaxed)));
  }
  if (!tombstones_.insert(id).second) {
    return Status::NotFound("Delete: mask_id " + std::to_string(id) +
                            " already deleted");
  }
  tombstones_dirty_ = true;
  dead_bytes_.fetch_add(sizes_[id], std::memory_order_acq_rel);
  tombstone_count_.store(static_cast<int64_t>(tombstones_.size()),
                         std::memory_order_release);
  // Every delete shifts the dense visible-id mapping of everything above
  // it, so CHIs keyed under the old mapping must not leak into snapshots
  // published under the new one. Rotation is the invalidation: pinned
  // snapshots keep the cache object they were published with.
  RotateChiCacheLocked();
  return Status::OK();
}

Result<MaskMeta> Ingestor::AppendedMeta(MaskId id) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (id < 0 || id >= static_cast<MaskId>(metas_.size())) {
    return Status::InvalidArgument("AppendedMeta: mask_id " +
                                   std::to_string(id) + " out of range [0, " +
                                   std::to_string(metas_.size()) + ")");
  }
  return metas_[id];
}

void Ingestor::RotateChiCacheLocked() {
  constexpr int64_t kMinChiSlots = 1024;
  chis_ = std::make_shared<IndexManager>(
      std::max(kMinChiSlots, 2 * static_cast<int64_t>(metas_.size())),
      opts_.chi);
}

Result<std::shared_ptr<const Snapshot>> Ingestor::BuildSnapshot(
    int64_t epoch, std::vector<MaskMeta> metas, std::vector<uint64_t> offsets,
    std::vector<uint64_t> sizes, std::vector<MaskId> tombstones) const {
  const int64_t phys_end = static_cast<int64_t>(metas.size());
  const int64_t watermark =
      phys_end - static_cast<int64_t>(tombstones.size());
  MaskStore::Options store_opts = opts_.store;
  store_opts.cache = nullptr;  // wrapping is done here, not by Open
  MS_ASSIGN_OR_RETURN(
      std::unique_ptr<MaskStore> store,
      ShardedMaskStore::Create(gen_dir_, store_opts, kind_, num_shards(),
                               std::move(metas), std::move(offsets),
                               std::move(sizes)));
  if (!tombstones.empty()) {
    // Tombstoned masks are holes in the physical id space; the filtering
    // decorator renumbers the survivors densely (docs/COMPACTION.md).
    MS_ASSIGN_OR_RETURN(store,
                        FilteredMaskStore::Wrap(std::move(store), tombstones));
  }
  uint64_t blob_owner = 0;
  bool has_blob_owner = false;
  if (pool_ != nullptr) {
    // Fresh owner per epoch: the blob cache starts cold for each snapshot
    // (the per-generation invalidation rule, docs/INGEST.md) while the CHI
    // cache — keyed by visible id — stays warm until a delete or
    // compaction rotates it.
    store = CachedMaskStore::Wrap(std::move(store), pool_);
    blob_owner = static_cast<const CachedMaskStore*>(store.get())->cache_owner();
    has_blob_owner = true;
  }

  // The snapshot's one CHI source is the cache it is published with: no
  // IndexManager, and the CHIs its queries build outlive the epoch.
  SessionOptions sess = opts_.session;
  sess.chi = opts_.chi;
  sess.cache = pool_;
  sess.shared_chis = chis_.get();
  MS_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                      Session::Open(store.get(), sess));

  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->epoch_ = epoch;
  snap->watermark_ = watermark;
  snap->gen_ = generation_.load(std::memory_order_acquire);
  snap->phys_end_ = phys_end;
  snap->tombstones_ = std::move(tombstones);
  snap->store_ = std::move(store);
  snap->session_ = std::move(session);
  snap->chis_ = chis_;
  snap->pool_ = pool_;
  snap->blob_owner_ = blob_owner;
  snap->has_blob_owner_ = has_blob_owner;
  snap->gen_handle_ = gen_handle_;
  snap->live_ = live_;
  live_->fetch_add(1, std::memory_order_acq_rel);
  return std::shared_ptr<const Snapshot>(std::move(snap));
}

Status Ingestor::PublishLocked(int64_t next_epoch) {
  // Durability ordering: (1) every shard's appended bytes are flushed and
  // fsynced, (2) the tombstone sidecar (when deletes happened) and the
  // manifest referencing them are atomically renamed into place, (3) the
  // epoch sidecar advances. A crash between any two steps leaves a store
  // that opens consistently at the previous (or just-published) epoch;
  // tombstones that outran a crashed manifest write reference rolled-back
  // appends and are dropped by Open's recovery.
  for (auto& shard : shards_) MS_RETURN_NOT_OK(shard->Flush());
  std::vector<MaskId> tombstones(tombstones_.begin(), tombstones_.end());
  if (tombstones_dirty_) {
    MS_RETURN_NOT_OK(WriteMaskStoreTombstones(gen_dir_, tombstones));
    tombstones_dirty_ = false;
  }
  MS_RETURN_NOT_OK(internal::WriteMaskStoreManifest(
      gen_dir_, kind_, num_shards(), metas_, offsets_, sizes_));
  MS_RETURN_NOT_OK(
      WriteFileAtomic(IngestEpochPath(dir_), std::to_string(next_epoch)));

  MS_ASSIGN_OR_RETURN(
      std::shared_ptr<const Snapshot> snap,
      BuildSnapshot(next_epoch, metas_, offsets_, sizes_, tombstones));
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    current_ = std::move(snap);
  }
  epoch_.store(next_epoch, std::memory_order_release);
  watermark_.store(
      static_cast<int64_t>(metas_.size() - tombstones_.size()),
      std::memory_order_release);
  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Ingestor::Publish() {
  std::lock_guard<std::mutex> lock(write_mu_);
  return PublishLocked(epoch_.load(std::memory_order_acquire) + 1);
}

Status Ingestor::SwapGeneration(MaskStoreWriter* writer, const Snapshot& base,
                                const std::string& dst_dir, int64_t dst_gen,
                                int64_t* catchup_copied,
                                uint64_t* catchup_bytes, int64_t* dropped,
                                uint64_t* reclaimed_bytes) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (base.gen_ != generation_.load(std::memory_order_acquire)) {
    return Status::Internal("SwapGeneration: base snapshot is of generation " +
                            std::to_string(base.gen_) + ", current is " +
                            std::to_string(generation_.load()));
  }
  // Catch-up copy: physical ids appended after the base snapshot was
  // pinned. Flush first so the reads below see every appended byte.
  for (auto& shard : shards_) MS_RETURN_NOT_OK(shard->Flush());
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  files.reserve(shards_.size());
  for (int32_t s = 0; s < num_shards(); ++s) {
    MS_ASSIGN_OR_RETURN(auto f, RandomAccessFile::Open(MaskStoreShardDataPath(
                                    gen_dir_, s, num_shards())));
    files.push_back(std::move(f));
  }
  int64_t copied = 0, dropped_total = 0;
  uint64_t copied_bytes = 0, reclaimed = 0;
  std::string blob;
  for (int64_t p = base.phys_end_;
       p < static_cast<int64_t>(metas_.size()); ++p) {
    if (tombstones_.count(static_cast<MaskId>(p)) != 0) {
      ++dropped_total;
      reclaimed += sizes_[p];
      continue;
    }
    blob.resize(sizes_[p]);
    MS_RETURN_NOT_OK(files[p % num_shards()]->ReadAt(offsets_[p], sizes_[p],
                                                     blob.empty()
                                                         ? nullptr
                                                         : &blob[0]));
    MS_ASSIGN_OR_RETURN(MaskId unused, writer->AppendBlob(metas_[p], blob));
    (void)unused;
    ++copied;
    copied_bytes += sizes_[p];
  }
  // Tombstones over the base prefix: ids the bulk copy already dropped
  // reclaim their bytes; ids deleted *after* the base snapshot was pinned
  // were copied as visible masks and survive as tombstones in the new
  // generation, renumbered to their position in the base's visible order.
  std::vector<MaskId> new_tombstones;
  for (MaskId t : tombstones_) {
    if (t >= base.phys_end_) continue;  // handled by the catch-up skip above
    const auto it = std::lower_bound(base.tombstones_.begin(),
                                     base.tombstones_.end(), t);
    if (it != base.tombstones_.end() && *it == t) {
      ++dropped_total;
      reclaimed += sizes_[t];
      continue;
    }
    const MaskId below =
        static_cast<MaskId>(it - base.tombstones_.begin());
    new_tombstones.push_back(t - below);
  }
  std::sort(new_tombstones.begin(), new_tombstones.end());

  MS_RETURN_NOT_OK(writer->Finish());
  if (!new_tombstones.empty()) {
    MS_RETURN_NOT_OK(WriteMaskStoreTombstones(dst_dir, new_tombstones));
  }
  // THE swap point: flipping the generation sidecar atomically makes the
  // new generation the one every future Open resolves. A crash before this
  // line leaves the old generation current (dst_dir is swept as a stale
  // generation); a crash after it opens the fully-durable new generation.
  MS_RETURN_NOT_OK(WriteFileAtomic(IngestGenerationPath(dir_),
                                   std::to_string(dst_gen)));

  // Swap the in-memory writer state over to the new generation.
  MS_ASSIGN_OR_RETURN(internal::ParsedManifest parsed,
                      internal::ReadMaskStoreManifest(dst_dir));
  std::vector<std::unique_ptr<FileWriter>> new_shards;
  new_shards.reserve(parsed.num_shards);
  for (int32_t s = 0; s < parsed.num_shards; ++s) {
    MS_ASSIGN_OR_RETURN(auto w, FileWriter::OpenAppend(MaskStoreShardDataPath(
                                    dst_dir, s, parsed.num_shards)));
    new_shards.push_back(std::move(w));
  }
  shards_ = std::move(new_shards);
  metas_ = std::move(parsed.metas);
  offsets_ = std::move(parsed.offsets);
  sizes_ = std::move(parsed.sizes);
  tombstones_.clear();
  tombstones_.insert(new_tombstones.begin(), new_tombstones.end());
  tombstones_dirty_ = false;  // sidecar written above
  uint64_t dead = 0;
  for (MaskId t : new_tombstones) dead += sizes_[t];
  dead_bytes_.store(dead, std::memory_order_release);
  tombstone_count_.store(static_cast<int64_t>(new_tombstones.size()),
                         std::memory_order_release);
  gen_dir_ = dst_dir;
  gen_handle_->Retire();
  gen_handle_ = std::make_shared<GenerationHandle>(dst_dir, dst_gen,
                                                   parsed.num_shards);
  generation_.store(dst_gen, std::memory_order_release);
  appended_.store(static_cast<int64_t>(metas_.size()),
                  std::memory_order_release);
  // The compaction renumbered every surviving mask: rotate the CHI cache
  // (pinned snapshots keep theirs) and publish the new generation as the
  // next epoch.
  RotateChiCacheLocked();
  MS_RETURN_NOT_OK(
      PublishLocked(epoch_.load(std::memory_order_acquire) + 1));

  if (catchup_copied != nullptr) *catchup_copied = copied;
  if (catchup_bytes != nullptr) *catchup_bytes = copied_bytes;
  if (dropped != nullptr) *dropped = dropped_total;
  if (reclaimed_bytes != nullptr) *reclaimed_bytes = reclaimed;
  return Status::OK();
}

std::shared_ptr<const Snapshot> Ingestor::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return current_;
}

IngestStats Ingestor::Stats() const {
  IngestStats s;
  s.epoch = epoch();
  s.appended = appended();
  s.published = watermark();
  s.chis_built = chis_built_.load(std::memory_order_relaxed);
  // The ingestor's own reference to the current snapshot is not "live" work.
  s.live_snapshots =
      std::max<int64_t>(0, live_->load(std::memory_order_acquire) - 1);
  s.torn_bytes_recovered = torn_bytes_recovered_;
  s.generation = generation();
  s.tombstones = tombstone_count();
  s.dead_bytes = dead_bytes();
  return s;
}

}  // namespace masksearch
