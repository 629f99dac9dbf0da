// Streaming ingest with epoch-snapshot visibility (docs/INGEST.md).
//
// An Ingestor makes the corpus live: writers append mask blobs to the
// sharded store's data files while queries keep serving. Appended masks are
// invisible until Publish(), which flushes + fsyncs the shard files, writes
// the manifest atomically, and installs a new immutable Snapshot — a pinned
// {mask-count watermark, offset-table prefix, CHI generation} triple. Every
// in-flight query executes against the Snapshot it was admitted with, so it
// reads one byte-stable view of the store no matter how many epochs writers
// publish while it runs.
//
// Durability ordering (docs/STORAGE_FORMAT.md): data bytes are fsynced
// before the manifest that references them is renamed into place, and the
// manifest itself is the publication point. A crash mid-append therefore
// leaves at most a torn *unpublished* tail, which Open() truncates away —
// recovery lands exactly on the last durable epoch.
//
// Index maintenance: the ingestor keeps one IndexManager of per-mask CHIs,
// keyed by visible mask id: lock-free reads, because every query looks up
// the CHI of every mask it targets. Each appended mask's CHI is built into
// it at ingest time (build_chi_on_ingest), and it is the one CHI source of
// every snapshot session published with it: a query retains the CHI of
// each whole mask it loads there, so query-built CHIs outlive the epoch
// too. Every snapshot published with one index numbers masks by the same
// tombstone set; only Delete and a compaction swap change that set, and
// both rotate the index (pinned snapshots keep theirs). The index is sized
// to twice the appended masks and rotated when an append outgrows it. Each
// epoch's CachedMaskStore opens under a fresh BufferPool owner id (cold
// blob cache, conservative under compaction).
//
// Thread safety: Append/AppendBlob/Publish may be called from many writer
// threads; snapshot()/epoch()/watermark()/Stats() from any thread.

#ifndef MASKSEARCH_INGEST_INGESTOR_H_
#define MASKSEARCH_INGEST_INGESTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/common/result.h"
#include "masksearch/exec/session.h"
#include "masksearch/storage/mask_store.h"

namespace masksearch {

class Ingestor;
class Compactor;

/// \brief Sidecar file holding the epoch counter (see docs/INGEST.md).
std::string IngestEpochPath(const std::string& dir);

/// \brief Reference-counted handle on one store generation's on-disk files
/// (docs/COMPACTION.md). The ingestor and every Snapshot built over the
/// generation share one handle; when a compaction swaps the generation out
/// it calls Retire(), and the destructor of the *last* reference deletes
/// the files — so a retired generation stays on disk exactly as long as a
/// pinned snapshot still reads from it, and vanishes when the pin drains.
class GenerationHandle {
 public:
  /// `root` is the generation's directory. Generation 0 shares the store's
  /// top-level directory with the sidecars and later generations, so its
  /// retirement deletes only the store files (manifest, shard data,
  /// tombstone sidecar — `num_shards` names them); generations > 0 own
  /// their `gen-<g>/` directory outright and are removed recursively.
  GenerationHandle(std::string root, int64_t gen, int32_t num_shards);
  ~GenerationHandle();

  GenerationHandle(const GenerationHandle&) = delete;
  GenerationHandle& operator=(const GenerationHandle&) = delete;

  /// \brief Marks the generation superseded: its files are deleted when the
  /// last handle reference is released.
  void Retire() { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }
  const std::string& root() const { return root_; }
  int64_t generation() const { return gen_; }

 private:
  std::string root_;
  int64_t gen_ = 0;
  int32_t num_shards_ = 1;
  std::atomic<bool> retired_{false};
};

/// \brief One published epoch: an immutable, byte-stable view of the store.
///
/// Holding a shared_ptr<const Snapshot> *is* the pin: the snapshot's store
/// handle (offset-table prefix over the shard files) and session (CHI state)
/// stay alive exactly as long as references exist, and the live-snapshot
/// counter the unpin tests read drops as soon as the last one is released —
/// retention is bounded by in-flight work, never by epochs published.
class Snapshot {
 public:
  ~Snapshot();

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// \brief Epoch number this snapshot was published as (0 = the empty
  /// store published at Create, or whatever epoch Open() recovered).
  int64_t epoch() const { return epoch_; }
  /// \brief Mask-count watermark: *visible* ids [0, watermark) are visible —
  /// tombstoned masks are excluded from the count and the id space.
  int64_t watermark() const { return watermark_; }
  /// \brief Store generation this snapshot reads (docs/COMPACTION.md). The
  /// snapshot's GenerationHandle reference keeps the generation's files on
  /// disk even after a compaction retires it.
  int64_t generation() const { return gen_; }
  /// \brief The byte-stable read surface (a CachedMaskStore when the
  /// ingestor has a buffer pool).
  const MaskStore& store() const { return *store_; }
  /// \brief Execution handle over store(). Its one CHI source is the
  /// ingestor's CHI index the snapshot was published with (no index of its
  /// own, no bulk build); it shares the ingestor's buffer pool.
  Session* session() const { return session_.get(); }

 private:
  friend class Ingestor;
  friend class Compactor;
  Snapshot() = default;

  int64_t epoch_ = 0;
  int64_t watermark_ = 0;
  int64_t gen_ = 0;
  /// Physical masks of the generation covered by this snapshot (the prefix
  /// a compaction's catch-up copy resumes after).
  int64_t phys_end_ = 0;
  /// Physical ids tombstoned at publication, sorted; the visible id space
  /// is the physical one with these removed (empty = identity mapping).
  std::vector<MaskId> tombstones_;
  std::unique_ptr<MaskStore> store_;
  std::unique_ptr<Session> session_;
  /// Keep-alive for the raw shared_chis pointer session_ holds: the
  /// ingestor rotates its CHI index on deletes/compactions, and the old
  /// index must outlive every pinned session still reading through it.
  std::shared_ptr<IndexManager> chis_;
  /// Pool + blob-cache owner id of store_'s CachedMaskStore wrapper. The
  /// destructor erases the owner *after* store_ is destroyed — entries a
  /// racing batch held pinned while the wrapper's own erase ran are swept
  /// here, so a dropped snapshot's cached bytes always return to the pool.
  std::shared_ptr<BufferPool> pool_;
  uint64_t blob_owner_ = 0;
  bool has_blob_owner_ = false;
  std::shared_ptr<GenerationHandle> gen_handle_;
  std::shared_ptr<std::atomic<int64_t>> live_;  ///< shared live counter
};

struct IngestorOptions {
  /// Physical encoding + shard fan-out of the store (Create only; Open
  /// takes both from the existing manifest).
  StorageKind kind = StorageKind::kRawFloat32;
  CodecOptions codec;
  int32_t num_shards = 1;

  /// CHI geometry of the ingest-built indexes and every snapshot session.
  ChiConfig chi;
  /// Build each appended mask's CHI into the ingest CHI index at ingest time
  /// (MS-II at the write path: the one-pass build cost is paid while the
  /// mask bytes are already in memory). When false, queries build each
  /// mask's CHI into the same index the first time they load it whole.
  bool build_chi_on_ingest = true;

  /// Buffer pool of the snapshots' mask-blob caches. Null with a budget > 0
  /// creates a private pool (BufferPool::MaybeCreate); with neither, blobs
  /// are not cached.
  std::shared_ptr<BufferPool> cache;
  uint64_t cache_budget_bytes = 256ull << 20;
  int32_t cache_shards = 8;
  CacheAdmission cache_admission = CacheAdmission::kScanResistant;

  /// Template for each snapshot's MaskStore handle (throttle, batch-I/O
  /// knobs). The cache fields are overridden by the shared pool above.
  MaskStore::Options store;
  /// Template for each snapshot's Session (thread pools, verify batches).
  /// chi / cache / shared_chis are overridden: snapshot sessions open over
  /// the shared pool with the ingest CHI index as their one CHI source, so
  /// incremental / index_path / attach_index do not apply.
  SessionOptions session;
};

/// \brief Point-in-time counters of an Ingestor.
struct IngestStats {
  int64_t epoch = 0;            ///< last published epoch
  int64_t appended = 0;         ///< masks appended in this generation
  int64_t published = 0;        ///< visible-mask watermark of `epoch`
  int64_t chis_built = 0;       ///< CHIs built at ingest time
  int64_t live_snapshots = 0;   ///< snapshots currently referenced
  uint64_t torn_bytes_recovered = 0;  ///< truncated by Open()'s recovery
  int64_t generation = 0;       ///< current store generation
  int64_t tombstones = 0;       ///< deleted masks not yet compacted away
  uint64_t dead_bytes = 0;      ///< bytes held by tombstoned blobs

  std::string ToString() const;
};

class Ingestor {
 public:
  /// \brief Starts a new live store at `dir` (replacing existing store
  /// files) and publishes epoch 0 — the empty snapshot — so a service can
  /// resolve a view before the first Publish().
  static Result<std::unique_ptr<Ingestor>> Create(const std::string& dir,
                                                  const IngestorOptions& opts);

  /// \brief Resumes ingest over an existing store directory. Recovery
  /// first: any shard-file tail past what the manifest references (a torn
  /// unpublished append) is truncated away, and the ingestor resumes from
  /// the last durable epoch. A shard file *shorter* than the manifest
  /// requires is a typed Corruption — published bytes are gone, which
  /// recovery must never paper over.
  static Result<std::unique_ptr<Ingestor>> Open(const std::string& dir,
                                                const IngestorOptions& opts);

  /// \brief Open when StoreExists(dir), else Create; `*resumed` (if given)
  /// says which. Probe errors propagate, so an unreadable generation
  /// sidecar never turns into a Create that wipes the store.
  static Result<std::unique_ptr<Ingestor>> OpenOrCreate(
      const std::string& dir, const IngestorOptions& opts,
      bool* resumed = nullptr);

  /// \brief The generation-aware resume probe: whether the generation the
  /// sidecar names (gen-<g>/ once compacted) has a manifest. A corrupt
  /// sidecar is a typed Corruption, not "no store".
  static Result<bool> StoreExists(const std::string& dir);

  ~Ingestor();

  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  /// \brief Appends a mask (thread-safe). The assigned dense id is
  /// invisible to queries until the next Publish(). meta.mask_id is
  /// overwritten with the assigned id; width/height are taken from `mask`.
  Result<MaskId> Append(MaskMeta meta, const Mask& mask);

  /// \brief Appends an already-encoded blob verbatim (must match the
  /// store's StorageKind; meta.width/height must describe the encoded
  /// mask). The replication/migration ingest path.
  Result<MaskId> AppendBlob(MaskMeta meta, const std::string& blob);

  /// \brief Tombstones mask `id` (thread-safe). `id` addresses the current
  /// generation's physical id space — the ids Append/AppendBlob returned
  /// since the last compaction (a compaction renumbers the survivors
  /// densely). The mask vanishes from query results at the next Publish();
  /// snapshots pinned before that keep seeing it byte-identically. The
  /// bytes stay on disk as dead weight until a compaction rewrites the
  /// generation (docs/COMPACTION.md). Out-of-range ids are a typed
  /// InvalidArgument; an already-deleted id is a typed NotFound.
  Status Delete(MaskId id);

  /// \brief Metadata recorded for physical id `id` of the current
  /// generation (InvalidArgument when out of range). Deleted masks keep
  /// their metadata until compacted away.
  Result<MaskMeta> AppendedMeta(MaskId id) const;

  /// \brief Publishes everything appended so far as the next epoch:
  /// flush + fsync shard data, atomically write the manifest and epoch
  /// sidecar, install a fresh Snapshot. Appends are blocked for the
  /// duration (the write lock is held); queries are not — they keep
  /// reading their pinned snapshots.
  Status Publish();

  /// \brief The current published snapshot (never null after Create/Open).
  /// The returned reference is the pin; copy it per admitted query and drop
  /// it when the query finishes.
  std::shared_ptr<const Snapshot> snapshot() const;

  int64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// \brief Visible masks at the current epoch (tombstoned ones excluded).
  int64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  /// \brief Masks appended to the current generation, including
  /// unpublished and tombstoned ones.
  int64_t appended() const { return appended_.load(std::memory_order_acquire); }
  /// \brief Current store generation (bumped by each compaction).
  int64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// \brief Tombstoned-but-not-yet-compacted masks.
  int64_t tombstone_count() const {
    return tombstone_count_.load(std::memory_order_acquire);
  }
  /// \brief Bytes held on disk by tombstoned blobs (reclaimed by the next
  /// compaction).
  uint64_t dead_bytes() const {
    return dead_bytes_.load(std::memory_order_acquire);
  }

  IngestStats Stats() const;

  const std::string& dir() const { return dir_; }
  StorageKind kind() const { return kind_; }
  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }
  BufferPool* cache() const { return pool_.get(); }

 private:
  friend class Compactor;

  Ingestor(std::string dir, IngestorOptions opts);

  /// Appends `payload` for `meta` under the write lock; returns the
  /// physical id. `visible_id` (the id the mask will carry at the next
  /// publish, given the tombstones known now) and `chis` (the CHI index
  /// current at append time; null unless build_chi_on_ingest) are captured
  /// under the same lock so the ingest-time CHI build stays consistent with
  /// a racing Delete's index rotation.
  Result<MaskId> AppendEncoded(MaskMeta meta, const std::string& payload,
                               MaskId* visible_id,
                               std::shared_ptr<IndexManager>* chis);
  /// Builds `mask`'s CHI keyed by `visible_id` into `chis` (no-op if null).
  void BuildIngestChi(const std::shared_ptr<IndexManager>& chis,
                      MaskId visible_id, const Mask& mask);
  /// Publishes the tables as `next_epoch` and installs the snapshot.
  /// Caller holds write_mu_.
  Status PublishLocked(int64_t next_epoch);
  /// Builds the Snapshot object for the given physical prefix tables and
  /// tombstone set (sorted physical ids to hide).
  Result<std::shared_ptr<const Snapshot>> BuildSnapshot(
      int64_t epoch, std::vector<MaskMeta> metas,
      std::vector<uint64_t> offsets, std::vector<uint64_t> sizes,
      std::vector<MaskId> tombstones) const;
  /// Replaces chis_ with a fresh empty index of twice the appended masks
  /// (caller holds write_mu_).
  /// Old caches stay alive through the snapshots that hold them.
  void RotateChiCacheLocked();
  /// Compaction phase B (called by Compactor with no locks held): under
  /// the write lock, catch-up-copies the physical ids appended after
  /// `base` into `writer` (skipping tombstones), finishes the new
  /// generation at `dst_dir`, flips the generation sidecar (the atomic
  /// swap point), swaps the in-memory writer state over to the new
  /// generation, retires the old GenerationHandle, rotates the CHI index,
  /// and publishes the next epoch. On success fills `catchup_copied` /
  /// `catchup_bytes` / `dropped` / `reclaimed_bytes` with the catch-up
  /// counts and the dead weight the swap shed.
  Status SwapGeneration(MaskStoreWriter* writer, const Snapshot& base,
                        const std::string& dst_dir, int64_t dst_gen,
                        int64_t* catchup_copied, uint64_t* catchup_bytes,
                        int64_t* dropped, uint64_t* reclaimed_bytes);

  std::string dir_;
  IngestorOptions opts_;
  StorageKind kind_ = StorageKind::kRawFloat32;

  std::shared_ptr<BufferPool> pool_;
  std::shared_ptr<std::atomic<int64_t>> live_;

  /// Writer state: shard appenders + the growing offset tables, all for
  /// the current generation (gen_dir_). Tombstones are physical ids.
  mutable std::mutex write_mu_;
  std::vector<std::unique_ptr<FileWriter>> shards_;
  std::vector<MaskMeta> metas_;
  std::vector<uint64_t> offsets_;  ///< within the owning shard
  std::vector<uint64_t> sizes_;
  std::set<MaskId> tombstones_;
  bool tombstones_dirty_ = false;  ///< sidecar rewrite needed at publish
  std::string gen_dir_;            ///< current generation root
  std::shared_ptr<GenerationHandle> gen_handle_;
  std::shared_ptr<IndexManager> chis_;  ///< under write_mu_ (rotated)

  /// Published state: the current snapshot, swapped whole at Publish.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const Snapshot> current_;

  std::atomic<int64_t> epoch_{0};
  std::atomic<int64_t> watermark_{0};
  std::atomic<int64_t> appended_{0};
  std::atomic<int64_t> chis_built_{0};
  std::atomic<int64_t> generation_{0};
  std::atomic<int64_t> tombstone_count_{0};
  std::atomic<uint64_t> dead_bytes_{0};
  uint64_t torn_bytes_recovered_ = 0;
  // Process-lifetime ingest traffic of this ingestor (the tables above
  // restart at every Open and generation swap).
  std::atomic<uint64_t> masks_appended_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> epochs_published_{0};
  size_t metrics_collector_ = 0;  ///< emits ms_ingest_*
};

}  // namespace masksearch

#endif  // MASKSEARCH_INGEST_INGESTOR_H_
