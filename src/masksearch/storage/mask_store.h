// MaskStore: the on-disk database of masks.
//
// This is the physical realization of MasksDatabaseView (§2.1): one or more
// packed data files holding one blob per mask (raw float32 or
// codec-compressed) plus a manifest with per-mask metadata and blob offsets.
// Mask ids are dense indexes [0, N), assigned at append time.
//
// Two on-disk layouts share the manifest (docs/STORAGE_FORMAT.md):
//   * single-file (manifest v1): all blobs in `masks.dat` — the original
//     layout, still written by default and opened unchanged.
//   * sharded (manifest v2): blobs split across `num_shards` files
//     (`masks.<k>.dat`) by the deterministic placement shard = id % N, so
//     batch reads can fan out across independent files/devices.
//
// `MaskStore` is the abstract read surface; `MaskStore::Open` sniffs the
// manifest version and returns the right implementation (currently
// ShardedMaskStore, which handles both layouts — a single-file store is its
// 1-shard degenerate case). All reads pass through an optional DiskThrottle
// (see disk_throttle.h) and are counted, which is how the evaluation harness
// measures "# masks loaded" (Table 2) and FML (§4.4).

#ifndef MASKSEARCH_STORAGE_MASK_STORE_H_
#define MASKSEARCH_STORAGE_MASK_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "masksearch/cache/buffer_pool.h"
#include "masksearch/common/io.h"
#include "masksearch/common/result.h"
#include "masksearch/common/thread_pool.h"
#include "masksearch/storage/codec.h"
#include "masksearch/storage/disk_throttle.h"
#include "masksearch/storage/mask.h"

namespace masksearch {

/// \brief Physical encoding of mask blobs in the store.
enum class StorageKind : uint8_t {
  kRawFloat32 = 0,   ///< 4 bytes/pixel, no decode cost
  kCompressed = 1,   ///< codec.h blobs; cheaper I/O, decode cost on load
};

/// \brief Rows [y0, y1) of one mask: the part of it a windowed load reads
/// (MaskStore::LoadMaskWindows). A raw blob stores rows contiguously, so a
/// window is one byte range of it.
struct RowWindow {
  int32_t y0 = 0;
  int32_t y1 = 0;

  /// \brief Every row of `meta`'s mask.
  static RowWindow Whole(const MaskMeta& meta) { return {0, meta.height}; }
  bool IsWhole(const MaskMeta& meta) const {
    return y0 == 0 && y1 == meta.height;
  }
  int32_t rows() const { return y1 - y0; }
};

/// \brief Creates a mask store directory; append masks then Finish().
class MaskStoreWriter {
 public:
  struct Options {
    StorageKind kind = StorageKind::kRawFloat32;
    CodecOptions codec;
    /// Number of data-file shards. 1 (default) writes the original
    /// single-file layout (`masks.dat`, manifest v1) byte-for-byte; > 1
    /// writes `masks.<k>.dat` shard files and a v2 manifest. Placement is
    /// deterministic: mask `id` lives in shard `id % num_shards`.
    int32_t num_shards = 1;
  };

  /// \brief Starts a new store at `dir` (created if missing; existing store
  /// files are replaced).
  static Result<std::unique_ptr<MaskStoreWriter>> Create(
      const std::string& dir, const Options& opts);
  static Result<std::unique_ptr<MaskStoreWriter>> Create(const std::string& dir);

  ~MaskStoreWriter();

  /// \brief Appends a mask; meta.mask_id is overwritten with the assigned
  /// dense id, which is also returned. meta.width/height are taken from the
  /// mask.
  Result<MaskId> Append(MaskMeta meta, const Mask& mask);

  /// \brief Appends an already-encoded blob verbatim (it must match the
  /// writer's StorageKind; meta.width/height must describe the encoded
  /// mask). Lets migration tools (ReshardMaskStore, replication) move blobs
  /// without a decode + re-encode round trip — for the lossy codec that
  /// also means bit-identical payloads.
  Result<MaskId> AppendBlob(MaskMeta meta, const std::string& blob);

  /// \brief Writes the manifest and closes the data file(s).
  Status Finish();

  int64_t num_masks() const { return static_cast<int64_t>(metas_.size()); }
  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }

 private:
  MaskStoreWriter(std::string dir, Options opts,
                  std::vector<std::unique_ptr<FileWriter>> shards);

  /// Records the blob just written at `offset` in the shard owning `meta`'s
  /// id and assigns the dense id.
  Result<MaskId> Record(MaskMeta meta, uint64_t offset, uint64_t size);

  std::string dir_;
  Options opts_;
  std::vector<std::unique_ptr<FileWriter>> shards_;
  std::vector<MaskMeta> metas_;
  std::vector<uint64_t> offsets_;  ///< within the owning shard
  std::vector<uint64_t> sizes_;
  bool finished_ = false;
};

/// \brief Read-only surface of a mask store. Thread-safe for concurrent
/// loads. Obtain instances through MaskStore::Open, which detects the
/// on-disk layout (single-file or sharded) from the manifest.
class MaskStore {
 public:
  struct Options {
    /// Shared disk model; null means unthrottled.
    std::shared_ptr<DiskThrottle> throttle;
    /// Batch-I/O knobs for LoadMaskBatch and LoadMaskWindows: two extents
    /// are coalesced into one read when the byte gap between them is at
    /// most the merge gap, and a coalesced read never exceeds
    /// `batch_max_bytes` (a single extent larger than the cap is still read
    /// whole). Applied per shard. The merge gap is `batch_gap_bytes`; for
    /// LoadMaskWindows on a shard whose throttle models bandwidth it is at
    /// most bytes_per_sec × latency_us / 1e6, the bytes the device moves in
    /// one request's latency, so a gap is read only when that is cheaper
    /// than a request.
    uint64_t batch_gap_bytes = 64 * 1024;
    uint64_t batch_max_bytes = 8 * 1024 * 1024;
    /// Pool on which LoadMaskBatch issues its per-shard coalesced reads
    /// concurrently (one task per shard touched by the request). Null =
    /// shards are read sequentially on the calling thread. Only pays off
    /// when the device has queue depth to exploit (DiskThrottle
    /// queue_depth > 1, or a real NVMe disk).
    ThreadPool* io_pool = nullptr;
    /// Deployment model of the throttle: false (default) = all shards share
    /// `throttle` (one device, the paper's setup). true = every shard gets
    /// its own DiskThrottle with `throttle`'s parameters — the scale-out
    /// deployment where each shard file lives on its own disk, so shard
    /// reads overlap in bandwidth as well as latency. Accounting
    /// (total_bytes/total_requests) is then per shard device; the store's
    /// own masks_loaded/bytes_read counters are unaffected.
    bool throttle_per_shard = false;
    /// Buffer-pool cache of decoded masks (docs/CACHING.md). When `cache`
    /// is set, Open wraps the store in a CachedMaskStore decorator serving
    /// repeated loads from memory; sharing one pool across stores and a
    /// Session's CHI caches runs them all under a single byte budget.
    std::shared_ptr<BufferPool> cache;
    /// Open-time extent check: every manifested blob must fit inside its
    /// shard file, else Open fails with a typed Corruption. Off by default
    /// — the lazy contract lets a store with one damaged shard keep serving
    /// the healthy shards (reads into the damaged one fail individually).
    /// The ingest layer's recovery path (Ingestor::Open) always performs
    /// this check before resuming appends.
    bool validate_extents = false;
  };

  /// \brief Opens a store, sniffing the manifest version: v1 single-file
  /// stores (the pre-sharding format) open unchanged as 1-shard stores.
  /// With Options::cache set, the returned store is
  /// wrapped in a CachedMaskStore decorator (docs/CACHING.md).
  static Result<std::unique_ptr<MaskStore>> Open(const std::string& dir,
                                                 const Options& opts);
  static Result<std::unique_ptr<MaskStore>> Open(const std::string& dir);

  virtual ~MaskStore() = default;

  MaskStore(const MaskStore&) = delete;
  MaskStore& operator=(const MaskStore&) = delete;

  /// \brief Catalog accessors. Virtual so a decorator (CachedMaskStore)
  /// can forward to the wrapped store instead of duplicating the per-mask
  /// tables — at serving scale the catalog is tens of MB.
  virtual int64_t num_masks() const {
    return static_cast<int64_t>(metas_.size());
  }
  StorageKind kind() const { return kind_; }
  const std::string& dir() const { return dir_; }

  /// \brief Number of data-file shards (1 for single-file stores).
  virtual int32_t num_shards() const = 0;

  /// \brief Metadata access never touches the data files (metadata lives in
  /// the catalog, §2.1).
  virtual const MaskMeta& meta(MaskId id) const { return metas_[id]; }
  virtual const std::vector<MaskMeta>& metas() const { return metas_; }

  /// \brief Loads a full mask from disk (throttled + counted).
  virtual Result<Mask> LoadMask(MaskId id) const = 0;

  /// \brief Loads a batch of masks with coalesced I/O: the request is
  /// partitioned by shard, ids are sorted by file offset within each shard,
  /// and blobs closer than Options::batch_gap_bytes are fetched in a single
  /// scatter read (one modeled disk request instead of one per mask). With
  /// Options::io_pool set, the per-shard reads are issued concurrently.
  /// Returns masks in the order of `ids`; duplicates are allowed and
  /// decoded once. Each distinct id counts as one mask loaded; bytes_read
  /// counts the bytes actually read, including coalesced-over gaps.
  virtual Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const = 0;

  /// \brief The rows [y0, y1) of mask `id`: a one-entry LoadMaskWindows,
  /// a Mask of height y1-y0 whose row 0 is mask row y0. Still virtual only
  /// because msbench's metadata-only OracleStore overrides it; no store of
  /// the library does.
  virtual Result<Mask> LoadMaskRows(MaskId id, int32_t y0, int32_t y1) const;

  /// \brief LoadMaskBatch with a row window per id (`windows` parallel to
  /// `ids`): entry i is the rows windows[i] of mask ids[i], a Mask whose
  /// row 0 is mask row windows[i].y0. An id may repeat with several
  /// windows (the verification pipeline reads a mask's uncertain cell
  /// bands this way); the mask still counts once in masks_loaded(). Where
  /// ReadsRowWindows() is true, only each window's bytes are read, with
  /// LoadMaskBatch's coalescing applied to the windows' byte ranges; a
  /// compressed store refuses a partial window (a blob decodes whole,
  /// mirroring real codecs). This default loads whole masks through
  /// LoadMaskBatch and copies the windows out of them.
  virtual Result<std::vector<Mask>> LoadMaskWindows(
      const std::vector<MaskId>& ids,
      const std::vector<RowWindow>& windows) const;

  /// \brief True when LoadMaskWindows reads only the windows' bytes from the
  /// data files: a raw store with no whole-mask cache in front. False for
  /// compressed stores (a blob decodes whole) and for CachedMaskStore (a
  /// slice never fills the cache), and for any store that does not say.
  virtual bool ReadsRowWindows() const { return false; }

  /// \brief Number of `ids` currently resident in a memory cache in front
  /// of this store — 0 for stores with no cache (this base implementation).
  /// A residency *probe*: never touches the data files, never counts a
  /// cache hit or miss, never promotes an entry. The overlapped prefetch
  /// pipelines use it to skip scheduling io_pool loads for batches that are
  /// fully resident (cache-aware prefetch, docs/CACHING.md). Advisory only:
  /// an entry may be evicted between the probe and the load, which costs a
  /// synchronous miss but never affects results.
  virtual size_t CountResident(const std::vector<MaskId>& ids) const {
    (void)ids;
    return 0;
  }

  /// \brief Reads the raw stored blob of mask `id` without decoding it.
  /// Counted as bytes_read and one throttled request, but not as a mask
  /// load (nothing is materialized). Used by migration/replication tools.
  virtual Status ReadBlob(MaskId id, std::string* out) const = 0;

  /// \brief Stored blob size in bytes for mask `id`.
  virtual uint64_t BlobSize(MaskId id) const { return sizes_[id]; }

  /// \brief Total bytes of all mask blobs (the "dataset size" of §4.1).
  /// Computed once at Open.
  virtual uint64_t TotalDataBytes() const { return total_data_bytes_; }

  /// \brief Cumulative number of masks loaded (LoadMask, and the distinct
  /// ids of each LoadMaskBatch / LoadMaskWindows call). A
  /// CachedMaskStore forwards to the wrapped store, so the counters keep
  /// meaning physical storage traffic: cache hits move neither counter.
  virtual uint64_t masks_loaded() const { return masks_loaded_.load(); }
  /// \brief Cumulative bytes read from the data file(s).
  virtual uint64_t bytes_read() const { return bytes_read_.load(); }
  /// \brief Zeroes the counters — and with them the ms_storage_* series
  /// this store contributes to the metrics registry. Tests only.
  virtual void ResetCounters() {
    masks_loaded_.store(0);
    bytes_read_.store(0);
    read_ops_.store(0);
  }

  DiskThrottle* throttle() const { return opts_.throttle.get(); }
  const Options& options() const { return opts_; }

 protected:
  MaskStore(std::string dir, Options opts, StorageKind kind,
            std::vector<MaskMeta> metas, std::vector<uint64_t> sizes);

  Status CheckId(MaskId id) const;
  /// InvalidArgument unless `w` is a nonempty row range inside mask `id`.
  Status CheckWindow(MaskId id, const RowWindow& w) const;

  std::string dir_;
  Options opts_;
  StorageKind kind_;
  std::vector<MaskMeta> metas_;
  std::vector<uint64_t> sizes_;
  uint64_t total_data_bytes_ = 0;
  mutable std::atomic<uint64_t> masks_loaded_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> read_ops_{0};  ///< physical read calls
};

/// \brief Manifest and data file names inside a store directory.
std::string MaskStoreManifestPath(const std::string& dir);
std::string MaskStoreDataPath(const std::string& dir);
/// \brief Data file of shard `shard` in an `num_shards`-way store
/// (`masks.dat` when num_shards == 1, `masks.<shard>.dat` otherwise).
std::string MaskStoreShardDataPath(const std::string& dir, int32_t shard,
                                   int32_t num_shards);

// ---------------------------------------------------------------------------
// Store generations (docs/COMPACTION.md)
//
// A compaction rewrites the live masks into a fresh *generation* of the
// store and atomically swaps it in. Generation 0 is the store root itself
// (full backward compatibility: a never-compacted store has no generation
// sidecar and no gen-* subdirectories); generation g > 0 lives in
// `<dir>/gen-<g>/` with its own manifest, shard data files, and tombstone
// sidecar. The top-level `ingest.generation` sidecar names the current
// generation; flipping it (atomic write) IS the swap point.
// ---------------------------------------------------------------------------

/// \brief Top-level sidecar naming the current store generation.
std::string IngestGenerationPath(const std::string& dir);

/// \brief Root directory of generation `gen` (`dir` itself for gen 0).
std::string GenerationDir(const std::string& dir, int64_t gen);

/// \brief Reads the current generation of the store at `dir`. A missing
/// sidecar is generation 0 (pre-compaction stores); an unparseable one is a
/// typed Corruption.
Result<int64_t> ReadStoreGeneration(const std::string& dir);

/// \brief Tombstone sidecar inside a generation root. Records the physical
/// mask ids deleted from that generation; published atomically alongside
/// the manifest at epoch publication (docs/COMPACTION.md).
std::string MaskStoreTombstonePath(const std::string& gen_root);

/// \brief Reads the tombstone sidecar of a generation root. A missing file
/// is an empty set; structural damage is a typed Corruption. Ids are
/// returned sorted and deduplicated.
Result<std::vector<MaskId>> ReadMaskStoreTombstones(const std::string& gen_root);

/// \brief Atomically writes the tombstone sidecar (`ids` need not be
/// sorted; the file is written sorted + deduplicated).
Status WriteMaskStoreTombstones(const std::string& gen_root,
                                std::vector<MaskId> ids);

namespace internal {
/// Serializes and writes the store manifest (v1 when num_shards == 1, v2
/// otherwise). Shared by MaskStoreWriter::Finish, the ingest layer's epoch
/// publication, and migration tools. The write is atomic (temp file +
/// fsync + rename): a crashed publish leaves the previous manifest intact,
/// never a torn one.
Status WriteMaskStoreManifest(const std::string& dir, StorageKind kind,
                              int32_t num_shards,
                              const std::vector<MaskMeta>& metas,
                              const std::vector<uint64_t>& offsets,
                              const std::vector<uint64_t>& sizes);

/// Parsed store manifest: the catalog tables MaskStore::Open and the ingest
/// layer's resume path both need.
struct ParsedManifest {
  StorageKind kind = StorageKind::kRawFloat32;
  int32_t num_shards = 1;
  std::vector<MaskMeta> metas;
  std::vector<uint64_t> offsets;  ///< within the owning shard
  std::vector<uint64_t> sizes;
};

/// Reads and validates the manifest at `dir` (magic, version, dense ids).
/// Any structural damage — truncation mid-entry included — is a typed
/// Corruption error.
Result<ParsedManifest> ReadMaskStoreManifest(const std::string& dir);
}  // namespace internal

}  // namespace masksearch

#endif  // MASKSEARCH_STORAGE_MASK_STORE_H_
