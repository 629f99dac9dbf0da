#include "masksearch/storage/mask_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "masksearch/cache/cached_mask_store.h"
#include "masksearch/common/serialize.h"
#include "masksearch/storage/filtered_mask_store.h"
#include "masksearch/storage/sharded_mask_store.h"

namespace masksearch {

namespace {
constexpr uint32_t kManifestMagic = 0x4d534d46;  // "MSMF"
constexpr uint8_t kManifestVersionSingle = 1;    // single-file layout
constexpr uint8_t kManifestVersionSharded = 2;   // + u32 num_shards
constexpr int32_t kMaxShards = 4096;

void PutMeta(BufferWriter* w, const MaskMeta& m) {
  w->PutI64(m.mask_id);
  w->PutI64(m.image_id);
  w->PutI32(m.model_id);
  w->PutI32(static_cast<int32_t>(m.mask_type));
  w->PutI32(m.width);
  w->PutI32(m.height);
  w->PutI32(m.label);
  w->PutI32(m.predicted_label);
  w->PutI32(m.object_box.x0);
  w->PutI32(m.object_box.y0);
  w->PutI32(m.object_box.x1);
  w->PutI32(m.object_box.y1);
}

Result<MaskMeta> GetMeta(BufferReader* r) {
  MaskMeta m;
  MS_ASSIGN_OR_RETURN(m.mask_id, r->GetI64());
  MS_ASSIGN_OR_RETURN(m.image_id, r->GetI64());
  MS_ASSIGN_OR_RETURN(m.model_id, r->GetI32());
  MS_ASSIGN_OR_RETURN(int32_t type, r->GetI32());
  m.mask_type = static_cast<MaskType>(type);
  MS_ASSIGN_OR_RETURN(m.width, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.height, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.label, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.predicted_label, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.object_box.x0, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.object_box.y0, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.object_box.x1, r->GetI32());
  MS_ASSIGN_OR_RETURN(m.object_box.y1, r->GetI32());
  return m;
}
}  // namespace

std::string MaskStoreManifestPath(const std::string& dir) {
  return dir + "/masks.msm";
}
std::string MaskStoreDataPath(const std::string& dir) {
  return dir + "/masks.dat";
}
std::string MaskStoreShardDataPath(const std::string& dir, int32_t shard,
                                   int32_t num_shards) {
  if (num_shards <= 1) return MaskStoreDataPath(dir);
  return dir + "/masks." + std::to_string(shard) + ".dat";
}

namespace internal {

Status WriteMaskStoreManifest(const std::string& dir, StorageKind kind,
                              int32_t num_shards,
                              const std::vector<MaskMeta>& metas,
                              const std::vector<uint64_t>& offsets,
                              const std::vector<uint64_t>& sizes) {
  BufferWriter w;
  w.PutU32(kManifestMagic);
  w.PutU8(num_shards > 1 ? kManifestVersionSharded : kManifestVersionSingle);
  w.PutU8(static_cast<uint8_t>(kind));
  if (num_shards > 1) w.PutU32(static_cast<uint32_t>(num_shards));
  w.PutU64(metas.size());
  for (size_t i = 0; i < metas.size(); ++i) {
    PutMeta(&w, metas[i]);
    w.PutU64(offsets[i]);
    w.PutU64(sizes[i]);
  }
  // Atomic replace: readers (and a crash) see the old manifest or the new
  // one, never a torn mix — the manifest is the store's publication point.
  return WriteFileAtomic(MaskStoreManifestPath(dir), w.buffer());
}

Result<ParsedManifest> ReadMaskStoreManifest(const std::string& dir) {
  MS_ASSIGN_OR_RETURN(std::string manifest,
                      ReadFile(MaskStoreManifestPath(dir)));
  BufferReader r(manifest);
  MS_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kManifestMagic) {
    return Status::Corruption("bad mask store manifest magic in " + dir);
  }
  MS_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kManifestVersionSingle &&
      version != kManifestVersionSharded) {
    return Status::Corruption("unsupported manifest version");
  }
  ParsedManifest parsed;
  MS_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  parsed.kind = static_cast<StorageKind>(kind);
  if (version == kManifestVersionSharded) {
    MS_ASSIGN_OR_RETURN(uint32_t shards, r.GetU32());
    if (shards < 1 || shards > static_cast<uint32_t>(kMaxShards)) {
      return Status::Corruption("implausible shard count in manifest: " +
                                std::to_string(shards));
    }
    parsed.num_shards = static_cast<int32_t>(shards);
  }
  MS_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
  parsed.metas.reserve(count);
  parsed.offsets.reserve(count);
  parsed.sizes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MS_ASSIGN_OR_RETURN(MaskMeta m, GetMeta(&r));
    if (m.mask_id != static_cast<MaskId>(i)) {
      return Status::Corruption("non-dense mask_id in manifest");
    }
    parsed.metas.push_back(m);
    MS_ASSIGN_OR_RETURN(uint64_t off, r.GetU64());
    MS_ASSIGN_OR_RETURN(uint64_t sz, r.GetU64());
    parsed.offsets.push_back(off);
    parsed.sizes.push_back(sz);
  }
  return parsed;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// MaskStoreWriter
// ---------------------------------------------------------------------------

MaskStoreWriter::MaskStoreWriter(std::string dir, Options opts,
                                 std::vector<std::unique_ptr<FileWriter>> shards)
    : dir_(std::move(dir)), opts_(opts), shards_(std::move(shards)) {}

MaskStoreWriter::~MaskStoreWriter() = default;

Result<std::unique_ptr<MaskStoreWriter>> MaskStoreWriter::Create(
    const std::string& dir) {
  return Create(dir, Options{});
}

Result<std::unique_ptr<MaskStoreWriter>> MaskStoreWriter::Create(
    const std::string& dir, const Options& opts) {
  if (opts.num_shards < 1 || opts.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxShards) + "], got " +
                                   std::to_string(opts.num_shards));
  }
  MS_RETURN_NOT_OK(CreateDirs(dir));
  std::vector<std::unique_ptr<FileWriter>> shards;
  shards.reserve(opts.num_shards);
  for (int32_t s = 0; s < opts.num_shards; ++s) {
    MS_ASSIGN_OR_RETURN(
        auto data,
        FileWriter::Create(MaskStoreShardDataPath(dir, s, opts.num_shards)));
    shards.push_back(std::move(data));
  }
  return std::unique_ptr<MaskStoreWriter>(
      new MaskStoreWriter(dir, opts, std::move(shards)));
}

Result<MaskId> MaskStoreWriter::Record(MaskMeta meta, uint64_t offset,
                                       uint64_t size) {
  offsets_.push_back(offset);
  sizes_.push_back(size);
  metas_.push_back(meta);
  return meta.mask_id;
}

Result<MaskId> MaskStoreWriter::Append(MaskMeta meta, const Mask& mask) {
  if (finished_) return Status::Internal("Append after Finish");
  if (mask.Empty()) return Status::InvalidArgument("cannot append empty mask");
  meta.mask_id = static_cast<MaskId>(metas_.size());
  meta.width = mask.width();
  meta.height = mask.height();

  FileWriter* data = shards_[meta.mask_id % num_shards()].get();
  const uint64_t offset = data->bytes_written();
  if (opts_.kind == StorageKind::kRawFloat32) {
    MS_RETURN_NOT_OK(data->Append(mask.data().data(), mask.ByteSize()));
  } else {
    std::string blob = EncodeMask(mask, opts_.codec);
    MS_RETURN_NOT_OK(data->Append(blob));
  }
  return Record(meta, offset, data->bytes_written() - offset);
}

Result<MaskId> MaskStoreWriter::AppendBlob(MaskMeta meta,
                                           const std::string& blob) {
  if (finished_) return Status::Internal("Append after Finish");
  if (blob.empty()) return Status::InvalidArgument("cannot append empty blob");
  if (opts_.kind == StorageKind::kRawFloat32 &&
      blob.size() != static_cast<size_t>(meta.width) * meta.height *
                         sizeof(float)) {
    return Status::InvalidArgument(
        "raw blob size does not match meta width x height");
  }
  meta.mask_id = static_cast<MaskId>(metas_.size());
  FileWriter* data = shards_[meta.mask_id % num_shards()].get();
  const uint64_t offset = data->bytes_written();
  MS_RETURN_NOT_OK(data->Append(blob));
  return Record(meta, offset, blob.size());
}

Status MaskStoreWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  // Durability ordering (docs/STORAGE_FORMAT.md): blob bytes reach the
  // device before the manifest that references them is published. A
  // reopened store can therefore never see an offset-table entry whose
  // bytes were lost — the manifest is always the trailing edge.
  for (auto& shard : shards_) {
    MS_RETURN_NOT_OK(shard->Flush());
    MS_RETURN_NOT_OK(shard->Close());
  }
  return internal::WriteMaskStoreManifest(dir_, opts_.kind, num_shards(),
                                          metas_, offsets_, sizes_);
}

// ---------------------------------------------------------------------------
// MaskStore (abstract base + factory)
// ---------------------------------------------------------------------------

MaskStore::MaskStore(std::string dir, Options opts, StorageKind kind,
                     std::vector<MaskMeta> metas, std::vector<uint64_t> sizes)
    : dir_(std::move(dir)),
      opts_(std::move(opts)),
      kind_(kind),
      metas_(std::move(metas)),
      sizes_(std::move(sizes)) {
  for (uint64_t s : sizes_) total_data_bytes_ += s;
}

Status MaskStore::CheckId(MaskId id) const {
  if (id < 0 || id >= num_masks()) {
    return Status::NotFound("mask_id " + std::to_string(id) +
                            " out of range [0, " + std::to_string(num_masks()) +
                            ")");
  }
  return Status::OK();
}

Status MaskStore::CheckWindow(MaskId id, const RowWindow& w) const {
  const int32_t height = meta(id).height;
  if (w.y0 < 0 || w.y1 > height || w.y0 >= w.y1) {
    return Status::InvalidArgument(
        "row range [" + std::to_string(w.y0) + "," + std::to_string(w.y1) +
        ") outside mask of height " + std::to_string(height));
  }
  return Status::OK();
}

Result<std::vector<Mask>> MaskStore::LoadMaskWindows(
    const std::vector<MaskId>& ids,
    const std::vector<RowWindow>& windows) const {
  if (windows.size() != ids.size()) {
    return Status::InvalidArgument("one row window per id required");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    MS_RETURN_NOT_OK(CheckId(ids[i]));
    MS_RETURN_NOT_OK(CheckWindow(ids[i], windows[i]));
  }
  MS_ASSIGN_OR_RETURN(std::vector<Mask> masks, LoadMaskBatch(ids));
  for (size_t i = 0; i < masks.size(); ++i) {
    const RowWindow& w = windows[i];
    Mask& m = masks[i];
    if (m.height() != meta(ids[i]).height) {
      return Status::Corruption("mask " + std::to_string(ids[i]) +
                                " does not have its manifest height");
    }
    if (w.IsWhole(meta(ids[i]))) continue;
    const float* first = m.row(w.y0);
    std::vector<float> rows(first,
                            first + static_cast<size_t>(m.width()) * w.rows());
    MS_ASSIGN_OR_RETURN(m,
                        Mask::FromData(m.width(), w.rows(), std::move(rows)));
  }
  return masks;
}

Result<std::unique_ptr<MaskStore>> MaskStore::Open(const std::string& dir) {
  return Open(dir, Options{});
}

Result<std::unique_ptr<MaskStore>> MaskStore::Open(const std::string& dir,
                                                   const Options& opts) {
  // Generation resolution (docs/COMPACTION.md): a compacted store's current
  // data lives under gen-<g>/; the top-level sidecar names it. A plain
  // pre-compaction store has no sidecar and resolves to `dir` itself.
  MS_ASSIGN_OR_RETURN(int64_t gen, ReadStoreGeneration(dir));
  const std::string root = GenerationDir(dir, gen);
  MS_ASSIGN_OR_RETURN(internal::ParsedManifest parsed,
                      internal::ReadMaskStoreManifest(root));
  MS_ASSIGN_OR_RETURN(
      std::unique_ptr<MaskStore> store,
      ShardedMaskStore::Create(root, opts, parsed.kind, parsed.num_shards,
                               std::move(parsed.metas),
                               std::move(parsed.offsets),
                               std::move(parsed.sizes)));

  // Tombstoned masks (deleted but not yet compacted away) are hidden by the
  // filtering decorator, which renumbers visible ids densely.
  MS_ASSIGN_OR_RETURN(std::vector<MaskId> tombstones,
                      ReadMaskStoreTombstones(root));
  if (!tombstones.empty()) {
    MS_ASSIGN_OR_RETURN(store, FilteredMaskStore::Wrap(std::move(store),
                                                       tombstones));
  }

  // Memory subsystem (docs/CACHING.md): with a pool configured, hand back
  // the caching decorator instead of the raw store.
  if (opts.cache != nullptr) {
    return CachedMaskStore::Wrap(std::move(store), opts.cache);
  }
  return store;
}

// ---------------------------------------------------------------------------
// Generations and tombstones (docs/COMPACTION.md)
// ---------------------------------------------------------------------------

std::string IngestGenerationPath(const std::string& dir) {
  return dir + "/ingest.generation";
}

std::string GenerationDir(const std::string& dir, int64_t gen) {
  if (gen <= 0) return dir;
  return dir + "/gen-" + std::to_string(gen);
}

Result<int64_t> ReadStoreGeneration(const std::string& dir) {
  const std::string path = IngestGenerationPath(dir);
  if (!PathExists(path)) return int64_t{0};
  MS_ASSIGN_OR_RETURN(std::string body, ReadFile(path));
  errno = 0;
  char* end = nullptr;
  const long long gen = std::strtoll(body.c_str(), &end, 10);
  while (end != nullptr && (*end == '\n' || *end == '\r' || *end == ' ')) ++end;
  if (errno != 0 || end == body.c_str() || (end != nullptr && *end != '\0') ||
      gen < 0) {
    return Status::Corruption("unparseable generation sidecar '" + path + "'");
  }
  return static_cast<int64_t>(gen);
}

std::string MaskStoreTombstonePath(const std::string& gen_root) {
  return gen_root + "/ingest.tombstones";
}

Result<std::vector<MaskId>> ReadMaskStoreTombstones(
    const std::string& gen_root) {
  const std::string path = MaskStoreTombstonePath(gen_root);
  if (!PathExists(path)) return std::vector<MaskId>{};
  MS_ASSIGN_OR_RETURN(std::string body, ReadFile(path));
  std::vector<MaskId> ids;
  size_t pos = 0;
  bool first = true;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = eol + 1;
    if (first) {
      first = false;
      if (line != "tombstones v1") {
        return Status::Corruption("bad tombstone sidecar header in '" + path +
                                  "'");
      }
      continue;
    }
    if (line.empty()) continue;
    errno = 0;
    char* end = nullptr;
    const long long id = std::strtoll(line.c_str(), &end, 10);
    if (errno != 0 || end == line.c_str() || *end != '\0' || id < 0) {
      return Status::Corruption("unparseable tombstone entry '" + line +
                                "' in '" + path + "'");
    }
    ids.push_back(static_cast<MaskId>(id));
  }
  if (first) {
    return Status::Corruption("empty tombstone sidecar '" + path + "'");
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Status WriteMaskStoreTombstones(const std::string& gen_root,
                                std::vector<MaskId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::string body = "tombstones v1\n";
  for (MaskId id : ids) {
    body += std::to_string(id);
    body += '\n';
  }
  return WriteFileAtomic(MaskStoreTombstonePath(gen_root), body);
}

}  // namespace masksearch
