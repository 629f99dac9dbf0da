#include "masksearch/storage/sharded_mask_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "masksearch/obs/metrics.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

ShardedMaskStore::ShardedMaskStore(
    std::string dir, Options opts, StorageKind kind,
    std::vector<MaskMeta> metas, std::vector<uint64_t> offsets,
    std::vector<uint64_t> sizes,
    std::vector<std::unique_ptr<RandomAccessFile>> shards)
    : MaskStore(std::move(dir), std::move(opts), kind, std::move(metas),
                std::move(sizes)),
      offsets_(std::move(offsets)),
      shards_(std::move(shards)) {
  // The one place physical reads are counted: decorators above this store
  // (cache, tombstone filter) forward their counters here and emit none.
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        sink.Counter("ms_storage_read_ops_total", read_ops_.load());
        sink.Counter("ms_storage_masks_loaded_total", masks_loaded());
        sink.Counter("ms_storage_read_bytes_total", bytes_read());
      });
}

ShardedMaskStore::~ShardedMaskStore() {
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

Result<std::unique_ptr<MaskStore>> ShardedMaskStore::Create(
    const std::string& dir, const Options& opts, StorageKind kind,
    int32_t num_shards, std::vector<MaskMeta> metas,
    std::vector<uint64_t> offsets, std::vector<uint64_t> sizes) {
  std::vector<std::unique_ptr<RandomAccessFile>> shards;
  shards.reserve(num_shards);
  for (int32_t s = 0; s < num_shards; ++s) {
    MS_ASSIGN_OR_RETURN(
        auto file,
        RandomAccessFile::Open(MaskStoreShardDataPath(dir, s, num_shards)));
    shards.push_back(std::move(file));
  }
  // Optional strict open: every manifested blob must fit inside its shard
  // file. A data file shorter than the manifest requires (a torn write that
  // ate into published bytes) is then a typed Corruption at open instead of
  // a per-read error discovered mid-query. Default-off to preserve the lazy
  // contract: one damaged shard fails only its own reads.
  for (size_t id = 0; opts.validate_extents && id < sizes.size(); ++id) {
    const auto& file =
        *shards[static_cast<size_t>(id) % static_cast<size_t>(num_shards)];
    if (offsets[id] + sizes[id] > file.size()) {
      return Status::Corruption(
          "shard file '" + file.path() + "' is shorter than the manifest " +
          "requires: mask " + std::to_string(id) + " needs bytes [" +
          std::to_string(offsets[id]) + ", " +
          std::to_string(offsets[id] + sizes[id]) + ") but the file has " +
          std::to_string(file.size()));
    }
  }
  auto store = std::unique_ptr<ShardedMaskStore>(new ShardedMaskStore(
      dir, opts, kind, std::move(metas), std::move(offsets), std::move(sizes),
      std::move(shards)));
  if (opts.throttle_per_shard && opts.throttle != nullptr) {
    // Scale-out deployment model: one device (throttle) per shard file,
    // each with the shared throttle's parameters.
    store->shard_throttles_.reserve(num_shards);
    for (int32_t s = 0; s < num_shards; ++s) {
      store->shard_throttles_.push_back(std::make_shared<DiskThrottle>(
          opts.throttle->bytes_per_sec(), opts.throttle->latency_us(),
          opts.throttle->queue_depth()));
    }
  }
  return std::unique_ptr<MaskStore>(std::move(store));
}

Status ShardedMaskStore::CheckBlobShape(MaskId id) const {
  const MaskMeta& m = metas_[id];
  if (kind_ == StorageKind::kRawFloat32 &&
      (m.width < 0 || m.height < 0 ||
       static_cast<uint64_t>(m.width) * static_cast<uint64_t>(m.height) *
               sizeof(float) !=
           sizes_[id])) {
    return Status::Corruption("blob size mismatch for mask " +
                              std::to_string(id));
  }
  return Status::OK();
}

Result<Mask> ShardedMaskStore::LoadMask(MaskId id) const {
  MS_RETURN_NOT_OK(CheckId(id));
  MS_RETURN_NOT_OK(CheckBlobShape(id));
  const MaskMeta& m = metas_[id];
  const uint64_t nbytes = sizes_[id];
  const int32_t shard = ShardOf(id);
  const RandomAccessFile& data = *shards_[shard];

  MS_TRACE_SPAN("storage_read");
  if (DiskThrottle* throttle = ThrottleFor(shard)) throttle->Acquire(nbytes);
  masks_loaded_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(nbytes, std::memory_order_relaxed);
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  obs::Trace::CurrentAddCount("storage_bytes_read", nbytes);

  if (kind_ == StorageKind::kRawFloat32) {
    std::vector<float> values(static_cast<size_t>(m.width) * m.height);
    MS_RETURN_NOT_OK(data.ReadAt(offsets_[id], nbytes, values.data()));
    return Mask::FromData(m.width, m.height, std::move(values));
  }
  std::string blob;
  blob.resize(nbytes);
  MS_RETURN_NOT_OK(data.ReadAt(offsets_[id], nbytes, blob.data()));
  return DecodeMask(blob);
}

uint64_t ShardedMaskStore::WindowGap(int32_t shard) const {
  const DiskThrottle* throttle = ThrottleFor(shard);
  if (throttle == nullptr || throttle->bytes_per_sec() <= 0.0) {
    return opts_.batch_gap_bytes;
  }
  return std::min(opts_.batch_gap_bytes,
                  static_cast<uint64_t>(throttle->bytes_per_sec() *
                                        throttle->latency_us() / 1e6));
}

Status ShardedMaskStore::LoadShardRuns(int32_t shard,
                                       const std::vector<MaskId>& ids,
                                       const std::vector<Extent>& extents,
                                       const size_t* order, size_t count,
                                       uint64_t merge_gap,
                                       std::vector<Mask>* out) const {
  const RandomAccessFile& file = *shards_[shard];
  // Scratch for coalesced-over gap bytes. Gap slices may alias it: preadv
  // fills destinations in order and the content is discarded.
  std::vector<char> gap_buf;

  struct RawDest {
    size_t out_idx;
    std::vector<float> values;
  };
  struct BlobDest {
    size_t out_idx;
    std::string bytes;
  };
  // Entries a and b of the batch read the same bytes into the same shape.
  auto same = [&](size_t a, size_t b) {
    return ids[a] == ids[b] && extents[a].offset == extents[b].offset &&
           extents[a].size == extents[b].size;
  };

  size_t pos = 0;
  while (pos < count) {
    // Grow the run while the next extent starts within the gap threshold
    // and the total span stays under the read cap (one oversized extent is
    // still read whole). Two windows of one mask may overlap; the second
    // then starts its own run, because a scatter read fills its
    // destinations back to back.
    const uint64_t run_start = extents[order[pos]].offset;
    uint64_t run_end = run_start + extents[order[pos]].size;
    size_t end = pos + 1;
    while (end < count) {
      const Extent& next = extents[order[end]];
      if (next.offset > run_end + merge_gap) break;
      if (next.offset < run_end && !same(order[end], order[end - 1])) break;
      const uint64_t next_end = std::max(run_end, next.offset + next.size);
      if (next_end - run_start > opts_.batch_max_bytes && next_end > run_end) {
        break;
      }
      run_end = next_end;
      ++end;
    }

    // One scatter read per run, directly into the destination buffers.
    // All scratch is sized before any slice points into it: a reallocation
    // would dangle the earlier slices.
    uint64_t max_gap = 0;
    {
      uint64_t scan = run_start;
      for (size_t p = pos; p < end; ++p) {
        const Extent& e = extents[order[p]];
        if (e.offset > scan) max_gap = std::max(max_gap, e.offset - scan);
        scan = std::max(scan, e.offset + e.size);
      }
    }
    if (gap_buf.size() < max_gap) gap_buf.resize(max_gap);

    std::vector<IoSlice> slices;
    std::vector<RawDest> raw_dests;
    std::vector<BlobDest> blob_dests;
    raw_dests.reserve(end - pos);
    blob_dests.reserve(end - pos);
    std::vector<std::pair<size_t, size_t>> dups;  // (dup out idx, first idx)
    uint64_t cursor = run_start;
    size_t first_idx = order[pos];
    for (size_t p = pos; p < end; ++p) {
      const size_t i = order[p];
      if (p > pos && same(i, order[p - 1])) {
        dups.emplace_back(i, first_idx);
        continue;
      }
      first_idx = i;
      const Extent& e = extents[i];
      if (e.offset > cursor) {
        slices.push_back(
            IoSlice{gap_buf.data(), static_cast<size_t>(e.offset - cursor)});
      }
      const size_t nbytes = e.size;
      if (kind_ == StorageKind::kRawFloat32) {
        raw_dests.push_back(
            RawDest{i, std::vector<float>(nbytes / sizeof(float))});
        slices.push_back(IoSlice{raw_dests.back().values.data(), nbytes});
      } else {
        blob_dests.push_back(BlobDest{i, std::string(nbytes, '\0')});
        slices.push_back(IoSlice{blob_dests.back().bytes.data(), nbytes});
      }
      cursor = e.offset + nbytes;
    }

    const uint64_t span = run_end - run_start;
    if (DiskThrottle* throttle = ThrottleFor(shard)) throttle->Acquire(span);
    bytes_read_.fetch_add(span, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
    obs::Trace::CurrentAddCount("storage_bytes_read", span);
    MS_RETURN_NOT_OK(file.ReadVAt(run_start, std::move(slices)));

    MS_TRACE_SPAN("decode");
    for (RawDest& d : raw_dests) {
      const int32_t width = metas_[ids[d.out_idx]].width;
      MS_ASSIGN_OR_RETURN((*out)[d.out_idx],
                          Mask::FromData(width, extents[d.out_idx].rows,
                                         std::move(d.values)));
    }
    for (const BlobDest& d : blob_dests) {
      MS_ASSIGN_OR_RETURN((*out)[d.out_idx],
                          DecodeMask(d.bytes.data(), d.bytes.size()));
    }
    for (const auto& [dup_idx, src_idx] : dups) {
      (*out)[dup_idx] = (*out)[src_idx];
    }
    pos = end;
  }
  return Status::OK();
}

Result<std::vector<Mask>> ShardedMaskStore::LoadWindows(
    const std::vector<MaskId>& ids, const RowWindow* windows) const {
  std::vector<Mask> out(ids.size());
  if (ids.empty()) return out;

  // Every entry is validated before anything is read or counted: a bad id
  // or window, or a raw blob whose manifest shape disagrees with its size,
  // fails the whole batch. A raw window is one byte range of its blob.
  std::vector<Extent> extents(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const MaskId id = ids[i];
    MS_RETURN_NOT_OK(CheckId(id));
    MS_RETURN_NOT_OK(CheckBlobShape(id));
    const MaskMeta& m = metas_[id];
    const RowWindow w = windows != nullptr ? windows[i] : RowWindow::Whole(m);
    if (windows != nullptr) MS_RETURN_NOT_OK(CheckWindow(id, w));
    if (kind_ == StorageKind::kRawFloat32) {
      const uint64_t row_bytes =
          static_cast<uint64_t>(m.width) * sizeof(float);
      extents[i] =
          Extent{offsets_[id] + static_cast<uint64_t>(w.y0) * row_bytes,
                 static_cast<uint64_t>(w.rows()) * row_bytes, w.rows()};
    } else if (w.IsWhole(m)) {
      extents[i] = Extent{offsets_[id], sizes_[id], m.height};
    } else {
      return Status::NotImplemented(
          "partial reads require raw storage (compressed blobs decode whole)");
    }
  }

  // Sort by (shard, extent): each shard's slice becomes an append-ordered
  // run sequence (duplicates adjacent, read once), and the slices are
  // independent — one coalesced read loop per shard, issued concurrently
  // when an io_pool is configured.
  std::vector<size_t> order(ids.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const int32_t sa = ShardOf(ids[a]);
    const int32_t sb = ShardOf(ids[b]);
    if (sa != sb) return sa < sb;
    if (extents[a].offset != extents[b].offset) {
      return extents[a].offset < extents[b].offset;
    }
    if (extents[a].size != extents[b].size) {
      return extents[a].size < extents[b].size;
    }
    return ids[a] < ids[b];
  });

  // A mask counts once however many entries read it; its entries are
  // adjacent in `order`, because its extents lie inside its own blob.
  uint64_t distinct = 0;
  for (size_t p = 0; p < order.size(); ++p) {
    distinct += p == 0 || ids[order[p]] != ids[order[p - 1]];
  }
  masks_loaded_.fetch_add(distinct, std::memory_order_relaxed);

  // Contiguous per-shard slices of `order`.
  struct ShardSlice {
    int32_t shard;
    size_t begin;
    size_t end;
  };
  std::vector<ShardSlice> slices;
  for (size_t p = 0; p < order.size();) {
    const int32_t shard = ShardOf(ids[order[p]]);
    size_t end = p + 1;
    while (end < order.size() && ShardOf(ids[order[end]]) == shard) ++end;
    slices.push_back(ShardSlice{shard, p, end});
    p = end;
  }

  std::vector<Status> statuses(slices.size(), Status::OK());
  // Per-shard reads may land on io_pool threads: carry the caller's trace
  // across so each shard's I/O records its own "shard_read" span.
  obs::Trace* const trace = obs::Trace::Current();
  ParallelFor(slices.size() > 1 ? opts_.io_pool : nullptr, slices.size(),
              [&](size_t s) {
                obs::TraceScope trace_scope(trace);
                MS_TRACE_SPAN("shard_read");
                const ShardSlice& sl = slices[s];
                statuses[s] = LoadShardRuns(
                    sl.shard, ids, extents, &order[sl.begin],
                    sl.end - sl.begin,
                    windows != nullptr ? WindowGap(sl.shard)
                                       : opts_.batch_gap_bytes,
                    &out);
              });
  for (const Status& st : statuses) MS_RETURN_NOT_OK(st);
  return out;
}

Result<std::vector<Mask>> ShardedMaskStore::LoadMaskBatch(
    const std::vector<MaskId>& ids) const {
  return LoadWindows(ids, nullptr);
}

Result<std::vector<Mask>> ShardedMaskStore::LoadMaskWindows(
    const std::vector<MaskId>& ids,
    const std::vector<RowWindow>& windows) const {
  if (windows.size() != ids.size()) {
    return Status::InvalidArgument("one row window per id required");
  }
  return LoadWindows(ids, windows.data());
}

Status ShardedMaskStore::ReadBlob(MaskId id, std::string* out) const {
  MS_RETURN_NOT_OK(CheckId(id));
  const uint64_t nbytes = sizes_[id];
  const int32_t shard = ShardOf(id);
  if (DiskThrottle* throttle = ThrottleFor(shard)) throttle->Acquire(nbytes);
  bytes_read_.fetch_add(nbytes, std::memory_order_relaxed);
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  out->resize(nbytes);
  return shards_[shard]->ReadAt(offsets_[id], nbytes, out->data());
}

Status ReshardMaskStore(const MaskStore& src, const std::string& dst_dir,
                        int32_t num_shards) {
  MaskStoreWriter::Options wopts;
  wopts.kind = src.kind();
  wopts.num_shards = num_shards;
  MS_ASSIGN_OR_RETURN(auto writer, MaskStoreWriter::Create(dst_dir, wopts));
  std::string blob;
  for (MaskId id = 0; id < src.num_masks(); ++id) {
    MS_RETURN_NOT_OK(src.ReadBlob(id, &blob));
    MS_ASSIGN_OR_RETURN(MaskId assigned,
                        writer->AppendBlob(src.meta(id), blob));
    if (assigned != id) {
      return Status::Internal("reshard id drift: wrote " +
                              std::to_string(assigned) + " for " +
                              std::to_string(id));
    }
  }
  return writer->Finish();
}

}  // namespace masksearch
