// FilteredMaskStore: a tombstone-filtering decorator over any MaskStore.
//
// Deletes cannot rewrite the physical store in place: blob placement is the
// deterministic shard = id % num_shards, so dropping a mask from the middle
// would shift every later id into a different shard file. Instead, deleted
// masks stay on disk as dead bytes until a compaction rewrites the
// generation (docs/COMPACTION.md), and this decorator presents the *live*
// subset with dense visible ids [0, live): visible id v maps to the v-th
// non-tombstoned physical id. Metadata is materialized with mask_id
// rewritten to the visible id, so readers above (sessions, CHIs, caches)
// see an ordinary dense store and never learn about the holes.
//
// Accounting forwards to the wrapped store (physical traffic); catalog
// accessors (metas, sizes, TotalDataBytes) describe only the visible masks,
// so TotalDataBytes is the store's *live* byte count.

#ifndef MASKSEARCH_STORAGE_FILTERED_MASK_STORE_H_
#define MASKSEARCH_STORAGE_FILTERED_MASK_STORE_H_

#include <memory>
#include <vector>

#include "masksearch/storage/mask_store.h"

namespace masksearch {

class FilteredMaskStore final : public MaskStore {
 public:
  /// \brief Wraps `inner`, hiding the physical ids in `tombstones` (need
  /// not be sorted; out-of-range or duplicate ids are a typed
  /// InvalidArgument). An empty tombstone set returns `inner` unchanged —
  /// the decorator only exists when there is something to hide.
  static Result<std::unique_ptr<MaskStore>> Wrap(
      std::unique_ptr<MaskStore> inner, std::vector<MaskId> tombstones);

  int32_t num_shards() const override { return inner_->num_shards(); }

  Result<Mask> LoadMask(MaskId id) const override;
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override;
  Result<Mask> LoadMaskRows(MaskId id, int32_t y0, int32_t y1) const override;
  Result<std::vector<Mask>> LoadMaskWindows(
      const std::vector<MaskId>& ids,
      const std::vector<RowWindow>& windows) const override;
  bool ReadsRowWindows() const override { return inner_->ReadsRowWindows(); }
  Status ReadBlob(MaskId id, std::string* out) const override;
  size_t CountResident(const std::vector<MaskId>& ids) const override;

  uint64_t masks_loaded() const override { return inner_->masks_loaded(); }
  uint64_t bytes_read() const override { return inner_->bytes_read(); }
  void ResetCounters() override { inner_->ResetCounters(); }

  /// \brief Physical id behind visible id `id` (unchecked).
  MaskId PhysicalId(MaskId id) const { return phys_[id]; }
  const MaskStore& inner() const { return *inner_; }

 private:
  FilteredMaskStore(std::unique_ptr<MaskStore> inner,
                    std::vector<MaskId> phys, std::vector<MaskMeta> metas,
                    std::vector<uint64_t> sizes);

  /// Visible → physical translation of a whole batch (validates each id).
  Result<std::vector<MaskId>> Translate(const std::vector<MaskId>& ids) const;

  std::unique_ptr<MaskStore> inner_;
  std::vector<MaskId> phys_;  ///< visible id → physical id, strictly increasing
};

}  // namespace masksearch

#endif  // MASKSEARCH_STORAGE_FILTERED_MASK_STORE_H_
