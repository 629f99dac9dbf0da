#include "masksearch/storage/filtered_mask_store.h"

#include <algorithm>
#include <utility>

namespace masksearch {

Result<std::unique_ptr<MaskStore>> FilteredMaskStore::Wrap(
    std::unique_ptr<MaskStore> inner, std::vector<MaskId> tombstones) {
  if (inner == nullptr) {
    return Status::InvalidArgument("FilteredMaskStore: null inner store");
  }
  if (tombstones.empty()) return inner;
  std::sort(tombstones.begin(), tombstones.end());
  const int64_t n = inner->num_masks();
  for (size_t i = 0; i < tombstones.size(); ++i) {
    if (tombstones[i] < 0 || tombstones[i] >= n) {
      return Status::InvalidArgument(
          "FilteredMaskStore: tombstone " + std::to_string(tombstones[i]) +
          " out of range [0, " + std::to_string(n) + ")");
    }
    if (i > 0 && tombstones[i] == tombstones[i - 1]) {
      return Status::InvalidArgument("FilteredMaskStore: duplicate tombstone " +
                                     std::to_string(tombstones[i]));
    }
  }
  std::vector<MaskId> phys;
  std::vector<MaskMeta> metas;
  std::vector<uint64_t> sizes;
  phys.reserve(n - static_cast<int64_t>(tombstones.size()));
  metas.reserve(phys.capacity());
  sizes.reserve(phys.capacity());
  size_t t = 0;
  for (MaskId p = 0; p < n; ++p) {
    if (t < tombstones.size() && tombstones[t] == p) {
      ++t;
      continue;
    }
    MaskMeta m = inner->meta(p);
    m.mask_id = static_cast<MaskId>(phys.size());
    metas.push_back(m);
    sizes.push_back(inner->BlobSize(p));
    phys.push_back(p);
  }
  return std::unique_ptr<MaskStore>(new FilteredMaskStore(
      std::move(inner), std::move(phys), std::move(metas), std::move(sizes)));
}

FilteredMaskStore::FilteredMaskStore(std::unique_ptr<MaskStore> inner,
                                     std::vector<MaskId> phys,
                                     std::vector<MaskMeta> metas,
                                     std::vector<uint64_t> sizes)
    : MaskStore(inner->dir(), inner->options(), inner->kind(),
                std::move(metas), std::move(sizes)),
      inner_(std::move(inner)),
      phys_(std::move(phys)) {}

Result<std::vector<MaskId>> FilteredMaskStore::Translate(
    const std::vector<MaskId>& ids) const {
  std::vector<MaskId> out;
  out.reserve(ids.size());
  for (MaskId id : ids) {
    MS_RETURN_NOT_OK(CheckId(id));
    out.push_back(phys_[id]);
  }
  return out;
}

Result<Mask> FilteredMaskStore::LoadMask(MaskId id) const {
  MS_RETURN_NOT_OK(CheckId(id));
  return inner_->LoadMask(phys_[id]);
}

Result<std::vector<Mask>> FilteredMaskStore::LoadMaskBatch(
    const std::vector<MaskId>& ids) const {
  MS_ASSIGN_OR_RETURN(std::vector<MaskId> phys, Translate(ids));
  // The inner batch loader preserves request order, so the translated batch
  // comes back aligned with `ids`.
  return inner_->LoadMaskBatch(phys);
}

Result<Mask> FilteredMaskStore::LoadMaskRows(MaskId id, int32_t y0,
                                             int32_t y1) const {
  MS_RETURN_NOT_OK(CheckId(id));
  return inner_->LoadMaskRows(phys_[id], y0, y1);
}

Result<std::vector<Mask>> FilteredMaskStore::LoadMaskWindows(
    const std::vector<MaskId>& ids,
    const std::vector<RowWindow>& windows) const {
  MS_ASSIGN_OR_RETURN(std::vector<MaskId> phys, Translate(ids));
  return inner_->LoadMaskWindows(phys, windows);
}

Status FilteredMaskStore::ReadBlob(MaskId id, std::string* out) const {
  MS_RETURN_NOT_OK(CheckId(id));
  return inner_->ReadBlob(phys_[id], out);
}

size_t FilteredMaskStore::CountResident(const std::vector<MaskId>& ids) const {
  std::vector<MaskId> phys;
  phys.reserve(ids.size());
  for (MaskId id : ids) {
    if (id < 0 || id >= num_masks()) continue;
    phys.push_back(phys_[id]);
  }
  return inner_->CountResident(phys);
}

}  // namespace masksearch
