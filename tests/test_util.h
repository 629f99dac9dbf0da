// Shared helpers for the MaskSearch test suite.

#ifndef MASKSEARCH_TESTS_TEST_UTIL_H_
#define MASKSEARCH_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "masksearch/cache/chi_cache.h"
#include "masksearch/common/random.h"
#include "masksearch/common/serialize.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/index/chi.h"
#include "masksearch/index/index_manager.h"
#include "masksearch/query/expression.h"
#include "masksearch/storage/mask.h"
#include "masksearch/storage/mask_store.h"
#include "masksearch/workload/synthetic.h"

namespace masksearch {
namespace testing_util {

#define MS_ASSERT_OK(expr)                                   \
  do {                                                       \
    const ::masksearch::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (0)

#define MS_EXPECT_OK(expr)                                   \
  do {                                                       \
    const ::masksearch::Status _st = (expr);                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (0)

/// Unique scratch directory removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("masksearch_test_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Uniform-random mask with values in [0, 1).
inline Mask RandomMask(Rng* rng, int32_t w, int32_t h) {
  Mask m(w, h);
  for (float& v : m.mutable_data()) v = rng->NextFloat();
  return m;
}

/// Structured (blobby) mask, closer to real saliency maps than iid noise.
inline Mask BlobMask(Rng* rng, int32_t w, int32_t h) {
  SaliencySpec spec;
  spec.width = w;
  spec.height = h;
  const ROI box = GenerateObjectBox(rng, w, h);
  return GenerateSaliencyMask(rng, spec, box, rng->NextBool(0.3));
}

/// Builds a small store of random saliency-like masks: `num_images` images ×
/// `num_models` models, with object boxes and deterministic content.
inline std::unique_ptr<MaskStore> MakeStore(const std::string& dir,
                                            int64_t num_images,
                                            int32_t num_models, int32_t w,
                                            int32_t h, uint64_t seed = 7) {
  auto writer = MaskStoreWriter::Create(dir).ValueOrDie();
  Rng rng(seed);
  SaliencySpec spec;
  spec.width = w;
  spec.height = h;
  for (int64_t img = 0; img < num_images; ++img) {
    const ROI box = GenerateObjectBox(&rng, w, h);
    const bool dispersed = rng.NextBool(0.25);
    const std::vector<SaliencyBlob> blobs =
        SampleSaliencyBlobs(&rng, spec, box, dispersed);
    for (int32_t model = 0; model < num_models; ++model) {
      const std::vector<SaliencyBlob> model_blobs =
          model == 0 ? blobs : JitterSaliencyBlobs(&rng, blobs, 0.25, w, h);
      Mask mask = RenderSaliencyMask(&rng, spec, model_blobs);
      MaskMeta meta;
      meta.image_id = img;
      meta.model_id = model;
      meta.mask_type = MaskType::kSaliencyMap;
      meta.object_box = box;
      writer->Append(meta, mask).ValueOrDie();
    }
  }
  writer->Finish().CheckOK();
  return MaskStore::Open(dir).ValueOrDie();
}

/// CHI geometries whose bin edges are awkward for a cell split, none of
/// whose cells divide the edge stores' sides: 8 equi-width bins (every edge
/// a float), 20 equi-width bins (edges such as 0.35 that no float equals),
/// and 6 equi-depth bins at custom edges (doubles, some not floats).
inline std::vector<ChiConfig> EdgeChiConfigs() {
  ChiConfig eight;
  eight.cell_width = 8;
  eight.cell_height = 8;
  eight.num_bins = 8;
  ChiConfig twenty;
  twenty.cell_width = 7;
  twenty.cell_height = 9;
  twenty.num_bins = 20;
  ChiConfig depth;
  depth.cell_width = 6;
  depth.cell_height = 10;
  depth.num_bins = 6;
  depth.custom_edges = {0.1, 0.35, 0.5, 0.7, static_cast<float>(0.93)};
  return {eight, twenty, depth};
}

/// The bin edges of EdgeChiConfigs() inside (0, 1), as doubles.
inline std::vector<double> EdgeValues() {
  std::vector<double> edges;
  for (int32_t k = 1; k < 8; ++k) edges.push_back(k / 8.0);
  for (int32_t k = 1; k < 20; ++k) edges.push_back(k * 0.05);
  const ChiConfig depth = EdgeChiConfigs()[2];
  edges.insert(edges.end(), depth.custom_edges.begin(),
               depth.custom_edges.end());
  return edges;
}

/// Pixel values on the bin edges of EdgeChiConfigs() and one float to
/// either side, plus 0 and the largest float below 1.
inline std::vector<float> EdgePixelValues() {
  std::vector<float> values = {0.0f, std::nextafter(1.0f, 0.0f)};
  for (double e : EdgeValues()) {
    const float f = static_cast<float>(e);
    values.insert(values.end(), {f, std::nextafter(f, 0.0f),
                                 std::nextafter(f, 1.0f)});
  }
  return values;
}

/// Value ranges on, beside and between those edges: double edges, their
/// float roundings and next doubles, ranges narrower than one bin, the
/// whole domain, and an empty range.
inline std::vector<ValueRange> EdgeValueRanges() {
  return {ValueRange(0.35, 0.7),
          ValueRange(std::nextafter(0.35, 1.0), 0.7),
          ValueRange(static_cast<float>(0.35), static_cast<float>(0.7)),
          ValueRange(0.25, 0.5),
          ValueRange(0.5, std::nextafter(0.7, 1.0)),
          ValueRange(0.3, 0.31),
          ValueRange(0.36, 0.37),
          ValueRange(0.1, 0.93),
          ValueRange(0.0, 1.0),
          ValueRange(0.0, 0.05),
          ValueRange(std::nextafter(1.0f, 0.0f), 1.0),
          ValueRange(0.6, 0.6)};
}

/// A raw store of `num_images` images × 2 models of w × h masks (choose
/// sides that no cell of EdgeChiConfigs() divides) at `dir`: saliency
/// content, a rectangle of one edge value, and 3% of the pixels at edge
/// values (EdgePixelValues). Model 1 of every third image is flat instead:
/// 0.6 in the columns left of x = 24 or 28 (cell boundaries of the 8- and
/// 6-wide, or the 7-wide cells), 0 elsewhere, so an ROI cutting those
/// cells can be pinned by its CHI without tight bounds.
inline std::unique_ptr<MaskStore> MakeEdgeStore(const std::string& dir,
                                                int64_t num_images, int32_t w,
                                                int32_t h, uint64_t seed) {
  const std::vector<float> edges = EdgePixelValues();
  auto writer = MaskStoreWriter::Create(dir).ValueOrDie();
  Rng rng(seed);
  auto pick = [&] { return edges[rng.UniformInt(0, edges.size() - 1)]; };
  for (int64_t img = 0; img < num_images; ++img) {
    const ROI box = GenerateObjectBox(&rng, w, h);
    for (int32_t model = 0; model < 2; ++model) {
      MaskMeta meta;
      meta.image_id = img;
      meta.model_id = model;
      meta.mask_type = MaskType::kSaliencyMap;
      meta.object_box = box;
      if (model == 1 && img % 3 == 0) {
        Mask flat(w, h);
        const int32_t split = img % 2 == 0 ? 24 : 28;
        for (int32_t y = 0; y < h; ++y) {
          for (int32_t x = 0; x < std::min(w, split); ++x) flat.set(x, y, 0.6f);
        }
        writer->Append(meta, flat).ValueOrDie();
        continue;
      }
      Mask mask = BlobMask(&rng, w, h);
      const int32_t x0 = static_cast<int32_t>(rng.UniformInt(0, w - 1));
      const int32_t y0 = static_cast<int32_t>(rng.UniformInt(0, h - 1));
      const int32_t x1 = static_cast<int32_t>(rng.UniformInt(x0 + 1, w));
      const int32_t y1 = static_cast<int32_t>(rng.UniformInt(y0 + 1, h));
      const float fill = pick();
      for (int32_t y = y0; y < y1; ++y) {
        for (int32_t x = x0; x < x1; ++x) mask.set(x, y, fill);
      }
      for (float& v : mask.mutable_data()) {
        if (rng.NextBool(0.03)) v = pick();
      }
      writer->Append(meta, mask).ValueOrDie();
    }
  }
  writer->Finish().CheckOK();
  return MaskStore::Open(dir).ValueOrDie();
}

/// Writes `src`'s masks, quantized by the default codec, as a raw store at
/// `raw_dir` and a compressed store at `compressed_dir`. Quantized values
/// survive encode + decode bit for bit, so both stores hold the same masks
/// and every query must answer identically on either.
inline void WriteQuantizedTwins(const MaskStore& src,
                                const std::string& raw_dir,
                                const std::string& compressed_dir) {
  MaskStoreWriter::Options copts;
  copts.kind = StorageKind::kCompressed;
  auto raw = MaskStoreWriter::Create(raw_dir).ValueOrDie();
  auto compressed = MaskStoreWriter::Create(compressed_dir, copts).ValueOrDie();
  for (MaskId id = 0; id < src.num_masks(); ++id) {
    const Mask q =
        DecodeMask(EncodeMask(src.LoadMask(id).ValueOrDie())).ValueOrDie();
    raw->Append(src.meta(id), q).ValueOrDie();
    compressed->Append(src.meta(id), q).ValueOrDie();
  }
  raw->Finish().CheckOK();
  compressed->Finish().CheckOK();
}

/// Forwards every read to `inner` (row windows included) and records each
/// load call as its entries (id, rows read). `on_load`, if set, runs at
/// every load call — e.g. to cancel a query from inside its first
/// verification batch.
class ForwardingStore final : public MaskStore {
 public:
  explicit ForwardingStore(const MaskStore& inner,
                           std::function<void()> on_load = nullptr)
      : MaskStore(inner.dir(), inner.options(), inner.kind(), inner.metas(),
                  Sizes(inner)),
        inner_(inner),
        on_load_(std::move(on_load)) {}

  int32_t num_shards() const override { return inner_.num_shards(); }
  Result<Mask> LoadMask(MaskId id) const override {
    Record({id}, nullptr);
    return inner_.LoadMask(id);
  }
  Result<std::vector<Mask>> LoadMaskBatch(
      const std::vector<MaskId>& ids) const override {
    Record(ids, nullptr);
    return inner_.LoadMaskBatch(ids);
  }
  Result<std::vector<Mask>> LoadMaskWindows(
      const std::vector<MaskId>& ids,
      const std::vector<RowWindow>& windows) const override {
    Record(ids, windows.data());
    return inner_.LoadMaskWindows(ids, windows);
  }
  bool ReadsRowWindows() const override { return inner_.ReadsRowWindows(); }
  size_t CountResident(const std::vector<MaskId>& ids) const override {
    return inner_.CountResident(ids);
  }
  Status ReadBlob(MaskId id, std::string* out) const override {
    return inner_.ReadBlob(id, out);
  }
  uint64_t masks_loaded() const override { return inner_.masks_loaded(); }
  uint64_t bytes_read() const override { return inner_.bytes_read(); }

  using Load = std::pair<MaskId, RowWindow>;

  /// The load calls recorded since the last Take*, in no particular order;
  /// each holds its entries in call order.
  std::vector<std::vector<Load>> TakeCalls() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(calls_);
  }

  /// The entries of TakeCalls(), flattened.
  std::vector<Load> TakeLoads() {
    std::vector<Load> loads;
    for (std::vector<Load>& call : TakeCalls()) {
      loads.insert(loads.end(), call.begin(), call.end());
    }
    return loads;
  }

 private:
  static std::vector<uint64_t> Sizes(const MaskStore& store) {
    std::vector<uint64_t> sizes;
    for (MaskId id = 0; id < store.num_masks(); ++id) {
      sizes.push_back(store.BlobSize(id));
    }
    return sizes;
  }

  void Record(const std::vector<MaskId>& ids, const RowWindow* windows) const {
    if (on_load_) on_load_();
    std::vector<Load> call;
    for (size_t i = 0; i < ids.size(); ++i) {
      const bool valid = ids[i] >= 0 && ids[i] < num_masks();
      call.emplace_back(ids[i], windows != nullptr ? windows[i]
                                : valid ? RowWindow::Whole(meta(ids[i]))
                                        : RowWindow{});
    }
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(std::move(call));
  }

  const MaskStore& inner_;
  std::function<void()> on_load_;
  mutable std::mutex mu_;
  mutable std::vector<std::vector<Load>> calls_;
};

/// Forwards to `inner` and counts the Find calls made through it.
class CountingChiSource final : public ChiSource {
 public:
  explicit CountingChiSource(ChiSource* inner) : inner_(inner) {}

  std::shared_ptr<const Chi> Find(MaskId id) const override {
    finds_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Find(id);
  }
  bool Retains(MaskId id) const override { return inner_->Retains(id); }
  void Retain(MaskId id, const Mask& mask) override {
    inner_->Retain(id, mask);
  }
  size_t size() const override { return inner_->size(); }
  const ChiConfig& config() const override { return inner_->config(); }

  /// The Find calls since the last TakeFinds.
  int64_t TakeFinds() { return finds_.exchange(0); }

 private:
  ChiSource* inner_;
  mutable std::atomic<int64_t> finds_{0};
};

/// The rows the clamped ROIs of `terms` cover in `meta`'s mask (their
/// hull), or the whole mask when all are empty: the window a raw uncached
/// store's verification load must read.
inline RowWindow RoiRows(const MaskMeta& meta,
                         const std::vector<CpTerm>& terms) {
  int32_t y0 = meta.height, y1 = 0;
  for (const CpTerm& t : terms) {
    const ROI r = ResolveRoi(t, meta).ClampTo(meta.width, meta.height);
    if (r.Empty()) continue;
    y0 = std::min(y0, r.y0);
    y1 = std::max(y1, r.y1);
  }
  return y0 < y1 ? RowWindow{y0, y1} : RowWindow::Whole(meta);
}

/// Checks the loads `store` recorded since the last call and that `bytes`
/// (an ExecStats::bytes_read) is their byte total. Each mask is read whole;
/// or, when `windowed` (a raw uncached store), with `chis` as its
/// verification plan's windows, the consecutive entries of one call
/// (internal::PlanVerifyLoad), and without as exactly RoiRows(terms).
/// Returns the number of masks read, a mask read in several windows once.
inline int64_t ExpectLoadedRows(ForwardingStore* store,
                                const std::vector<CpTerm>& terms,
                                bool windowed, int64_t bytes,
                                const ChiSource* chis = nullptr) {
  int64_t want = 0;
  int64_t masks = 0;
  for (const std::vector<ForwardingStore::Load>& call : store->TakeCalls()) {
    for (size_t j = 0; j < call.size();) {
      const MaskId id = call[j].first;
      const MaskMeta& m = store->meta(id);
      std::vector<RowWindow> rows = {windowed ? RoiRows(m, terms)
                                              : RowWindow::Whole(m)};
      if (windowed && chis != nullptr) {
        internal::LoadPlans plans;
        internal::LoadUnit unit;
        internal::PlanVerifyLoad(*store, chis, id, terms, &plans, &unit);
        rows = unit.windows;
      }
      ++masks;
      size_t n = 0;
      for (; j < call.size() && call[j].first == id; ++j, ++n) {
        const RowWindow& w = call[j].second;
        if (n < rows.size()) {
          EXPECT_EQ(w.y0, rows[n].y0) << "mask " << id << " window " << n;
          EXPECT_EQ(w.y1, rows[n].y1) << "mask " << id << " window " << n;
        }
        want += w.IsWhole(m) ? static_cast<int64_t>(store->BlobSize(id))
                             : int64_t{w.rows()} * m.width * 4;
      }
      EXPECT_EQ(n, rows.size()) << "mask " << id;
    }
  }
  EXPECT_EQ(bytes, want);
  return masks;
}

/// A CHI's serialized bytes, for exact comparison.
inline std::string ChiBytes(const Chi& chi) {
  BufferWriter w;
  chi.Serialize(&w);
  return w.buffer();
}

/// A ChiCache (private pool, no byte limit) holding a copy of every CHI of
/// `index`: the same bounds through the other ChiSource.
inline std::unique_ptr<ChiCache> CopyToChiCache(const IndexManager& index) {
  auto cache = std::make_unique<ChiCache>(nullptr, index.config());
  for (MaskId id = 0; id < index.num_masks(); ++id) {
    if (const Chi* chi = index.Get(id)) cache->Put(id, *chi);
  }
  return cache;
}

}  // namespace testing_util
}  // namespace masksearch

#endif  // MASKSEARCH_TESTS_TEST_UTIL_H_
