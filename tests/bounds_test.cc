// Unit and property tests for CHI-derived CP bounds (§3.2.1), including the
// paper's Figure 6 worked example and the soundness invariant
// lower <= CP <= upper for arbitrary ROIs and value ranges.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "masksearch/index/bounds.h"
#include "masksearch/index/chi_builder.h"
#include "masksearch/query/cp.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::BlobMask;
using testing_util::RandomMask;

/// Same mask as chi_test's PaperFigureMask (Figures 4/6).
Mask PaperFigureMask() {
  Mask m(6, 6);
  for (float& v : m.mutable_data()) v = 0.1f;
  const int32_t high[][2] = {{2, 2}, {3, 3}, {3, 0}, {4, 2}, {5, 2},
                             {4, 3}, {4, 4}, {5, 5}, {2, 4}};
  for (const auto& p : high) m.set(p[0], p[1], 0.9f);
  return m;
}

ChiConfig PaperConfig() {
  ChiConfig cfg;
  cfg.cell_width = 2;
  cfg.cell_height = 2;
  cfg.num_bins = 2;
  return cfg;
}

TEST(BoundsTest, PaperFigure6Example) {
  // roi = ((3,3),(5,5)) inclusive = [2,5)² half-open; (lv,uv) = (0.6, 1.0).
  // The paper computes θ̄₁ = C(roi⁺)[1] − C(roi⁺)[2] = 8 − 0 = 8 and
  // θ̄₂ = C(roi⁻)[1] − C(roi⁻)[2] + |roi| − |roi⁻| = 2 − 0 + 9 − 4 = 7.
  const Mask m = PaperFigureMask();
  const Chi chi = BuildChi(m, PaperConfig());
  const ROI roi(2, 2, 5, 5);
  const ValueRange range(0.6, 1.0);

  const CpBoundsDetail d = ComputeCpBoundsDetail(chi, roi, range);
  EXPECT_EQ(d.upper1, 8);
  EXPECT_EQ(d.upper2, 7);
  EXPECT_EQ(d.combined.upper, 7);

  const int64_t exact = CountPixels(m, roi, range);
  EXPECT_EQ(exact, 6);
  EXPECT_LE(d.combined.lower, exact);
  EXPECT_GE(d.combined.upper, exact);
}

TEST(BoundsTest, ExactWhenFullyAligned) {
  // Grid-aligned ROI + bin-aligned range pin the value: lower == upper == CP.
  const Mask m = PaperFigureMask();
  const Chi chi = BuildChi(m, PaperConfig());
  const ROI roi(2, 2, 6, 6);             // boundary-aligned
  const ValueRange range(0.5, 1.0);      // bin edge
  const CpBounds b = ComputeCpBounds(chi, roi, range);
  EXPECT_TRUE(b.Tight());
  EXPECT_EQ(b.lower, CountPixels(m, roi, range));
}

TEST(BoundsTest, AlignedRangeUnalignedRoi) {
  const Mask m = PaperFigureMask();
  const Chi chi = BuildChi(m, PaperConfig());
  const ROI roi(1, 1, 5, 5);
  const ValueRange range(0.5, 1.0);
  const CpBounds b = ComputeCpBounds(chi, roi, range);
  const int64_t exact = CountPixels(m, roi, range);
  EXPECT_LE(b.lower, exact);
  EXPECT_GE(b.upper, exact);
  EXPECT_LE(b.upper, roi.Area());
}

TEST(BoundsTest, EmptyRoiGivesZero) {
  const Chi chi = BuildChi(PaperFigureMask(), PaperConfig());
  EXPECT_EQ(ComputeCpBounds(chi, ROI(3, 3, 3, 5), ValueRange(0, 1)).upper, 0);
  EXPECT_EQ(ComputeCpBounds(chi, ROI(10, 10, 20, 20), ValueRange(0, 1)).upper,
            0);
}

TEST(BoundsTest, EmptyValueRangeGivesZero) {
  const Chi chi = BuildChi(PaperFigureMask(), PaperConfig());
  const CpBounds b =
      ComputeCpBounds(chi, ROI(0, 0, 6, 6), ValueRange(0.7, 0.7));
  EXPECT_EQ(b.lower, 0);
  EXPECT_EQ(b.upper, 0);
}

TEST(BoundsTest, FullMaskFullRangeIsExactArea) {
  Rng rng(1);
  const Mask m = RandomMask(&rng, 12, 12);
  const Chi chi = BuildChi(m, PaperConfig());
  const CpBounds b =
      ComputeCpBounds(chi, ROI(0, 0, 12, 12), ValueRange(0.0, 1.0));
  EXPECT_TRUE(b.Tight());
  EXPECT_EQ(b.lower, 144);
}

TEST(BoundsTest, SubPixelRoiWithinOneCell) {
  // ROI strictly inside one cell: no inner region exists; bounds must still
  // bracket the exact count.
  Rng rng(2);
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 4;
  const Mask m = RandomMask(&rng, 16, 16);
  const Chi chi = BuildChi(m, cfg);
  const ROI roi(2, 3, 6, 7);
  const ValueRange range(0.3, 0.8);
  const CpBounds b = ComputeCpBounds(chi, roi, range);
  const int64_t exact = CountPixels(m, roi, range);
  EXPECT_LE(b.lower, exact);
  EXPECT_GE(b.upper, exact);
  EXPECT_LE(b.upper, roi.Area());
  EXPECT_GE(b.lower, 0);
}

TEST(BoundsTest, IntervalArithmeticOnCpBounds) {
  const CpBounds a{2, 5};
  const CpBounds b{1, 3};
  const CpBounds sum = a + b;
  EXPECT_EQ(sum.lower, 3);
  EXPECT_EQ(sum.upper, 8);
  const CpBounds diff = a - b;
  EXPECT_EQ(diff.lower, -1);
  EXPECT_EQ(diff.upper, 4);
}

/// The core soundness sweep: random masks × configs × ROIs × ranges.
struct BoundsSweepParam {
  int32_t width;
  int32_t height;
  int32_t cell;
  int32_t bins;
};

class BoundsPropertyTest : public ::testing::TestWithParam<BoundsSweepParam> {};

TEST_P(BoundsPropertyTest, BoundsAlwaysBracketExactValue) {
  const BoundsSweepParam p = GetParam();
  Rng rng(2024 + p.width * 5 + p.cell * 13 + p.bins * 29);
  ChiConfig cfg;
  cfg.cell_width = p.cell;
  cfg.cell_height = p.cell;
  cfg.num_bins = p.bins;

  for (int mask_trial = 0; mask_trial < 3; ++mask_trial) {
    const Mask m = mask_trial == 0 ? RandomMask(&rng, p.width, p.height)
                                   : BlobMask(&rng, p.width, p.height);
    const Chi chi = BuildChi(m, cfg);
    for (int trial = 0; trial < 80; ++trial) {
      const int32_t x0 = static_cast<int32_t>(rng.UniformInt(0, p.width - 1));
      const int32_t y0 = static_cast<int32_t>(rng.UniformInt(0, p.height - 1));
      const int32_t x1 = static_cast<int32_t>(rng.UniformInt(x0 + 1, p.width));
      const int32_t y1 =
          static_cast<int32_t>(rng.UniformInt(y0 + 1, p.height));
      const ROI roi(x0, y0, x1, y1);
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      // One third of trials use bin-aligned ranges to exercise tightness.
      if (trial % 3 == 0) {
        a = std::floor(a * cfg.num_bins) / cfg.num_bins;
        b = std::ceil(b * cfg.num_bins) / cfg.num_bins;
      }
      const ValueRange range(a, b);
      const CpBounds bounds = ComputeCpBounds(chi, roi, range);
      const int64_t exact = CountPixels(m, roi, range);
      ASSERT_GE(bounds.lower, 0);
      ASSERT_LE(bounds.lower, exact)
          << "roi " << roi.ToString() << " range " << range.ToString();
      ASSERT_GE(bounds.upper, exact)
          << "roi " << roi.ToString() << " range " << range.ToString();
      ASSERT_LE(bounds.upper, roi.Area());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsPropertyTest,
    ::testing::Values(BoundsSweepParam{16, 16, 4, 4},
                      BoundsSweepParam{31, 17, 4, 8},    // ragged
                      BoundsSweepParam{24, 24, 8, 16},
                      BoundsSweepParam{48, 32, 16, 2},   // coarse bins
                      BoundsSweepParam{56, 56, 7, 10},
                      BoundsSweepParam{12, 40, 5, 6}));

TEST(BoundsTest, AlignedEverythingIsAlwaysTight) {
  // When both ROI corners sit on grid boundaries and lv/uv on bin edges,
  // bounds must equal the exact CP (no slack at all).
  Rng rng(77);
  ChiConfig cfg;
  cfg.cell_width = 4;
  cfg.cell_height = 4;
  cfg.num_bins = 8;
  const Mask m = BlobMask(&rng, 32, 32);
  const Chi chi = BuildChi(m, cfg);
  for (int trial = 0; trial < 100; ++trial) {
    const int32_t bx0 = static_cast<int32_t>(rng.UniformInt(0, 7));
    const int32_t bx1 = static_cast<int32_t>(rng.UniformInt(bx0 + 1, 8));
    const int32_t by0 = static_cast<int32_t>(rng.UniformInt(0, 7));
    const int32_t by1 = static_cast<int32_t>(rng.UniformInt(by0 + 1, 8));
    const ROI roi(bx0 * 4, by0 * 4, bx1 * 4, by1 * 4);
    const int32_t lo = static_cast<int32_t>(rng.UniformInt(0, 7));
    const int32_t hi = static_cast<int32_t>(rng.UniformInt(lo + 1, 8));
    const ValueRange range(lo / 8.0, hi / 8.0);
    const CpBounds b = ComputeCpBounds(chi, roi, range);
    ASSERT_TRUE(b.Tight()) << b.ToString();
    ASSERT_EQ(b.lower, CountPixels(m, roi, range));
  }
}

TEST(BoundsTest, EquiDepthBoundsBracketExactValue) {
  // The soundness invariant holds for equi-depth buckets too: bounds only
  // consume EdgeValue/BinFloor/BinCeil, never the equi-width Δ.
  Rng rng(2025);
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 5;
  cfg.num_bins = 6;
  cfg.custom_edges = {0.04, 0.1, 0.25, 0.5, 0.8};
  const Mask m = BlobMask(&rng, 40, 30);
  const Chi chi = BuildChi(m, cfg);
  for (int trial = 0; trial < 200; ++trial) {
    const int32_t x0 = static_cast<int32_t>(rng.UniformInt(0, 39));
    const int32_t y0 = static_cast<int32_t>(rng.UniformInt(0, 29));
    const int32_t x1 = static_cast<int32_t>(rng.UniformInt(x0 + 1, 40));
    const int32_t y1 = static_cast<int32_t>(rng.UniformInt(y0 + 1, 30));
    const ROI roi(x0, y0, x1, y1);
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    const ValueRange range(a, b);
    const CpBounds bounds = ComputeCpBounds(chi, roi, range);
    const int64_t exact = CountPixels(m, roi, range);
    ASSERT_LE(bounds.lower, exact) << roi.ToString() << range.ToString();
    ASSERT_GE(bounds.upper, exact) << roi.ToString() << range.ToString();
  }
}

TEST(BoundsTest, EquiDepthTighterOnSkewedData) {
  // Saliency data is heavily skewed toward low values; quantile edges give
  // tighter bounds than equi-width edges for the same bin budget, on ranges
  // aligned to neither.
  Rng rng(2026);
  const Mask m = BlobMask(&rng, 56, 56);
  ChiConfig width_cfg;
  width_cfg.cell_width = width_cfg.cell_height = 14;
  width_cfg.num_bins = 8;
  ChiConfig depth_cfg = width_cfg;
  // Quantile-ish edges for blob masks (mass concentrated below 0.2).
  depth_cfg.custom_edges = {0.02, 0.04, 0.07, 0.12, 0.2, 0.35, 0.6};
  const Chi cw = BuildChi(m, width_cfg);
  const Chi cd = BuildChi(m, depth_cfg);
  int64_t width_total = 0, depth_total = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const ROI roi(7, 7, 49, 49);
    const double lv = rng.Uniform(0.0, 0.2);
    const ValueRange range(lv, rng.Uniform(lv + 0.01, 0.4));
    const CpBounds bw = ComputeCpBounds(cw, roi, range);
    const CpBounds bd = ComputeCpBounds(cd, roi, range);
    width_total += bw.upper - bw.lower;
    depth_total += bd.upper - bd.lower;
  }
  EXPECT_LT(depth_total, width_total);
}

TEST(BoundsTest, FinerIndexGivesTighterOrEqualBounds) {
  // §4.4: larger (finer) indexes yield tighter bounds. Refining the grid 2×
  // must never loosen the bound on aligned-range queries.
  Rng rng(88);
  const Mask m = BlobMask(&rng, 64, 64);
  ChiConfig coarse;
  coarse.cell_width = coarse.cell_height = 16;
  coarse.num_bins = 4;
  ChiConfig fine;
  fine.cell_width = fine.cell_height = 8;
  fine.num_bins = 8;
  const Chi c1 = BuildChi(m, coarse);
  const Chi c2 = BuildChi(m, fine);
  for (int trial = 0; trial < 60; ++trial) {
    const int32_t x0 = static_cast<int32_t>(rng.UniformInt(0, 62));
    const int32_t y0 = static_cast<int32_t>(rng.UniformInt(0, 62));
    const int32_t x1 = static_cast<int32_t>(rng.UniformInt(x0 + 1, 64));
    const int32_t y1 = static_cast<int32_t>(rng.UniformInt(y0 + 1, 64));
    const ROI roi(x0, y0, x1, y1);
    // Coarse-aligned range so both indexes see aligned edges.
    const int32_t lo = static_cast<int32_t>(rng.UniformInt(0, 3));
    const ValueRange range(lo / 4.0, 1.0);
    const CpBounds bc = ComputeCpBounds(c1, roi, range);
    const CpBounds bf = ComputeCpBounds(c2, roi, range);
    ASSERT_LE(bf.upper, bc.upper);
    ASSERT_GE(bf.lower, bc.lower);
  }
}

// ---- Cell split (SplitCpCells) ----

/// CP from a split: the certain count plus every uncertain rectangle.
int64_t SplitCount(const CpCellSplit& split, const Mask& m,
                   const ValueRange& range) {
  int64_t count = split.certain;
  for (const ROI& r : split.uncertain) count += CountPixels(m, r, range);
  return count;
}

/// Checks the split's shape: uncertain rectangles lie inside the clamped
/// ROI, are disjoint, row-major, and each spans whole cell rows of it.
void ExpectWellFormed(const CpCellSplit& split, const Chi& chi,
                      const ROI& roi_in) {
  const ROI roi = roi_in.ClampTo(chi.width(), chi.height());
  for (size_t i = 0; i < split.uncertain.size(); ++i) {
    const ROI& r = split.uncertain[i];
    EXPECT_FALSE(r.Empty());
    EXPECT_EQ(r.Intersect(roi).Area(), r.Area()) << r.ToString();
    if (i > 0) {
      const ROI& p = split.uncertain[i - 1];
      EXPECT_TRUE(p.y0 < r.y0 || (p.y0 == r.y0 && p.x1 < r.x0))
          << p.ToString() << " then " << r.ToString();
    }
  }
}

// Exactness over ragged masks whose pixels sit on, and one float beside,
// the edges of 8-bin, 20-bin and equi-depth CHIs, for ranges on and off
// those edges, ROIs inside, partly outside and off the mask, and empty
// ROIs: certain + CountPixels(uncertain) equals CP in every case.
TEST(CellSplitTest, CertainPlusUncertainIsExact) {
  testing_util::TempDir dir("cell_split");
  auto store = testing_util::MakeEdgeStore(dir.path(), 4, 45, 37, 5);
  Rng rng(4242);
  int64_t certain_cells = 0;
  int64_t uncertain_rects = 0;
  for (const ChiConfig& cfg : testing_util::EdgeChiConfigs()) {
    for (MaskId id = 0; id < store->num_masks(); ++id) {
      const Mask m = store->LoadMask(id).ValueOrDie();
      const Chi chi = BuildChi(m, cfg);
      std::vector<ROI> rois = {ROI::Full(45, 37), store->meta(id).object_box,
                               ROI(30, 20, 80, 60), ROI(50, 0, 60, 37),
                               ROI(9, 2, 9, 30), ROI(16, 18, 32, 27)};
      for (int k = 0; k < 6; ++k) {
        const int32_t x0 = static_cast<int32_t>(rng.UniformInt(0, 44));
        const int32_t y0 = static_cast<int32_t>(rng.UniformInt(0, 36));
        rois.emplace_back(x0, y0,
                          static_cast<int32_t>(rng.UniformInt(x0 + 1, 45)),
                          static_cast<int32_t>(rng.UniformInt(y0 + 1, 37)));
      }
      for (const ValueRange& range : testing_util::EdgeValueRanges()) {
        for (const ROI& roi : rois) {
          SCOPED_TRACE("bins " + std::to_string(cfg.num_bins) + " mask " +
                       std::to_string(id) + " roi " + roi.ToString() +
                       " range " + range.ToString());
          const CpCellSplit split = SplitCpCells(chi, roi, range);
          ASSERT_EQ(SplitCount(split, m, range), CountPixels(m, roi, range));
          ExpectWellFormed(split, chi, roi);
          certain_cells += split.certain > 0;
          uncertain_rects += static_cast<int64_t>(split.uncertain.size());
        }
      }
    }
  }
  // Both parts carry weight.
  EXPECT_GT(certain_cells, 100);
  EXPECT_GT(uncertain_rects, 100);
}

// Cells wholly inside a grid-aligned ROI whose pixels avoid the bins that
// straddle lv and uv are all certain; so is a cell partly inside the ROI
// with no pixel in the outer range (value 0), and one whose every pixel is
// in the inner range (value |cell ∩ ROI|). A partial cell with only some
// pixels in range is uncertain, and so is a whole cell with a pixel in a
// straddling bin.
TEST(CellSplitTest, CertaintyRulePerCell) {
  ChiConfig cfg;
  cfg.cell_width = 4;
  cfg.cell_height = 4;
  cfg.num_bins = 4;  // edges 0.25, 0.5, 0.75
  Mask m(12, 8);
  for (int32_t y = 0; y < 8; ++y) {
    for (int32_t x = 0; x < 12; ++x) {
      // Columns 0..3: 0.1 (out of range); 4..7: 0.6 (in range);
      // 8..11: 0.6 with one 0.1 pixel per cell.
      m.set(x, y, x < 4 ? 0.1f : 0.6f);
    }
  }
  m.set(9, 1, 0.1f);
  m.set(10, 6, 0.1f);
  const Chi chi = BuildChi(m, cfg);
  const ValueRange on_edges(0.5, 0.75);

  // Aligned ROI over all cells: nothing straddles, everything certain.
  CpCellSplit split = SplitCpCells(chi, ROI::Full(12, 8), on_edges);
  EXPECT_TRUE(split.uncertain.empty());
  EXPECT_EQ(split.certain, CountPixels(m, on_edges));

  // ROI cutting every cell: columns 0..3 certain (no pixel in the outer
  // range), 4..7 certain (every pixel in the inner range), 8..11 not.
  const ROI cut(1, 1, 11, 7);
  split = SplitCpCells(chi, cut, on_edges);
  EXPECT_EQ(split.certain, int64_t{4} * 6);  // |cells 4..7 ∩ cut| in range
  ASSERT_EQ(split.uncertain.size(), 2u);     // rows 1..4 and 4..7, x 8..11
  EXPECT_EQ(split.uncertain[0].ToString(), ROI(8, 1, 11, 4).ToString());
  EXPECT_EQ(split.uncertain[1].ToString(), ROI(8, 4, 11, 7).ToString());
  EXPECT_EQ(SplitCount(split, m, on_edges), CountPixels(m, cut, on_edges));

  // Off-edge range: whole cells of 0.6 straddle the bin of 0.55, so they
  // are uncertain; the 0.1 cells are still certain (outer count 0).
  const ValueRange off_edges(0.55, 0.75);
  split = SplitCpCells(chi, ROI::Full(12, 8), off_edges);
  EXPECT_EQ(split.certain, 0);
  ASSERT_EQ(split.uncertain.size(), 2u);  // one run of 2 cells per cell row
  EXPECT_EQ(split.uncertain[0].ToString(), ROI(4, 0, 12, 4).ToString());
  EXPECT_EQ(SplitCount(split, m, off_edges), CountPixels(m, off_edges));

  // Empty ROI and empty range: nothing to count.
  split = SplitCpCells(chi, ROI(3, 0, 3, 8), on_edges);
  EXPECT_EQ(split.certain, 0);
  EXPECT_TRUE(split.uncertain.empty());
  split = SplitCpCells(chi, ROI::Full(12, 8), ValueRange(0.6, 0.6));
  EXPECT_EQ(split.certain, 0);
  EXPECT_TRUE(split.uncertain.empty());
}

// CountPixels compares a pixel against float(lv): a pixel equal to
// float(lv) below the 20-bin edge 0.35 < lv = nextafter(0.35, 1) counts,
// so the outer range must reach its bin; and a pixel equal to float(uv)
// below the edge 0.7 < uv never counts, so the inner range must stop
// before its bin. Bounds and the split both hold.
TEST(CellSplitTest, FloatThresholdsBelowAnEdge) {
  ChiConfig cfg;
  cfg.cell_width = 2;
  cfg.cell_height = 2;
  cfg.num_bins = 20;
  Mask m(4, 2);
  for (float& v : m.mutable_data()) v = 0.5f;
  m.set(0, 0, static_cast<float>(0.35));
  m.set(2, 0, static_cast<float>(0.7));
  const Chi chi = BuildChi(m, cfg);
  for (const ValueRange& range :
       {ValueRange(std::nextafter(0.35, 1.0), 0.6),
        ValueRange(0.4, std::nextafter(0.7, 1.0)),
        ValueRange(std::nextafter(0.35, 1.0), std::nextafter(0.7, 1.0))}) {
    SCOPED_TRACE(range.ToString());
    const int64_t exact = CountPixels(m, range);
    const CpBounds b = ComputeCpBounds(chi, ROI::Full(4, 2), range);
    EXPECT_LE(b.lower, exact);
    EXPECT_GE(b.upper, exact);
    EXPECT_EQ(SplitCount(SplitCpCells(chi, ROI::Full(4, 2), range), m, range),
              exact);
  }
}

}  // namespace
}  // namespace masksearch
