// Unit tests for CP expressions and interval arithmetic (§3.3).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "masksearch/common/random.h"
#include "masksearch/query/expression.h"

namespace masksearch {
namespace {

TEST(IntervalTest, Addition) {
  const Interval r = Interval{1, 2} + Interval{10, 20};
  EXPECT_DOUBLE_EQ(r.lo, 11);
  EXPECT_DOUBLE_EQ(r.hi, 22);
}

TEST(IntervalTest, Subtraction) {
  const Interval r = Interval{1, 2} - Interval{10, 20};
  EXPECT_DOUBLE_EQ(r.lo, -19);
  EXPECT_DOUBLE_EQ(r.hi, -8);
}

TEST(IntervalTest, MultiplicationSignCombos) {
  const Interval r = Interval{-2, 3} * Interval{-5, 4};
  EXPECT_DOUBLE_EQ(r.lo, -15);  // 3 * -5
  EXPECT_DOUBLE_EQ(r.hi, 12);   // 3 * 4
}

TEST(IntervalTest, DivisionPositiveDenominator) {
  const Interval r = Interval{2, 6} / Interval{1, 2};
  EXPECT_DOUBLE_EQ(r.lo, 1);
  EXPECT_DOUBLE_EQ(r.hi, 6);
}

TEST(IntervalTest, DivisionStraddlingZeroIsUnbounded) {
  const Interval r = Interval{1, 2} / Interval{-1, 1};
  EXPECT_TRUE(std::isinf(r.lo));
  EXPECT_TRUE(std::isinf(r.hi));
  const Interval rz = Interval{1, 2} / Interval{0, 3};
  EXPECT_TRUE(std::isinf(rz.lo) || std::isinf(rz.hi));
}

// 0 × ±inf makes a product unbounded, never NaN and never [0, 0]: the
// unbounded factor is a quotient whose exact value may be ±inf or NaN.
TEST(IntervalTest, ZeroTimesUnboundedIsUnbounded) {
  const double inf = std::numeric_limits<double>::infinity();
  const Interval unbounded = Interval{1, 2} / Interval{0, 3};
  for (const Interval& zero : {Interval{0, 0}, Interval{0, 5}}) {
    for (const Interval& r : {zero * unbounded, unbounded * zero,
                              zero * Interval{-inf, inf}}) {
      EXPECT_EQ(r.lo, -inf);
      EXPECT_EQ(r.hi, inf);
    }
  }
  const Interval half = Interval{2, 3} * Interval{5, inf};
  EXPECT_DOUBLE_EQ(half.lo, 10);
  EXPECT_EQ(half.hi, inf);
}

TEST(IntervalTest, FromBoundsAndTight) {
  const Interval i = Interval::FromBounds(CpBounds{3, 3});
  EXPECT_TRUE(i.Tight());
  EXPECT_FALSE((Interval{1, 2}).Tight());
}

TEST(CpExprTest, SingleTerm) {
  const CpExpr e = CpExpr::Term(0);
  EXPECT_TRUE(e.IsSingleTerm());
  EXPECT_EQ(e.single_term_index(), 0);
  EXPECT_EQ(e.MaxTermIndex(), 0);
  EXPECT_DOUBLE_EQ(e.EvalExact({42.0}), 42.0);
  const Interval b = e.EvalBounds({Interval{1, 5}});
  EXPECT_DOUBLE_EQ(b.lo, 1);
  EXPECT_DOUBLE_EQ(b.hi, 5);
}

TEST(CpExprTest, Constant) {
  const CpExpr e = CpExpr::Constant(2.5);
  EXPECT_FALSE(e.IsSingleTerm());
  EXPECT_EQ(e.MaxTermIndex(), -1);
  EXPECT_DOUBLE_EQ(e.EvalExact({}), 2.5);
  EXPECT_TRUE(e.EvalBounds({}).Tight());
}

TEST(CpExprTest, RatioExpression) {
  // Example 1: CP(mask, roi, ..) / CP(mask, -, ..).
  const CpExpr e = CpExpr::Term(0) / CpExpr::Term(1);
  EXPECT_FALSE(e.IsSingleTerm());
  EXPECT_EQ(e.MaxTermIndex(), 1);
  EXPECT_DOUBLE_EQ(e.EvalExact({30.0, 120.0}), 0.25);
  const Interval b = e.EvalBounds({Interval{10, 20}, Interval{100, 200}});
  EXPECT_DOUBLE_EQ(b.lo, 0.05);
  EXPECT_DOUBLE_EQ(b.hi, 0.2);
}

TEST(CpExprTest, CompositeArithmetic) {
  // 2 * t0 + t1 - 3
  const CpExpr e = CpExpr::Constant(2.0) * CpExpr::Term(0) + CpExpr::Term(1) -
                   CpExpr::Constant(3.0);
  EXPECT_DOUBLE_EQ(e.EvalExact({5.0, 7.0}), 14.0);
  const Interval b = e.EvalBounds({Interval{0, 1}, Interval{10, 20}});
  EXPECT_DOUBLE_EQ(b.lo, 7);
  EXPECT_DOUBLE_EQ(b.hi, 19);
}

TEST(CpExprTest, BoundsContainExactForRandomExpressions) {
  // Interval soundness: the exact value of any expression lies inside the
  // interval computed from per-term intervals containing the exact values.
  Rng rng = Rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const double v0 = rng.Uniform(0, 100);
    const double v1 = rng.Uniform(1, 100);  // keep denominators positive
    const double v2 = rng.Uniform(0, 100);
    const Interval i0{v0 - rng.Uniform(0, 5), v0 + rng.Uniform(0, 5)};
    const Interval i1{std::max(0.5, v1 - rng.Uniform(0, 5)),
                      v1 + rng.Uniform(0, 5)};
    const Interval i2{v2 - rng.Uniform(0, 5), v2 + rng.Uniform(0, 5)};
    const CpExpr e = (CpExpr::Term(0) + CpExpr::Term(2)) / CpExpr::Term(1) -
                     CpExpr::Term(2) * CpExpr::Constant(0.5);
    const double exact = e.EvalExact({v0, v1, v2});
    const Interval b = e.EvalBounds({i0, i1, i2});
    ASSERT_LE(b.lo, exact + 1e-9);
    ASSERT_GE(b.hi, exact - 1e-9);
  }
}

TEST(CpExprTest, ToStringReadable) {
  const CpExpr e = CpExpr::Term(0) / CpExpr::Term(1);
  EXPECT_EQ(e.ToString(), "(CP#0 / CP#1)");
}

TEST(CpTermTest, ResolveRoiVariants) {
  MaskMeta meta;
  meta.width = 100;
  meta.height = 80;
  meta.object_box = ROI(10, 10, 50, 40);

  CpTerm constant;
  constant.roi_source = RoiSource::kConstant;
  constant.constant_roi = ROI(0, 0, 5, 5);
  EXPECT_EQ(ResolveRoi(constant, meta), ROI(0, 0, 5, 5));

  CpTerm full;
  full.roi_source = RoiSource::kFullMask;
  EXPECT_EQ(ResolveRoi(full, meta), ROI(0, 0, 100, 80));

  CpTerm object;
  object.roi_source = RoiSource::kObjectBox;
  EXPECT_EQ(ResolveRoi(object, meta), ROI(10, 10, 50, 40));
}

TEST(CpTermTest, ToStringShowsRoiKind) {
  CpTerm t;
  t.roi_source = RoiSource::kObjectBox;
  t.range = ValueRange(0.8, 1.0);
  EXPECT_NE(t.ToString().find("object"), std::string::npos);
}

}  // namespace
}  // namespace masksearch
