// CP terms and arithmetic expressions over them (§2.1, §3.3).
//
// A query references a table of CpTerm parameters (ROI source + value
// range); expressions combine term values with +, −, ×, ÷ and constants —
// e.g. Example 1's ratio CP(mask, roi, ..)/CP(mask, -, ..). During the
// filter stage expressions are evaluated over *intervals* (the CHI bounds of
// each term); during verification they are evaluated over exact values.

#ifndef MASKSEARCH_QUERY_EXPRESSION_H_
#define MASKSEARCH_QUERY_EXPRESSION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "masksearch/index/bounds.h"
#include "masksearch/query/roi.h"
#include "masksearch/storage/mask.h"

namespace masksearch {

/// \brief How a CP term's ROI is determined per mask (§2.1: ROIs are
/// "constant for all masks or different for each mask").
enum class RoiSource : uint8_t {
  kConstant = 0,   ///< user-supplied box, same for all masks
  kFullMask = 1,   ///< the paper's `CP(mask, -, ...)`
  kObjectBox = 2,  ///< per-mask foreground-object box (Table 1: roi = object)
};

/// \brief Parameters of one CP(mask, roi, (lv, uv)) occurrence.
struct CpTerm {
  RoiSource roi_source = RoiSource::kConstant;
  ROI constant_roi;  ///< used when roi_source == kConstant
  ValueRange range;

  std::string ToString() const;
};

/// \brief Resolves the concrete pixel box of a term for a given mask.
ROI ResolveRoi(const CpTerm& term, const MaskMeta& meta);

/// \brief Closed real interval used for bound propagation.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  static Interval Point(double v) { return {v, v}; }
  static Interval FromBounds(const CpBounds& b) {
    return {static_cast<double>(b.lower), static_cast<double>(b.upper)};
  }
  bool Tight() const { return lo == hi; }
  std::string ToString() const;
};

Interval operator+(const Interval& a, const Interval& b);
Interval operator-(const Interval& a, const Interval& b);
/// Product; (-inf, +inf) when an endpoint product is 0 × ±inf, because the
/// unbounded factor's exact value may be ±inf or NaN. Never a NaN bound.
Interval operator*(const Interval& a, const Interval& b);
/// Division; if b straddles or touches 0 the result is (-inf, +inf) — the
/// executor then treats the mask as "uncertain", preserving correctness.
Interval operator/(const Interval& a, const Interval& b);

/// \brief Expression DAG over CP terms and constants.
///
/// Nodes are stored in a flat vector; the last node is the root. Expressions
/// are cheap to copy and compose.
class CpExpr {
 public:
  enum class Kind : uint8_t { kTerm, kConst, kAdd, kSub, kMul, kDiv };

  /// \brief Leaf referencing terms[term_index] of the enclosing query.
  static CpExpr Term(int32_t term_index);
  static CpExpr Constant(double value);

  friend CpExpr operator+(const CpExpr& a, const CpExpr& b);
  friend CpExpr operator-(const CpExpr& a, const CpExpr& b);
  friend CpExpr operator*(const CpExpr& a, const CpExpr& b);
  friend CpExpr operator/(const CpExpr& a, const CpExpr& b);

  bool Empty() const { return nodes_.empty(); }

  /// \brief Exact evaluation given exact term values.
  double EvalExact(const std::vector<double>& term_values) const;

  /// \brief Interval evaluation given per-term bounds.
  Interval EvalBounds(const std::vector<Interval>& term_bounds) const;

  /// \brief True if the expression is exactly one term leaf (enables the
  /// single-CP fast path in executors).
  bool IsSingleTerm() const;
  /// \brief The term index when IsSingleTerm().
  int32_t single_term_index() const { return nodes_[0].term_index; }

  /// \brief Largest referenced term index, or -1 if none.
  int32_t MaxTermIndex() const;

  std::string ToString() const;

 private:
  struct Node {
    Kind kind;
    int32_t term_index = -1;  ///< kTerm
    double constant = 0.0;    ///< kConst
    int32_t lhs = -1;         ///< operator operands (node indices)
    int32_t rhs = -1;
  };

  static CpExpr Binary(Kind kind, const CpExpr& a, const CpExpr& b);

  std::vector<Node> nodes_;
};

}  // namespace masksearch

#endif  // MASKSEARCH_QUERY_EXPRESSION_H_
