#include "masksearch/query/expression.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace masksearch {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The interval spanned by an operation's four endpoint combinations. A NaN
/// among them (0 × ±inf, ±inf / ±inf) makes the result unbounded, never a
/// NaN bound: an infinite endpoint comes from dividing by an interval that
/// touches 0, whose exact quotient may be ±inf or NaN. (Taking 0 × ±inf as
/// 0 would pin [0, 0] × (-inf, +inf) to [0, 0], though 0 × (x / 0) is NaN.)
Interval Hull(const std::array<double, 4>& c) {
  if (std::any_of(c.begin(), c.end(), [](double v) { return std::isnan(v); })) {
    return {-kInf, kInf};
  }
  return {*std::min_element(c.begin(), c.end()),
          *std::max_element(c.begin(), c.end())};
}
}  // namespace

std::string CpTerm::ToString() const {
  std::string roi;
  switch (roi_source) {
    case RoiSource::kConstant:
      roi = constant_roi.ToString();
      break;
    case RoiSource::kFullMask:
      roi = "-";
      break;
    case RoiSource::kObjectBox:
      roi = "object";
      break;
  }
  return "CP(mask, " + roi + ", " + range.ToString() + ")";
}

ROI ResolveRoi(const CpTerm& term, const MaskMeta& meta) {
  switch (term.roi_source) {
    case RoiSource::kConstant:
      return term.constant_roi;
    case RoiSource::kFullMask:
      return ROI::Full(meta.width, meta.height);
    case RoiSource::kObjectBox:
      return meta.object_box;
  }
  return ROI();
}

std::string Interval::ToString() const {
  return "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
}

Interval operator+(const Interval& a, const Interval& b) {
  return {a.lo + b.lo, a.hi + b.hi};
}
Interval operator-(const Interval& a, const Interval& b) {
  return {a.lo - b.hi, a.hi - b.lo};
}
Interval operator*(const Interval& a, const Interval& b) {
  return Hull({a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi});
}
Interval operator/(const Interval& a, const Interval& b) {
  if (b.lo <= 0.0 && b.hi >= 0.0) {
    return {-kInf, kInf};
  }
  return Hull({a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi});
}

CpExpr CpExpr::Term(int32_t term_index) {
  CpExpr e;
  Node n;
  n.kind = Kind::kTerm;
  n.term_index = term_index;
  e.nodes_.push_back(n);
  return e;
}

CpExpr CpExpr::Constant(double value) {
  CpExpr e;
  Node n;
  n.kind = Kind::kConst;
  n.constant = value;
  e.nodes_.push_back(n);
  return e;
}

CpExpr CpExpr::Binary(Kind kind, const CpExpr& a, const CpExpr& b) {
  CpExpr e;
  e.nodes_ = a.nodes_;
  const int32_t offset = static_cast<int32_t>(e.nodes_.size());
  for (Node n : b.nodes_) {
    if (n.lhs >= 0) n.lhs += offset;
    if (n.rhs >= 0) n.rhs += offset;
    e.nodes_.push_back(n);
  }
  Node op;
  op.kind = kind;
  op.lhs = offset - 1;  // root of a
  op.rhs = static_cast<int32_t>(e.nodes_.size()) - 1;  // root of b
  e.nodes_.push_back(op);
  return e;
}

CpExpr operator+(const CpExpr& a, const CpExpr& b) {
  return CpExpr::Binary(CpExpr::Kind::kAdd, a, b);
}
CpExpr operator-(const CpExpr& a, const CpExpr& b) {
  return CpExpr::Binary(CpExpr::Kind::kSub, a, b);
}
CpExpr operator*(const CpExpr& a, const CpExpr& b) {
  return CpExpr::Binary(CpExpr::Kind::kMul, a, b);
}
CpExpr operator/(const CpExpr& a, const CpExpr& b) {
  return CpExpr::Binary(CpExpr::Kind::kDiv, a, b);
}

double CpExpr::EvalExact(const std::vector<double>& term_values) const {
  std::vector<double> vals(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case Kind::kTerm:
        vals[i] = term_values[n.term_index];
        break;
      case Kind::kConst:
        vals[i] = n.constant;
        break;
      case Kind::kAdd:
        vals[i] = vals[n.lhs] + vals[n.rhs];
        break;
      case Kind::kSub:
        vals[i] = vals[n.lhs] - vals[n.rhs];
        break;
      case Kind::kMul:
        vals[i] = vals[n.lhs] * vals[n.rhs];
        break;
      case Kind::kDiv:
        vals[i] = vals[n.lhs] / vals[n.rhs];
        break;
    }
  }
  return vals.back();
}

Interval CpExpr::EvalBounds(const std::vector<Interval>& term_bounds) const {
  std::vector<Interval> vals(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case Kind::kTerm:
        vals[i] = term_bounds[n.term_index];
        break;
      case Kind::kConst:
        vals[i] = Interval::Point(n.constant);
        break;
      case Kind::kAdd:
        vals[i] = vals[n.lhs] + vals[n.rhs];
        break;
      case Kind::kSub:
        vals[i] = vals[n.lhs] - vals[n.rhs];
        break;
      case Kind::kMul:
        vals[i] = vals[n.lhs] * vals[n.rhs];
        break;
      case Kind::kDiv:
        vals[i] = vals[n.lhs] / vals[n.rhs];
        break;
    }
  }
  return vals.back();
}

bool CpExpr::IsSingleTerm() const {
  return nodes_.size() == 1 && nodes_[0].kind == Kind::kTerm;
}

int32_t CpExpr::MaxTermIndex() const {
  int32_t m = -1;
  for (const Node& n : nodes_) {
    if (n.kind == Kind::kTerm) m = std::max(m, n.term_index);
  }
  return m;
}

std::string CpExpr::ToString() const {
  if (nodes_.empty()) return "<empty>";
  std::vector<std::string> parts(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case Kind::kTerm:
        parts[i] = "CP#" + std::to_string(n.term_index);
        break;
      case Kind::kConst:
        parts[i] = std::to_string(n.constant);
        break;
      case Kind::kAdd:
        parts[i] = "(" + parts[n.lhs] + " + " + parts[n.rhs] + ")";
        break;
      case Kind::kSub:
        parts[i] = "(" + parts[n.lhs] + " - " + parts[n.rhs] + ")";
        break;
      case Kind::kMul:
        parts[i] = "(" + parts[n.lhs] + " * " + parts[n.rhs] + ")";
        break;
      case Kind::kDiv:
        parts[i] = "(" + parts[n.lhs] + " / " + parts[n.rhs] + ")";
        break;
    }
  }
  return parts.back();
}

}  // namespace masksearch
