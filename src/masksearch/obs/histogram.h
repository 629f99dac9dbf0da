// LogHistogram: the one latency-distribution type of the observability
// layer (docs/OBSERVABILITY.md). Fixed log-spaced buckets (growth factor
// 2^(1/8), ~9% worst-case relative error on percentiles) over the range
// [1ns, ~4.5h), with exact streamed count / sum / min / max. Unlike a
// sampling reservoir, two histograms merge exactly — the property that lets
// ServiceStats compute its all-classes percentiles from the per-class
// populations instead of double-recording, and lets the metrics registry
// merge the histograms several components emit under one name at scrape
// time.
//
// Not thread-safe: the owning component keeps its histograms under its own
// lock (ServiceStatsRecorder, Compactor) and copies them out when its
// metrics collector runs.

#ifndef MASKSEARCH_OBS_HISTOGRAM_H_
#define MASKSEARCH_OBS_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace masksearch {
namespace obs {

class LogHistogram {
 public:
  /// Buckets per power of two: growth factor 2^(1/8) ≈ 1.0905, so any
  /// percentile interpolated within a bucket is within ~9.1% (relative) of
  /// the exact order statistic.
  static constexpr int kBucketsPerOctave = 8;
  /// Smallest/largest representable exponents: bucket 0 holds everything
  /// below 2^-30 s (≈ 0.93 ns) including zeros and negatives; the last
  /// bucket everything at or above 2^14 s (≈ 4.5 h).
  static constexpr int kMinOctave = -30;
  static constexpr int kMaxOctave = 14;
  static constexpr size_t kNumBuckets =
      static_cast<size_t>((kMaxOctave - kMinOctave) * kBucketsPerOctave);

  /// \brief Records one observation (seconds, typically). Any double is
  /// accepted; non-positive values land in the lowest bucket but still
  /// update the exact min/sum.
  void Record(double v);

  /// \brief Exact merge: after `Merge(b)`, this histogram summarizes the
  /// union of both populations.
  void Merge(const LogHistogram& other);

  void Reset();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// \brief Estimated q-quantile (q in [0,1]). Geometric interpolation
  /// within the containing bucket, clamped to the exact [min, max] — so an
  /// empty histogram returns 0, a single observation returns it exactly,
  /// and no estimate can leave the observed range.
  double Percentile(double q) const;

  /// \brief Visits non-empty buckets in value order:
  /// fn(lower_bound, upper_bound, bucket_count).
  template <typename Fn>
  void VisitBuckets(Fn fn) const {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets_[i] != 0) fn(BucketLower(i), BucketUpper(i), buckets_[i]);
    }
  }

  /// \brief Lower/upper value bound of bucket `i`.
  static double BucketLower(size_t i);
  static double BucketUpper(size_t i) { return BucketLower(i + 1); }
  /// \brief Bucket index a value lands in.
  static size_t BucketIndex(double v);

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace obs
}  // namespace masksearch

#endif  // MASKSEARCH_OBS_HISTOGRAM_H_
