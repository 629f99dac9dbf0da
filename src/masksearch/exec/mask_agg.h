// Mask aggregation execution (§3.4, Q5): CP over MASK_AGG(mask) GROUP BY.
//
// Derived masks (e.g. the thresholded intersection of a group's masks) get
// their own CHIs, built incrementally the first time a group is verified and
// cached for future queries — the paper's "index for the aggregated masks is
// either built ahead of time or incrementally built". For monotone
// aggregations (thresholded INTERSECT / UNION) the executor additionally
// derives bounds from the *individual* masks' CHIs, the extension the paper
// proposes at the end of §3.4, so unindexed groups can still be pruned.

#ifndef MASKSEARCH_EXEC_MASK_AGG_H_
#define MASKSEARCH_EXEC_MASK_AGG_H_

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "masksearch/cache/chi_cache.h"
#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Computes the derived mask of a group. All inputs must share one
/// shape. Exposed for tests and for ahead-of-time derived-index builds.
Result<Mask> ComputeDerivedMask(MaskAggOp op, double threshold,
                                const std::vector<Mask>& masks);

/// \brief Cache of CHIs for derived masks. One cache holds one (MaskAggOp,
/// threshold) template; entries are keyed by the group's exact member ids,
/// which is all a derived mask depends on. A CHI is reused by any later
/// query whose group has exactly those members, whatever its selection or
/// GROUP BY key, and never by a group whose members differ. The Session
/// keeps caches across queries to amortize builds.
///
/// The entries live in a ChiCache (CacheSpace::kDerivedChi) in `pool`,
/// under its byte budget (docs/CACHING.md); without a pool, in a private
/// pool with no byte limit, so nothing is evicted. Get returns shared
/// ownership, so a CHI remains valid for the caller even if it is evicted
/// mid-use. First Put wins (builds are deterministic, the race is benign).
class DerivedIndexCache {
 public:
  explicit DerivedIndexCache(ChiConfig config,
                             std::shared_ptr<BufferPool> pool = nullptr)
      : chis_(std::move(pool), config, CacheSpace::kDerivedChi) {}

  const ChiConfig& config() const { return chis_.config(); }
  /// \brief The derived CHI of the group of `members` (ascending ids).
  std::shared_ptr<const Chi> Get(const std::vector<MaskId>& members) const {
    return chis_.Get(Slot(members));
  }
  void Put(const std::vector<MaskId>& members, Chi chi) {
    chis_.Put(Slot(members), std::move(chi));
  }
  size_t size() const { return chis_.size(); }

 private:
  /// The entry key of a member set: numbered on first sight, never reused.
  int64_t Slot(const std::vector<MaskId>& members) const;

  ChiCache chis_;
  mutable std::mutex mu_;
  mutable std::map<std::vector<MaskId>, int64_t> slots_;
};

/// \brief Ahead-of-time derived-index construction (§3.4: "the index for
/// the aggregated masks is either built ahead of time or incrementally
/// built"). Materializes the derived mask of every group in `selection` and
/// registers its CHI in `cache`. Loads each member mask once (through the
/// store's accounting/throttle).
Status BuildDerivedIndexes(const MaskStore& store, const Selection& selection,
                           MaskAggOp op, double threshold, GroupKey group_key,
                           DerivedIndexCache* cache);

/// \brief Executes CP(MASK_AGG(mask), roi, (lv, uv)) GROUP BY ... [HAVING |
/// ORDER BY LIMIT].
///
/// `derived_cache` may be null (every undecidable group is then verified by
/// loading its members). `chis`, the session's CHI source (null = no
/// index), supplies individual-mask CHIs for the monotone-aggregation
/// bounds.
///
/// Runs on the group driver shared with ExecuteAggregation (group_driver.h):
/// undecidable groups are verified across opts.pool in batches through the
/// verification pipeline, each group's members loaded as one unit; with
/// EngineOptions::io_pool the next batch's loads are in flight while one
/// batch is verified. Results are byte-identical to the serial schedule; a
/// pipelined top-k may verify a few extra groups (candidates up, pruned
/// down by the same amount) — never fewer, and never different values.
/// When only the count is needed (derived CHI cached when the group's unit
/// is formed, or no cache supplied), the fused derived-CP kernel answers
/// without materializing the derived mask, and on a store that reads row
/// windows the unit reads only the members' ROI rows. Such a unit never
/// builds a derived CHI, even if the cached one is evicted meanwhile.
Result<AggResult> ExecuteMaskAgg(const MaskStore& store, ChiSource* chis,
                                 DerivedIndexCache* derived_cache,
                                 const MaskAggQuery& query,
                                 const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_MASK_AGG_H_
