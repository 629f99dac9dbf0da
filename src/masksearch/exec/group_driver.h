// The group driver of the aggregation executors (§3.4–3.5): scalar
// aggregation (Q4) and mask aggregation (Q5) bound each group's aggregate
// from CHIs, then prune, accept, or verify whole groups — HAVING by the
// three-case test, ORDER BY ... LIMIT k against a running top-k threshold.
// The driver owns that method and the verification pipeline call; an
// executor supplies only what differs (GroupOps). Internal; not part of the
// public API.

#ifndef MASKSEARCH_EXEC_GROUP_DRIVER_H_
#define MASKSEARCH_EXEC_GROUP_DRIVER_H_

#include <functional>
#include <vector>

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/index/chi_source.h"

namespace masksearch {
namespace internal {

/// \brief One GROUP BY group: its key value and its members, ascending.
struct AggGroup {
  int64_t key = 0;
  std::vector<MaskId> members;
};

/// \brief The groups of the selected masks, in ascending key order.
std::vector<AggGroup> ResolveGroups(const MaskStore& store,
                                    const Selection& selection, GroupKey key);

/// \brief An executor's part. `i` is a group's position in the group list.
struct GroupOps {
  /// Bound interval on each group's aggregate from CHIs (no I/O); (-inf,
  /// +inf) where nothing is known. Called once, before any load.
  std::function<std::vector<Interval>(const std::vector<AggGroup>& groups)>
      bounds;
  /// The masks loaded to verify group i, with the rows read of each (or
  /// none: whole masks): one pipeline load unit, read as given.
  std::function<LoadUnit(size_t i, const AggGroup& group)> unit;
  /// Group i's exact aggregate from its unit's masks, in unit order; mask j
  /// holds the rows unit.windows[j]. Runs concurrently for distinct groups
  /// across EngineOptions::pool.
  std::function<Result<double>(size_t i, const AggGroup& group,
                               const LoadUnit& unit,
                               const std::vector<Mask>& masks)>
      exact;
};

/// \brief Runs `q`, an AggregationQuery or a MaskAggQuery.
///
/// HAVING-only queries classify every group from its bounds, verify the
/// undecidable ones in fixed slices, and emit groups in key order; a group
/// accepted by non-tight bounds carries value NaN. Top-k queries walk the
/// groups in bound order (sort_by_bound), forming each batch against the
/// running heap and folding groups with finite tight bounds unloaded.
/// Batches hold EngineOptions::verify_batch groups, else 2 × pool threads,
/// else 1 (the serial schedule). Results are byte-identical under every
/// schedule; a larger top-k batch may verify groups the serial schedule
/// prunes, because it is formed against the heap as of its formation.
template <typename Query>
Result<AggResult> RunGroupAggregation(const MaskStore& store,
                                      ChiSource* chis,
                                      const EngineOptions& opts,
                                      const Query& q, const GroupOps& ops);

}  // namespace internal
}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_GROUP_DRIVER_H_
