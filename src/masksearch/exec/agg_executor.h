// Scalar aggregation over CP values with GROUP BY (§3.4, Q4).
//
// Group-level bounds are intervals combined from member bounds (SUM/AVG are
// monotone in each CP, MIN/MAX are lattice operations), so whole groups are
// pruned or accepted without loading any member mask. Only members of
// surviving groups whose bounds are not tight are loaded — which is why Q4
// loads fewer masks than Q1–Q3 in Table 2 despite targeting twice as many.

#ifndef MASKSEARCH_EXEC_AGG_EXECUTOR_H_
#define MASKSEARCH_EXEC_AGG_EXECUTOR_H_

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Executes SCALAR_AGG(CP(...)) GROUP BY ... [HAVING | ORDER BY
/// LIMIT].
///
/// Runs on the group driver shared with ExecuteMaskAgg (group_driver.h).
/// Member bounds come from `chis`, the session's CHI source (null = no
/// index).
/// Each undecidable group is one load unit of the verification pipeline
/// (verify_pipeline.h): its members whose bounds are not tight, read with
/// one MaskStore::LoadMaskBatch. Batches of EngineOptions::verify_batch
/// groups (auto: 2 × pool threads, or 1 without a pool) are verified across
/// opts.pool, with the next batch's loads in flight on opts.io_pool, and
/// QueryControl is polled between batches. Results are byte-identical to
/// the serial schedule; a batched top-k may verify a few groups the serial
/// schedule prunes, never different values.
///
/// Stats units: masks_targeted / masks_loaded count masks; pruned /
/// accepted_by_bounds / candidates count groups.
///
/// HAVING-only queries may return groups accepted purely from bounds; such
/// groups carry value = NaN unless their bounds were tight (the paper's
/// Case-2 masks are returned without being loaded, §3.2.1).
Result<AggResult> ExecuteAggregation(const MaskStore& store,
                                     ChiSource* chis,
                                     const AggregationQuery& query,
                                     const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_AGG_EXECUTOR_H_
