// Filter–verification execution of filter queries (§3.2).
//
// Filter stage: for each targeted mask, compute CP-term bounds from its CHI
// and evaluate the predicate under three-valued logic — prune certain
// failures, accept certain satisfactions, queue the rest. Verification
// stage: load the queued masks and apply the exact predicate. The result is
// exactly the set of masks satisfying the predicate (correctness guarantee
// of §3.2).
//
// The undecided masks go through the shared verification pipeline
// (verify_pipeline.h) in batches of EngineOptions::verify_batch: each batch
// is one MaskStore::LoadMaskBatch (offset-sorted, coalesced, shard-parallel
// reads) evaluated across the pool; with EngineOptions::io_pool set, the
// next batch's reads are in flight while the current one is evaluated.
// Results and per-mask stats do not depend on the batch size or the pools.

#ifndef MASKSEARCH_EXEC_FILTER_EXECUTOR_H_
#define MASKSEARCH_EXEC_FILTER_EXECUTOR_H_

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Executes a filter query. `chis` is the session's CHI source
/// (an IndexManager converts implicitly); null means no index. Masks
/// without a CHI fall back to load-and-scan and have their CHI retained,
/// which is also how MS-II handles not-yet-indexed masks (§3.6).
Result<FilterResult> ExecuteFilter(const MaskStore& store, ChiSource* chis,
                                   const FilterQuery& query,
                                   const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_FILTER_EXECUTOR_H_
