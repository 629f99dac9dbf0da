// Top-k execution (§3.5): intertwined filter and verification maintaining
// the running top-k set R. A mask is pruned when its bound proves it cannot
// beat the current k-th result (Eq. 15); otherwise its exact value is
// obtained — from its bounds when they are tight, else by loading the mask.
// Masks are decided in bound order, in batches that load and verify through
// the verification pipeline (verify_pipeline.h), one load unit per mask.
//
// Determinism: results are totally ordered by MaskRanksBefore (value, NaN
// last, tie-break mask_id ascending); pruning respects the same order and
// a batch is pruned against the heap as of its formation, so the returned
// set equals the brute-force top-k exactly under every schedule.

#ifndef MASKSEARCH_EXEC_TOPK_EXECUTOR_H_
#define MASKSEARCH_EXEC_TOPK_EXECUTOR_H_

#include "masksearch/exec/options.h"
#include "masksearch/exec/query_spec.h"
#include "masksearch/index/index_manager.h"

namespace masksearch {

/// \brief Executes a top-k query over masks. `chis` as for ExecuteFilter.
Result<TopKResult> ExecuteTopK(const MaskStore& store, ChiSource* chis,
                               const TopKQuery& query,
                               const EngineOptions& opts = {});

}  // namespace masksearch

#endif  // MASKSEARCH_EXEC_TOPK_EXECUTOR_H_
