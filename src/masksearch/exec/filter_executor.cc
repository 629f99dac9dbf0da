#include "masksearch/exec/filter_executor.h"

#include <algorithm>
#include <memory>

#include "masksearch/common/stopwatch.h"
#include "masksearch/exec/evaluator.h"
#include "masksearch/exec/verify_pipeline.h"
#include "masksearch/obs/trace.h"

namespace masksearch {

namespace {

enum class Outcome : uint8_t { kPruned, kAccepted, kVerifiedPass, kVerifiedFail };

/// Classifies mask i from its CHI bounds alone (no I/O). Returns kPruned /
/// kAccepted when the predicate is decided, kVerifiedFail as the "must
/// verify" placeholder otherwise.
Outcome ClassifyFromBounds(const MaskStore& store, const ChiSource* chis,
                           const FilterQuery& query, MaskId id) {
  if (chis != nullptr) {
    if (const std::shared_ptr<const Chi> chi = chis->Find(id)) {
      const std::vector<Interval> bounds =
          internal::TermBoundsFromChi(*chi, store.meta(id), query.terms);
      switch (query.predicate.EvalBounds(bounds)) {
        case Tri::kFalse:
          return Outcome::kPruned;  // Case 1
        case Tri::kTrue:
          return Outcome::kAccepted;  // Case 2
        case Tri::kUnknown:
          break;  // Case 3: verify below
      }
    }
  }
  return Outcome::kVerifiedFail;  // placeholder: needs verification
}

}  // namespace

Result<FilterResult> ExecuteFilter(const MaskStore& store, ChiSource* chis,
                                   const FilterQuery& query,
                                   const EngineOptions& opts) {
  if (query.predicate.Empty()) {
    return Status::InvalidArgument("filter query has no predicate");
  }
  const int32_t max_term = query.predicate.MaxTermIndex();
  if (max_term >= static_cast<int32_t>(query.terms.size())) {
    return Status::InvalidArgument(
        "predicate references CP term " + std::to_string(max_term) +
        " but query defines only " + std::to_string(query.terms.size()));
  }

  MS_RETURN_NOT_OK(CheckControl(opts.control));

  Stopwatch timer;
  const std::vector<MaskId> ids = ResolveSelection(store, query.selection);

  // Filter stage: classify every mask from its bounds (pure compute).
  std::vector<Outcome> outcomes(ids.size(), Outcome::kPruned);
  {
    MS_TRACE_SPAN("filter_classify");
    ParallelFor(opts.pool, ids.size(), [&](size_t i) {
      outcomes[i] = ClassifyFromBounds(store, chis, query, ids[i]);
    });
  }
  std::vector<size_t> verify_idx;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (outcomes[i] == Outcome::kVerifiedFail) verify_idx.push_back(i);
  }

  // Verification stage: the undecided masks in fixed slices, each slice
  // evaluated across the pool. With io_pool a slice loads as one contiguous
  // unit per io_pool thread (at most one per mask), each its own io_pool
  // task, so that many reads are in flight; without io_pool as one unit.
  // Each mask loads and is decided by its plan (evaluator.h).
  const size_t batch =
      opts.verify_batch > 0
          ? opts.verify_batch
          : std::max<size_t>(
                64, opts.pool != nullptr ? opts.pool->num_threads() * 4 : 0);
  const size_t max_units =
      opts.io_pool != nullptr ? std::max<size_t>(1, opts.io_pool->num_threads())
                              : 1;
  FilterResult result;
  size_t next = 0;
  auto next_batch = [&] {
    internal::VerifyBatch b;
    const size_t take = std::min(batch, verify_idx.size() - next);
    if (take == 0) return b;
    b.items.assign(verify_idx.begin() + next, verify_idx.begin() + next + take);
    next += take;
    const size_t units = std::min(take, max_units);
    for (size_t u = 0; u < units; ++u) {
      internal::LoadUnit& unit = b.units.emplace_back();
      for (size_t j = take * u / units; j < take * (u + 1) / units; ++j) {
        internal::PlanVerifyLoad(store, chis, ids[b.items[j]], query.terms,
                                 &b.plans, &unit);
        b.plans.EndPlan();
      }
    }
    return b;
  };
  auto verify = [&](const internal::VerifyBatch& b,
                    const std::vector<std::vector<Mask>>& masks) {
    const std::vector<const Mask*> rows = internal::PlanRows(masks, b.plans);
    ParallelFor(b.items.size() > 1 ? opts.pool : nullptr, b.items.size(),
                [&](size_t j) {
                  outcomes[b.items[j]] =
                      query.predicate.EvalExact(internal::TermExactFromPlan(
                          b.plans, j, rows[j], query.terms))
                          ? Outcome::kVerifiedPass
                          : Outcome::kVerifiedFail;
                });
    return Status::OK();
  };
  MS_RETURN_NOT_OK(internal::RunVerifyPipeline(
      store, chis, opts, "filter_verify", next_batch, verify, &result.stats));

  result.stats.masks_targeted = static_cast<int64_t>(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    switch (outcomes[i]) {
      case Outcome::kPruned:
        ++result.stats.pruned;
        break;
      case Outcome::kAccepted:
        ++result.stats.accepted_by_bounds;
        result.mask_ids.push_back(ids[i]);
        break;
      case Outcome::kVerifiedPass:
        ++result.stats.candidates;
        result.mask_ids.push_back(ids[i]);
        break;
      case Outcome::kVerifiedFail:
        ++result.stats.candidates;
        break;
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace masksearch
