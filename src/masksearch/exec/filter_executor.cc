#include "masksearch/exec/filter_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

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
  // task, so that many reads are in flight; without io_pool as one unit. A
  // mask's window is the rows of all the predicate's terms, or with cell
  // bands its plan's windows (evaluator.h).
  const size_t batch =
      opts.verify_batch > 0
          ? opts.verify_batch
          : std::max<size_t>(
                64, opts.pool != nullptr ? opts.pool->num_threads() * 4 : 0);
  const size_t max_units =
      opts.io_pool != nullptr ? std::max<size_t>(1, opts.io_pool->num_threads())
                              : 1;
  const bool cell_bands = internal::PlansCellBands(store, chis);
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
        const MaskId id = ids[b.items[j]];
        if (cell_bands) {
          const internal::CellPlan& plan = b.plans.emplace_back(
              internal::PlanVerifyLoad(store, chis, id, query.terms));
          unit.ids.insert(unit.ids.end(), plan.windows.size(), id);
          unit.windows.insert(unit.windows.end(), plan.windows.begin(),
                              plan.windows.end());
          continue;
        }
        unit.ids.push_back(id);
        unit.windows.push_back(internal::VerifyWindow(
            store, chis, id, internal::TermRows(store.meta(id), query.terms)));
      }
    }
    return b;
  };
  auto verify = [&](const internal::VerifyBatch& b,
                    const std::vector<std::vector<Mask>>& masks) {
    auto decide = [&](size_t i, const std::vector<double>& exact) {
      outcomes[i] = query.predicate.EvalExact(exact) ? Outcome::kVerifiedPass
                                                     : Outcome::kVerifiedFail;
    };
    if (!b.plans.empty()) {
      std::vector<size_t> first;
      const std::vector<const Mask*> rows =
          internal::FlattenPlanned(masks, b.plans, &first);
      ParallelFor(
          b.items.size() > 1 ? opts.pool : nullptr, b.items.size(),
          [&](size_t j) {
            decide(b.items[j],
                   internal::TermExactFromPlan(
                       b.plans[j], rows.data() + first[j], query.terms));
          });
      return Status::OK();
    }
    // (unit, position in unit) of each of the batch's masks, in item order.
    std::vector<std::pair<size_t, size_t>> at;
    for (size_t u = 0; u < masks.size(); ++u) {
      for (size_t p = 0; p < masks[u].size(); ++p) at.emplace_back(u, p);
    }
    ParallelFor(at.size() > 1 ? opts.pool : nullptr, at.size(), [&](size_t j) {
      const auto [u, p] = at[j];
      const size_t i = b.items[j];
      decide(i, internal::TermExactFromMask(masks[u][p], store.meta(ids[i]),
                                            query.terms,
                                            b.units[u].windows[p]));
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
