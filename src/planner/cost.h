#ifndef SYSTOLIC_PLANNER_COST_H_
#define SYSTOLIC_PLANNER_COST_H_

#include <cstddef>

#include "arrays/comparison_grid.h"
#include "planner/plan.h"

namespace systolic {
namespace planner {

/// System-R-style default selectivities, used whenever the planner must
/// guess. External inputs never need them (the memory modules hold exact
/// row counts); every operator above the leaves does.
struct SelectivityDefaults {
  /// σ with `= c`: fraction of tuples surviving one equality conjunct.
  double select_eq = 0.1;
  /// σ with `!= c`.
  double select_neq = 0.9;
  /// σ with an order comparison (<, <=, >, >=).
  double select_range = 1.0 / 3.0;
  /// Equi-join: |A ⋈ B| = |A|·|B|·join_eq^(#column pairs).
  double join_eq = 0.1;
  /// θ-join (order comparison): much less selective than equality.
  double join_theta = 0.3;
  /// |A ∩ B| = intersect · min(|A|, |B|).
  double intersect = 0.5;
  /// |A − B| = difference · |A|.
  double difference = 0.5;
  /// Fraction of tuples that are first occurrences (dedup survivors).
  double dedup_keep = 0.7;
  /// Fraction of the dividend's distinct keys whose group covers B.
  double divide = 0.2;
};

/// Selectivity of one selection conjunct under the defaults.
double PredicateSelectivity(const arrays::SelectionPredicate& p,
                            const SelectivityDefaults& sel);

/// Fills Node::est_rows bottom-up over the reachable nodes: exact counts at
/// the input leaves (the catalog), SelectivityDefaults everywhere above.
void EstimateCardinalities(LogicalPlan* plan, const SelectivityDefaults& sel);

/// Modeled cost of running one op node on its device.
struct StepCost {
  /// Modeled total device pulses (the unit EXPLAIN reports and bench_planner
  /// compares; wall time is pulses × the technology's pulse period).
  double pulses = 0;
  /// For the feed-mode families (membership ops and join): the discipline
  /// with the lower modeled pulse count. Meaningless when !has_mode_choice.
  arrays::FeedMode mode = arrays::FeedMode::kMarching;
  bool has_mode_choice = false;
};

/// Models the pulses of `n` (an op node of `plan`, with est_rows already
/// filled in) on a membership-family device with `device_rows` grid rows
/// (0 = unbounded). Uses the perfmodel estimates for the membership family
/// — a one-schedule approximation that can disagree with the engine's kAuto
/// guard, which decides unhinted steps from their exact schedules; the
/// remaining ops use documented planner-side approximations:
///   select  ≈ n + #predicates + 2        (single streaming pass)
///   dedup   ≈ membership(n, n)           (self-membership structure)
///   union   ≈ membership(nA+nB, nA+nB)   (dedup of the concatenation)
///   project ≈ n + membership(n, n)       (narrow, then dedup)
///   join    ≈ membership(nA, nB) + |out| (match grid plus emission)
///   divide  ≈ membership(nA, nB) + nA    (coverage grid plus key scan)
StepCost EstimateNodePulses(const LogicalPlan& plan, const Node& n,
                            size_t device_rows);

}  // namespace planner
}  // namespace systolic

#endif  // SYSTOLIC_PLANNER_COST_H_
