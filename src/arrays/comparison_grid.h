#ifndef SYSTOLIC_ARRAYS_COMPARISON_GRID_H_
#define SYSTOLIC_ARRAYS_COMPARISON_GRID_H_

#include <vector>

#include "arrays/comparison_cell.h"
#include "arrays/edge_rule.h"
#include "relational/compare.h"
#include "relational/relation.h"
#include "systolic/feeder.h"
#include "systolic/schedule.h"
#include "systolic/simulator.h"
#include "util/status.h"

namespace systolic {
namespace arrays {

/// How relation B traverses the grid.
enum class FeedMode {
  /// Both relations march through each other (§3.2): A down, B up, tuples
  /// two pulses apart. Every pair (a_i, b_j) meets at row j-i+(rows-1)/2,
  /// so a grid of R rows handles operands of up to (R+1)/2 tuples each, and
  /// at most half the cells are busy on any pulse (§8).
  kMarching,
  /// B is preloaded, one tuple per row, and only A marches (§8's
  /// full-utilisation variant). Tuples of A are one pulse apart; the grid
  /// handles any |A| but at most `rows` tuples of B per pass.
  kFixedB,
};

/// "marching" or "fixed-B".
const char* FeedModeToString(FeedMode mode);

/// Feed-mode policy for the engine: a concrete mode, or kAuto to let the
/// engine pick per operation from the exact schedules of both tilings
/// (fixed-B halves the tuple spacing and needs no more pulses, but its
/// fewer tiles can spread worse over several chips; see
/// db::DeviceConfig::mode).
enum class FeedModePolicy {
  kMarching,
  kFixedB,
  kAuto,
};

/// The feed disciplines an operation may run under `policy` on a grid of
/// `rows` rows (0 = unbounded): the policy's mode, or for kAuto fixed-B and
/// marching. Marching is left out where §3.2's marching pairs never meet
/// (an even nonzero row count), so explicit kMarching there leaves none.
/// Fixed-B comes first.
std::vector<FeedMode> FeedModeCandidates(FeedModePolicy policy, size_t rows);

/// Static configuration of a comparison grid.
struct GridConfig {
  /// Physical row count. Must be odd in kMarching mode (the meeting-row
  /// formula j-i+(rows-1)/2 needs integer midpoint; with even rows,
  /// opposite-moving tuples swap on wires without ever sharing a cell).
  size_t rows = 0;
  /// Physical column count = elements compared per tuple (m, or the number
  /// of join columns for a join array).
  size_t columns = 0;
  /// Per-cell comparison: kEq for the comparison/intersection/dedup arrays,
  /// any op for non-equi-join arrays (§6.3.2).
  rel::ComparisonOp op = rel::ComparisonOp::kEq;
  /// Optional per-column comparisons (§6.3.2: the operation "might be
  /// preloaded into the array"); when non-empty it must have `columns`
  /// entries and overrides `op` column by column. Used by the selection
  /// array for mixed-predicate conjunctions.
  std::vector<rel::ComparisonOp> column_ops;
  /// Initial-t synthesis at the left edge (§4 vs §5).
  EdgeRule edge_rule = EdgeRule::kAllTrue;
  FeedMode mode = FeedMode::kMarching;
};

/// The paper's two-dimensional comparison array (Fig. 3-3): `rows` stacked
/// linear comparison arrays of `columns` cells. Builds all cells and wires
/// inside a caller-owned Simulator and provides the input feeders and the
/// right-edge t outputs that downstream modules (accumulation column, join
/// sinks) attach to.
class ComparisonGrid {
 public:
  /// Builds the grid in `simulator`. Fatal on invalid config (zero
  /// dimensions; even rows in marching mode).
  ComparisonGrid(sim::Simulator* simulator, const GridConfig& config);

  const GridConfig& config() const { return config_; }

  /// Schedules relation A (restricted to `columns`, which must match the
  /// grid width) into the top feeders with the mode's tuple spacing.
  /// Fails with Capacity if A exceeds MaxATuples().
  Status FeedA(const rel::Relation& a, const std::vector<size_t>& columns);

  /// Marching mode: schedules relation B into the bottom feeders.
  /// Fails with Capacity if B exceeds MaxBTuples().
  Status FeedB(const rel::Relation& b, const std::vector<size_t>& columns);

  /// Fixed mode: stores tuple j of B into row j's cells. Fails with
  /// Capacity if B exceeds `rows`.
  Status PreloadB(const rel::Relation& b, const std::vector<size_t>& columns);

  /// The t output wire at the right edge of row `r`.
  sim::Wire* right_edge(size_t r) const { return right_edges_.at(r); }
  const std::vector<sim::Wire*>& right_edges() const { return right_edges_; }

  /// Interior observation points, for tracing and visualisation (reading a
  /// wire never perturbs the computation).
  /// The downward a wire entering row `r` (r == rows() is the bottom exit).
  sim::Wire* a_wire(size_t r, size_t k) const { return a_wires_.at(r).at(k); }
  /// The upward b wire entering row `r` from below (marching mode only;
  /// r == rows() is the bottom edge, r == 0 the top exit).
  sim::Wire* b_wire(size_t r, size_t k) const { return b_wires_.at(r).at(k); }
  /// The rightward t wire entering column `k` of row `r` (k in 1..columns;
  /// k == columns is the right edge).
  sim::Wire* t_wire(size_t r, size_t k) const { return t_wires_.at(r).at(k); }

  /// Operand capacity per pass.
  size_t MaxATuples() const;
  size_t MaxBTuples() const;

  /// Smallest legal (odd) row count for marching operands of up to `n`
  /// tuples each: 2n-1 (so the meeting rows j-i+(R-1)/2 stay in range).
  static size_t RowsForMarching(size_t n) { return n == 0 ? 1 : 2 * n - 1; }

 private:
  GridConfig config_;
  std::vector<sim::StreamFeeder*> a_feeders_;
  std::vector<sim::StreamFeeder*> b_feeders_;             // marching only
  std::vector<std::vector<FixedComparisonCell*>> fixed_;  // fixed only
  std::vector<sim::Wire*> right_edges_;
  std::vector<std::vector<sim::Wire*>> a_wires_;
  std::vector<std::vector<sim::Wire*>> b_wires_;
  std::vector<std::vector<sim::Wire*>> t_wires_;
};

}  // namespace arrays
}  // namespace systolic

#endif  // SYSTOLIC_ARRAYS_COMPARISON_GRID_H_
