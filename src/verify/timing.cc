#include "verify/timing.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "perfmodel/estimates.h"

namespace systolic {
namespace verify {
namespace {

using machine::OpKind;
using machine::PlanStep;

Status Fail(const std::string& node, const std::string& what) {
  return VerifyError("timing", node, what);
}

size_t SatAdd(size_t a, size_t b) {
  if (a > std::numeric_limits<size_t>::max() - b) {
    return std::numeric_limits<size_t>::max();
  }
  return a + b;
}

/// §8 block capacity, restated from the paper rather than taken from
/// perfmodel: marching blocks both operands to (rows+1)/2 so that a block
/// pair fits the 2n-1 rows its wavefronts sweep; the fixed-B variant
/// preloads one B tuple per row (block = rows) and streams all of A.
/// Unbounded (rows == 0) means no decomposition.
size_t BlockCap(arrays::FeedMode mode, bool bottom, size_t device_rows) {
  if (device_rows == 0) return std::numeric_limits<size_t>::max();
  if (mode == arrays::FeedMode::kFixedB) {
    return bottom ? device_rows : std::numeric_limits<size_t>::max();
  }
  return (device_rows + 1) / 2;
}

bool IsMembershipFamily(OpKind op) {
  switch (op) {
    case OpKind::kIntersect:
    case OpKind::kDifference:
    case OpKind::kRemoveDuplicates:
    case OpKind::kUnion:
    case OpKind::kProject:
    case OpKind::kJoin:
      return true;
    case OpKind::kSelect:
    case OpKind::kDivide:
      return false;
  }
  return false;
}

/// The feed disciplines a step may run under: its hint, else the device's
/// candidates — for an unhinted kAuto step, every discipline the engine's
/// guard may pick from the exact schedule of the true operand sizes. Fails
/// where the engine refuses the step: marching, hinted or the device's
/// explicit mode, on an even row count.
Result<std::vector<arrays::FeedMode>> CandidateModes(
    const PlanStep& step, const db::DeviceConfig& device) {
  const arrays::FeedModePolicy policy =
      !step.has_feed_hint ? device.mode
      : step.feed_hint == arrays::FeedMode::kFixedB
          ? arrays::FeedModePolicy::kFixedB
          : arrays::FeedModePolicy::kMarching;
  std::vector<arrays::FeedMode> modes =
      arrays::FeedModeCandidates(policy, device.rows);
  if (modes.empty()) {
    return Fail(step.output, "marching step on an even row count (" +
                                 std::to_string(device.rows) +
                                 "): §3.2's pairs never meet");
  }
  return modes;
}

/// Checks the §3.2 exit schedule of one tile at one sampled pair (i, j)
/// (block-local indices): derives the exit pulse from the feed equations and
/// independently from the closed form the golden traces pin, and rejects if
/// the two disagree or the meeting row falls off the grid.
Status CheckExitSample(const StepSchedule& s, const TileModel& tile,
                       size_t i, size_t j, size_t grid_rows) {
  const size_t m = s.width;
  if (s.mode == arrays::FeedMode::kMarching) {
    const size_t half = (grid_rows - 1) / 2;
    // Feed equations: word k of a_i enters row 0 at pulse 2i+k and marches
    // down one row per pulse; word k of b_j enters row R-1 at pulse 2j+k
    // and marches up. They share a cell where both arrival pulses match.
    const long long r_twice = 2 * (static_cast<long long>(j) -
                                   static_cast<long long>(i)) +
                              static_cast<long long>(grid_rows) - 1;
    if (r_twice % 2 != 0) {
      return Fail(s.output, "marching wavefronts of pair (" +
                                std::to_string(i) + "," + std::to_string(j) +
                                ") never share a cell (grid rows " +
                                std::to_string(grid_rows) + " is even)");
    }
    const long long r = r_twice / 2;
    if (r < 0 || r >= static_cast<long long>(grid_rows)) {
      return Fail(s.output, "meeting row " + std::to_string(r) + " of pair (" +
                                std::to_string(i) + "," + std::to_string(j) +
                                ") falls outside the " +
                                std::to_string(grid_rows) + "-row grid");
    }
    // A-side and B-side arrival pulses of the last word must agree.
    const size_t a_side = 2 * i + static_cast<size_t>(r) + (m - 1);
    const size_t b_side =
        2 * j + (grid_rows - 1 - static_cast<size_t>(r)) + (m - 1);
    if (a_side != b_side) {
      return Fail(s.output, "feed equations disagree for pair (" +
                                std::to_string(i) + "," + std::to_string(j) +
                                "): A-side pulse " + std::to_string(a_side) +
                                " vs B-side " + std::to_string(b_side));
    }
    // Latch + commit = 2 pulses after the last word arrives; the closed form
    // (§3.2, pinned by the golden traces) says i+j+m+(R-1)/2+1.
    const size_t derived = a_side + 2;
    const size_t closed = i + j + m + half + 1;
    if (derived != closed) {
      return Fail(s.output,
                  "exit pulse of pair (" + std::to_string(i) + "," +
                      std::to_string(j) + ") derives to " +
                      std::to_string(derived) + " from the feed schedule but " +
                      std::to_string(closed) + " from §3.2's closed form");
    }
    (void)tile;
    return Status::OK();
  }
  // Fixed-B: b_j preloaded in row j; word k of a_i enters row 0 at pulse
  // i+k (unit spacing) and reaches row j at pulse i+k+j.
  if (j >= grid_rows) {
    return Fail(s.output, "fixed-B tuple " + std::to_string(j) +
                              " has no grid row (grid has " +
                              std::to_string(grid_rows) + ")");
  }
  const size_t derived = i + j + (m - 1) + 2;
  const size_t closed = i + j + m + 1;
  if (derived != closed) {
    return Fail(s.output, "fixed-B exit pulse of pair (" + std::to_string(i) +
                              "," + std::to_string(j) + ") derives to " +
                              std::to_string(derived) + " but §8's form gives " +
                              std::to_string(closed));
  }
  return Status::OK();
}

}  // namespace

Result<StepSchedule> DeriveStepSchedule(
    const machine::Transaction& txn, size_t index,
    const std::map<std::string, InputStats>& env, const DeviceTable& devices,
    std::optional<arrays::FeedMode> mode, bool strips) {
  if (index >= txn.steps().size()) {
    return Status::InvalidArgument("no step " + std::to_string(index));
  }
  const PlanStep& step = txn.steps()[index];
  if (!IsMembershipFamily(step.op)) {
    return Status::InvalidArgument(
        std::string(machine::OpKindToString(step.op)) +
        " implies no membership-grid schedule");
  }
  const auto left_it = env.find(step.left);
  if (left_it == env.end()) {
    return Status::NotFound("operand '" + step.left + "' not in environment");
  }
  const InputStats& left = left_it->second;
  const InputStats* right = nullptr;
  if (machine::IsBinaryOp(step.op)) {
    const auto right_it = env.find(step.right);
    if (right_it == env.end()) {
      return Status::NotFound("operand '" + step.right +
                              "' not in environment");
    }
    right = &right_it->second;
  }

  StepSchedule s;
  s.step_index = index;
  s.op = step.op;
  s.output = step.output;
  switch (step.op) {
    case OpKind::kIntersect:
    case OpKind::kDifference:
      s.n_a = left.num_tuples;
      s.n_b = right->num_tuples;
      s.width = left.schema.num_columns();
      s.dedup_family = false;
      break;
    case OpKind::kRemoveDuplicates:
      s.n_a = s.n_b = left.num_tuples;
      s.width = left.schema.num_columns();
      s.dedup_family = true;
      break;
    case OpKind::kUnion:
      // ∪ concatenates then deduplicates the combined stream against itself.
      s.n_a = s.n_b = SatAdd(left.num_tuples, right->num_tuples);
      s.width = left.schema.num_columns();
      s.dedup_family = true;
      break;
    case OpKind::kProject:
      // π narrows first, then deduplicates the narrowed stream.
      s.n_a = s.n_b = left.num_tuples;
      s.width = step.columns.size();
      s.dedup_family = true;
      break;
    case OpKind::kJoin:
      s.n_a = left.num_tuples;
      s.n_b = right->num_tuples;
      s.width = step.join.left_columns.size();
      s.dedup_family = false;
      break;
    default:
      return Status::InvalidArgument("not a membership-family op");
  }

  const db::DeviceConfig& device = devices.For(step.op);
  SYSTOLIC_ASSIGN_OR_RETURN(const std::vector<arrays::FeedMode> modes,
                            CandidateModes(step, device));
  s.mode = mode.value_or(modes.front());
  if (s.mode == arrays::FeedMode::kMarching) {
    s.spacing_a = 2;
    s.spacing_b = 2;
  } else {
    s.spacing_a = 1;
    s.spacing_b = 0;  // preloaded
  }

  // §8 tile decomposition over the worst-case operand sizes.
  if (s.n_a > 0) {
    if (s.dedup_family && strips && s.mode == arrays::FeedMode::kFixedB) {
      // Strip q preloads block q, the head of A's suffix from q * cap, and
      // streams that whole suffix past it.
      const size_t cap = std::min(BlockCap(s.mode, true, device.rows), s.n_a);
      for (size_t q = 0; q < s.n_a; q += cap) {
        TileModel tile;
        tile.a_start = q;
        tile.a_count = s.n_a - q;
        tile.b_start = q;
        tile.b_count = std::min(cap, s.n_a - q);
        tile.diagonal = true;
        s.tiles.push_back(tile);
      }
    } else if (s.dedup_family) {
      const size_t cap = std::min(BlockCap(s.mode, true, device.rows), s.n_a);
      for (size_t p = 0; p < s.n_a; p += cap) {
        for (size_t q = 0; q <= p; q += cap) {
          TileModel tile;
          tile.a_start = p;
          tile.a_count = std::min(cap, s.n_a - p);
          tile.b_start = q;
          tile.b_count = std::min(cap, s.n_a - q);
          tile.diagonal = q == p;
          s.tiles.push_back(tile);
        }
      }
    } else if (s.n_b > 0) {
      const size_t cap_a = std::min(BlockCap(s.mode, false, device.rows),
                                    s.n_a);
      const size_t cap_b = std::min(BlockCap(s.mode, true, device.rows),
                                    s.n_b);
      for (size_t ai = 0; ai < s.n_a; ai += cap_a) {
        for (size_t bi = 0; bi < s.n_b; bi += cap_b) {
          TileModel tile;
          tile.a_start = ai;
          tile.a_count = std::min(cap_a, s.n_a - ai);
          tile.b_start = bi;
          tile.b_count = std::min(cap_b, s.n_b - bi);
          s.tiles.push_back(tile);
        }
      }
    }
  }
  return s;
}

Status CheckStepSchedule(const StepSchedule& s, const db::DeviceConfig& device,
                         VerifyReport* report) {
  // Wire width: §8 partitions the result matrix over tuples, never over
  // columns, so the full comparison width must fit the device.
  if (s.width == 0) {
    return Fail(s.output, "schedule compares zero words per pair");
  }
  if (device.columns != 0 && s.width > device.columns) {
    return Fail(s.output, "wire width " + std::to_string(s.width) +
                              " exceeds the device's " +
                              std::to_string(device.columns) +
                              " columns (§8 partitions over tuples, not "
                              "columns)");
  }

  // §3.2 stagger: marching interleaves both operands at one tuple per two
  // pulses so every pair meets inside a cell; fixed-B streams A at unit
  // spacing past the preloaded B.
  if (s.mode == arrays::FeedMode::kMarching) {
    if (s.spacing_a != 2 || s.spacing_b != 2) {
      return Fail(s.output, "marching stagger must space both operands 2 "
                            "pulses apart (§3.2), got A=" +
                                std::to_string(s.spacing_a) + " B=" +
                                std::to_string(s.spacing_b));
    }
  } else {
    if (s.spacing_a != 1 || s.spacing_b != 0) {
      return Fail(s.output, "fixed-B stagger must stream A at unit spacing "
                            "over a preloaded B (§8), got A=" +
                                std::to_string(s.spacing_a) + " B=" +
                                std::to_string(s.spacing_b));
    }
  }

  // Tile sanity, disjointness and exact coverage — by area accounting over
  // the tile list itself, not by replaying the construction.
  unsigned long long covered = 0;
  for (const TileModel& t : s.tiles) {
    if (t.a_count == 0 || t.b_count == 0) {
      return Fail(s.output, "empty tile at (" + std::to_string(t.a_start) +
                                "," + std::to_string(t.b_start) + ")");
    }
    if (t.a_start + t.a_count > s.n_a || t.b_start + t.b_count > s.n_b) {
      return Fail(s.output, "tile at (" + std::to_string(t.a_start) + "," +
                                std::to_string(t.b_start) +
                                ") overruns the " + std::to_string(s.n_a) +
                                "x" + std::to_string(s.n_b) +
                                " comparison space");
    }
    if (t.diagonal && !s.dedup_family) {
      return Fail(s.output, "lower-triangle initialisation on a tile of a "
                            "non-dedup operator (§5 reserves it for "
                            "remove-duplicates and its derivatives)");
    }
    if (s.dedup_family) {
      if (t.a_start == t.b_start && !t.diagonal) {
        return Fail(s.output,
                    "diagonal tile at " + std::to_string(t.a_start) +
                        " lacks the §5 strict-lower-triangle initialisation");
      }
      if (t.a_start != t.b_start && t.diagonal) {
        return Fail(s.output, "off-diagonal tile at (" +
                                  std::to_string(t.a_start) + "," +
                                  std::to_string(t.b_start) +
                                  ") wrongly carries the lower-triangle "
                                  "initialisation");
      }
      if (t.diagonal && t.b_count > t.a_count) {
        return Fail(s.output, "diagonal tile at " + std::to_string(t.a_start) +
                                  " preloads a B block of " +
                                  std::to_string(t.b_count) +
                                  " tuples, longer than its " +
                                  std::to_string(t.a_count) + "-tuple A slice");
      }
      if (t.diagonal && s.mode == arrays::FeedMode::kMarching &&
          t.a_count != t.b_count) {
        // Only a preloaded B block can be a head: marching feeds both
        // blocks whole.
        return Fail(s.output, "marching diagonal tile compares blocks of "
                              "unequal sizes " +
                                  std::to_string(t.a_count) + " and " +
                                  std::to_string(t.b_count));
      }
      if (!t.diagonal && t.b_start + t.b_count > t.a_start) {
        // Off-diagonal dedup tiles rely on every pair having j < i
        // globally; a tile reaching at or above the diagonal would compare
        // pairs the kAllTrue seeding mislabels.
        return Fail(s.output, "off-diagonal tile at (" +
                                  std::to_string(t.a_start) + "," +
                                  std::to_string(t.b_start) +
                                  ") crosses the diagonal without the "
                                  "triangle rule");
      }
    }
    // A diagonal tile compares its head of b tuples among themselves,
    // b(b-1)/2 pairs, and with the a - b tuples after it.
    const unsigned long long a = t.a_count;
    const unsigned long long b = t.b_count;
    covered += t.diagonal ? b * (b - 1) / 2 + b * (a - b) : a * b;
  }
  // Disjointness by plane sweep over the A axis with an ordered set of
  // active B intervals. Tile counts grow quadratically in the catalog's
  // cardinality bounds (a bounded device tiling a join's |A||B| bound), so
  // the naive pairwise check would dominate plan time; the sweep is
  // O(T log T). At an open event every active tile's A range contains the
  // opening tile's a_start (closes sort first, so an abutting tile is gone),
  // hence any B intersection is a genuine two-dimensional overlap.
  struct SweepEvent {
    size_t coord = 0;
    bool open = false;
    size_t tile = 0;
  };
  std::vector<SweepEvent> events;
  events.reserve(2 * s.tiles.size());
  for (size_t x = 0; x < s.tiles.size(); ++x) {
    events.push_back({s.tiles[x].a_start, true, x});
    events.push_back({s.tiles[x].a_start + s.tiles[x].a_count, false, x});
  }
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& a, const SweepEvent& b) {
              if (a.coord != b.coord) return a.coord < b.coord;
              return a.open < b.open;
            });
  std::map<size_t, std::pair<size_t, size_t>> active;  // b_start -> (end, tile)
  for (const SweepEvent& e : events) {
    const TileModel& t = s.tiles[e.tile];
    if (!e.open) {
      const auto it = active.find(t.b_start);
      if (it != active.end() && it->second.second == e.tile) active.erase(it);
      continue;
    }
    const size_t lo = t.b_start;
    const size_t hi = t.b_start + t.b_count;
    size_t clash = std::numeric_limits<size_t>::max();
    const auto next = active.lower_bound(lo);
    if (next != active.end() && next->first < hi) clash = next->second.second;
    if (clash == std::numeric_limits<size_t>::max() &&
        next != active.begin()) {
      const auto prev = std::prev(next);
      if (prev->second.first > lo) clash = prev->second.second;
    }
    if (clash != std::numeric_limits<size_t>::max()) {
      const TileModel& u = s.tiles[clash];
      return Fail(s.output, "tiles at (" + std::to_string(u.a_start) + "," +
                                std::to_string(u.b_start) + ") and (" +
                                std::to_string(t.a_start) + "," +
                                std::to_string(t.b_start) +
                                ") overlap: a pair would be compared "
                                "twice");
    }
    active.emplace(lo, std::make_pair(hi, e.tile));
  }
  const unsigned long long expected =
      s.dedup_family
          ? static_cast<unsigned long long>(s.n_a) * (s.n_a - (s.n_a ? 1 : 0)) /
                2
          : static_cast<unsigned long long>(s.n_a) * s.n_b;
  if (covered != expected) {
    return Fail(s.output, "tiles cover " + std::to_string(covered) +
                              " pairs of the " + std::to_string(expected) +
                              " the operation must compare (§8 coverage)");
  }

  // §3.2 exit-schedule cross-check at each tile's corners.
  for (const TileModel& t : s.tiles) {
    size_t grid_rows;
    if (s.mode == arrays::FeedMode::kMarching) {
      grid_rows = arrays::ComparisonGrid::RowsForMarching(
          std::max(t.a_count, t.b_count));
    } else {
      grid_rows = std::max<size_t>(1, t.b_count);
    }
    if (device.rows != 0 && grid_rows > device.rows) {
      return Fail(s.output, "tile at (" + std::to_string(t.a_start) + "," +
                                std::to_string(t.b_start) + ") needs " +
                                std::to_string(grid_rows) +
                                " grid rows but the device has " +
                                std::to_string(device.rows) +
                                " (§8 block capacity violated)");
    }
    const size_t i_corners[2] = {0, t.a_count - 1};
    const size_t j_corners[2] = {0, t.b_count - 1};
    for (size_t i : i_corners) {
      for (size_t j : j_corners) {
        SYSTOLIC_RETURN_NOT_OK(CheckExitSample(s, t, i, j, grid_rows));
        if (report != nullptr) ++report->exit_samples;
      }
    }
    if (report != nullptr) ++report->tiles_checked;
  }
  return Status::OK();
}

Status VerifyTiming(const machine::Transaction& txn,
                    const std::map<std::string, InputStats>& env,
                    const DeviceTable& devices, VerifyReport* report) {
  for (size_t index = 0; index < txn.steps().size(); ++index) {
    const PlanStep& step = txn.steps()[index];
    const db::DeviceConfig& device = devices.For(step.op);
    if (step.op == OpKind::kSelect) {
      // One-pass fixed device; the width check is the predicate count.
      if (device.columns != 0 && step.predicates.size() > device.columns) {
        return Fail(step.output,
                    "selection needs " +
                        std::to_string(step.predicates.size()) +
                        " predicate cells but the device has " +
                        std::to_string(device.columns) + " columns");
      }
      if (report != nullptr) ++report->timing_steps;
      continue;
    }
    if (step.op == OpKind::kDivide) {
      // The §7 decomposition groups by first-occurrence key rank — a
      // data-dependent partition with no static schedule to audit.
      if (report != nullptr) ++report->timing_steps;
      continue;
    }
    SYSTOLIC_ASSIGN_OR_RETURN(const std::vector<arrays::FeedMode> modes,
                              CandidateModes(step, device));
    StepSchedule schedule;
    for (const arrays::FeedMode mode : modes) {
      for (const bool strips : {false, true}) {
        SYSTOLIC_ASSIGN_OR_RETURN(
            schedule,
            DeriveStepSchedule(txn, index, env, devices, mode, strips));
        SYSTOLIC_RETURN_NOT_OK(CheckStepSchedule(schedule, device, report));
        if (!schedule.dedup_family || mode != arrays::FeedMode::kFixedB) break;
      }
    }

    // A pinned feed hint must match the §8 pulse model's choice when the
    // catalog knows both operand cardinalities exactly (the only case the
    // planner pins); re-derive the comparison the planner's cost model ran.
    if (step.has_feed_hint) {
      const auto left_it = env.find(step.left);
      const auto right_it = machine::IsBinaryOp(step.op)
                                ? env.find(step.right)
                                : left_it;
      const bool exact = left_it != env.end() && left_it->second.exact &&
                         right_it != env.end() && right_it->second.exact;
      if (exact) {
        const double fixed = perf::FixedBMembershipPulses(
            schedule.n_a, schedule.n_b, schedule.width, device.rows);
        const double marching = perf::MarchingMembershipPulses(
            schedule.n_a, schedule.n_b, schedule.width, device.rows);
        const arrays::FeedMode best = fixed <= marching
                                          ? arrays::FeedMode::kFixedB
                                          : arrays::FeedMode::kMarching;
        if (best != step.feed_hint) {
          return Fail(step.output,
                      std::string("feed hint pins ") +
                          arrays::FeedModeToString(step.feed_hint) +
                          " but the §8 pulse model picks " +
                          arrays::FeedModeToString(best) + " (" +
                          std::to_string(fixed) + " vs " +
                          std::to_string(marching) + " pulses)");
        }
      }
    }
    if (report != nullptr) ++report->timing_steps;
  }
  return Status::OK();
}

}  // namespace verify
}  // namespace systolic
