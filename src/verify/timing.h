#ifndef SYSTOLIC_VERIFY_TIMING_H_
#define SYSTOLIC_VERIFY_TIMING_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arrays/comparison_grid.h"
#include "system/transaction.h"
#include "verify/verifier.h"

namespace systolic {
namespace verify {

/// One §8 tile of a step's decomposition: the block of (A-index, B-index)
/// pairs one device pass covers. `diagonal` marks a dedup tile whose B block
/// is the head of its own A block (edge rule kStrictLowerTriangle): the
/// triangle's diagonal tile, where the two blocks are equal, or a fixed-B
/// strip, which streams A's suffix past the preloaded head. Other tiles
/// seed kAllTrue.
struct TileModel {
  size_t a_start = 0;
  size_t a_count = 0;
  size_t b_start = 0;
  size_t b_count = 0;
  bool diagonal = false;
};

/// The schedule IR one membership-family step implies: feed discipline,
/// stagger spacings, grid shape and the tile decomposition. Derived from the
/// step description and catalog cardinalities alone — never from the engine.
struct StepSchedule {
  size_t step_index = 0;
  machine::OpKind op = machine::OpKind::kIntersect;
  std::string output;
  arrays::FeedMode mode = arrays::FeedMode::kMarching;
  /// §3.2 stagger: successive tuples of A (resp. B) enter `spacing` pulses
  /// apart — 2 when both relations march, 1 for the streamed side of §8's
  /// fixed-B variant (B is preloaded: spacing_b == 0 then).
  size_t spacing_a = 2;
  size_t spacing_b = 2;
  /// Words compared per tuple pair (the wire width the device needs).
  size_t width = 0;
  /// Whether the step's semantics require the strict-lower-triangle initial
  /// t values of §5 (dedup family: dedup, union, projection) on diagonal
  /// tiles.
  bool dedup_family = false;
  size_t n_a = 0;  ///< Tuples of the streamed operand (worst case).
  size_t n_b = 0;  ///< Tuples of the other operand (worst case).
  std::vector<TileModel> tiles;
};

/// The timing pass. For every step it derives the StepSchedule above and
/// checks, independently of the engine's tiling code:
///
///   - wire width fits the device (§8 partitions over tuples, not columns);
///   - tiles cover the full |A| x |B| comparison space exactly once
///     (rectangular grid for ⋈/∩/−; for the dedup family the triangular
///     block-pair grid or, fixed-B, one strip per preloaded block), by area
///     accounting + alignment, not by replaying the construction;
///   - the strict-lower-triangle initialisation appears exactly on the
///     dedup family's diagonal tiles (§5) and nowhere else, and a diagonal
///     tile's B block is the head of its A block (equal to it when
///     marching);
///   - per tile, the §3.2 exit schedule: the pulse at which pair (i, j)'s
///     result leaves the grid is derived twice — once from the feed
///     equations (entry pulse + per-row march to the meeting row + word
///     serial comparison + commit) and once from the closed forms the
///     golden traces pin (i+j+m+(R-1)/2+1 marching, i+j+m+1 fixed-B) — and
///     both derivations must agree at the sampled tile corners;
///   - a pinned feed hint matches the §8 pulse model's choice when both
///     operand cardinalities are exact.
///
/// An unhinted step on a kAuto device may run either discipline — the
/// engine's guard decides from the exact schedule at run time — so both
/// candidate schedules are checked; a fixed-B dedup-family step may run the
/// triangle or the strips, so both of its decompositions are checked.
///
/// Selection steps are one-pass fixed devices (predicate count is the width
/// check); division's decomposition is data-dependent (first-occurrence key
/// ranks) and is checked only for its static facts. Rejects with
/// kVerifyFailed ("[timing] node '...': ...").
Status VerifyTiming(const machine::Transaction& txn,
                    const std::map<std::string, InputStats>& env,
                    const DeviceTable& devices, VerifyReport* report);

/// Exposed for tests: derives the schedule IR for step `index` (must be a
/// membership-family step) under `mode` without checking it. Without a
/// `mode`, the step's feed hint, else the device's explicit mode; an
/// unhinted kAuto step has two candidates, fixed-B (derived by default) and
/// marching, and VerifyTiming audits both. `strips` cuts a fixed-B
/// dedup-family step into §8 strips instead of the block-pair triangle;
/// other steps ignore it.
Result<StepSchedule> DeriveStepSchedule(
    const machine::Transaction& txn, size_t index,
    const std::map<std::string, InputStats>& env, const DeviceTable& devices,
    std::optional<arrays::FeedMode> mode = std::nullopt, bool strips = false);

/// Exposed for tests: checks one derived schedule (the per-step body of
/// VerifyTiming), so mutation tests can corrupt a StepSchedule field and
/// assert the named diagnostic.
Status CheckStepSchedule(const StepSchedule& schedule,
                         const db::DeviceConfig& device,
                         VerifyReport* report);

}  // namespace verify
}  // namespace systolic

#endif  // SYSTOLIC_VERIFY_TIMING_H_
