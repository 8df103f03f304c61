#ifndef SYSTOLIC_PERFMODEL_ESTIMATES_H_
#define SYSTOLIC_PERFMODEL_ESTIMATES_H_

#include <cstddef>

#include "perfmodel/technology.h"

namespace systolic {
namespace perf {

/// The §8 sizing assumptions for "a typical relation".
struct RelationShape {
  /// "A relation is of size 10^4 tuples."
  size_t num_tuples = 10'000;
  /// "A tuple is of size 1500 bits (or about 200 characters)."
  size_t bits_per_tuple = 1'500;

  size_t TotalBits() const { return num_tuples * bits_per_tuple; }
  double TotalBytes() const { return static_cast<double>(TotalBits()) / 8.0; }
};

/// Total bit comparisons for intersecting two relations: full tuple
/// comparisons between all pairs — "1500 bit-comparisons for each of the
/// (10^4)^2 tuple comparisons", i.e. 1.5x10^11 for the default shapes.
double IntersectionBitComparisons(const RelationShape& a,
                                  const RelationShape& b);

/// Bit comparisons for remove-duplicates of one relation (same all-pairs
/// structure with the relation against itself).
double DedupBitComparisons(const RelationShape& a);

/// Bit comparisons for a join touching only `join_bits` of each tuple pair.
double JoinBitComparisons(size_t n_a, size_t n_b, size_t join_bits);

/// Wall time for `bit_comparisons` on a device described by `tech`:
/// comparisons / parallelism x per-comparison time. Reproduces §8's
///   (1.5x10^11 comparisons) x (350ns / 10^6 comparisons) ≈ 50ms
/// and the aggressive-scenario ≈10ms.
double SecondsForBitComparisons(const Technology& tech, double bit_comparisons);

/// Convenience: intersection wall time for two shapes under `tech`.
double IntersectionSeconds(const Technology& tech, const RelationShape& a,
                           const RelationShape& b);

/// Word-level device passes needed when each operand block is limited to
/// `block_tuples` per pass (the §8 decomposition): ceil(nA/b) x ceil(nB/b).
size_t DecompositionPasses(size_t n_a, size_t n_b, size_t block_tuples);

/// Bridges the cycle-accurate simulator to the analytic model: wall time of
/// `cycles` word-level pulses when one pulse performs up to `word_bits`
/// bit comparisons in bit-parallel comparators (§8's word→bit decomposition
/// makes one word comparison cost one bit-comparison time, as the bits
/// compare in parallel).
double SecondsForCycles(const Technology& tech, size_t cycles);

/// Modeled total pulses of a membership-family pass structure (intersection,
/// difference, dedup, join) under §8's fixed-B discipline on a device with
/// `device_rows` grid rows (0 = unbounded): every block of B is preloaded
/// and all of A streams past it. An estimate for the query planner (to cost
/// plan steps and pin feed hints) and the verifier (to audit those hints);
/// it ignores the chip schedule and DMA traffic, so the engine's kAuto
/// guard, which compares the exact schedules of both tilings, can pick the
/// other discipline (project_lint rule 8 keeps the engine off it).
double FixedBMembershipPulses(size_t n_a, size_t n_b, size_t columns,
                              size_t device_rows);

/// Same for the §3 marching discipline: both operands march through the
/// grid in blocks of the marching block capacity ((rows+1)/2).
double MarchingMembershipPulses(size_t n_a, size_t n_b, size_t columns,
                                size_t device_rows);

/// Operand-block capacity per pass on a device with `device_rows` rows:
/// the §8 decomposition block size. `fixed_b` selects the fixed-B
/// discipline, where the preloaded (bottom) operand block is a full
/// device-height `device_rows` while the streaming operand is unblocked;
/// marching blocks both operands to (rows+1)/2. Returns SIZE_MAX when the
/// device is unbounded (rows == 0) or the side is unblocked.
size_t MembershipBlockCapacity(bool fixed_b, bool bottom, size_t device_rows);

}  // namespace perf
}  // namespace systolic

#endif  // SYSTOLIC_PERFMODEL_ESTIMATES_H_
