#ifndef SYSTOLIC_FASTPATH_KERNELS_H_
#define SYSTOLIC_FASTPATH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "arrays/edge_rule.h"
#include "relational/compare.h"
#include "relational/relation.h"
#include "util/bitvector.h"

namespace systolic {
namespace fastpath {

/// Comparison kernels: the results of the t matrices the §3/§8 arrays
/// compute pulse by pulse. Equality (membership, equi-joins) hashes the
/// compared columns, O(|A| + |B| + matches). Order comparisons use packed
/// (SWAR) masks, 64 tuple pairs per word with dead pulses skipped entirely:
/// bit j of word j/64 stands for pair (i, b_j); a kernel starts from the
/// all-true initial-t mask and refines it one compared column at a time,
/// visiting only the surviving bits of each word (a cleared word is skipped
/// without touching its pairs — the in-software analogue of a quiet region
/// of the grid). Golden tests pin each kernel against the per-pulse RTL
/// cell semantics at word-size boundaries.

/// One operand column pulled out of row-major tuples for word-at-a-time
/// scanning: out[j] = b.tuple(j)[column].
std::vector<rel::Code> PackColumn(const rel::Relation& b, size_t column);

/// The packed match mask of tuple `a_i` against every tuple of B (the
/// all-true edge rule): bit j set iff op(a_i[a_columns[c]],
/// b_columns_packed[c][j]) holds for every compared column c. `ops` has one
/// entry per compared column (the grid's per-column comparators). Words
/// beyond n_b are zero.
std::vector<uint64_t> MatchMaskWords(
    const rel::Tuple& a_i, const std::vector<size_t>& a_columns,
    const std::vector<std::vector<rel::Code>>& b_columns_packed,
    const std::vector<rel::ComparisonOp>& ops, size_t n_b);

/// §4/§5 membership: bit i = OR_j (t_ij^initial AND a_i == b_j) over the
/// fed columns — exactly RunMembership's accumulated result — by hashing:
/// a_i's key must occur in B (kAllTrue) or first occur at a row j < i
/// (kStrictLowerTriangle).
BitVector MembershipBits(const rel::Relation& a, const rel::Relation& b,
                         const std::vector<size_t>& a_columns,
                         const std::vector<size_t>& b_columns,
                         arrays::EdgeRule edge_rule);

/// §6 join matches: every (i, j) with AND_c op(a_i[left[c]], b_j[right[c]]),
/// in (i, j)-lexicographic order — the order SystolicJoin's sorted sink
/// harvest produces. kEq hashes B's join columns; other ops scan the packed
/// masks.
std::vector<std::pair<size_t, size_t>> JoinMatches(
    const rel::Relation& a, const rel::Relation& b,
    const std::vector<size_t>& left_columns,
    const std::vector<size_t>& right_columns, rel::ComparisonOp op);

/// §6.3.2 selection: bit i = AND_p op_p(a_i[col_p], const_p), refined
/// predicate by predicate over word-packed tuple masks. `columns`, `ops`
/// and `constants` are parallel arrays (one entry per predicate).
BitVector SelectionBits(const rel::Relation& a,
                        const std::vector<size_t>& columns,
                        const std::vector<rel::ComparisonOp>& ops,
                        const std::vector<rel::Code>& constants);

}  // namespace fastpath
}  // namespace systolic

#endif  // SYSTOLIC_FASTPATH_KERNELS_H_
