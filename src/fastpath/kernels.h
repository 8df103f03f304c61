#ifndef SYSTOLIC_FASTPATH_KERNELS_H_
#define SYSTOLIC_FASTPATH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "arrays/edge_rule.h"
#include "arrays/selection_array.h"
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
    rel::TupleRef a_i, const std::vector<size_t>& a_columns,
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

/// §7 division's dividend pairs over whole operands, as the division array
/// sees them: pair t is A's tuple t, gated into dividend row key[t] — the
/// first-occurrence rank of its quotient key — where its divisor part
/// raises the match flag of B's distinct divisor value y, if B holds it.
struct DivisionMatches {
  /// Per A tuple: its quotient key's rank x_t.
  std::vector<size_t> key;
  /// Per key rank: the A row where the key first occurs (P = size()).
  std::vector<size_t> key_rows;
  /// Per distinct divisor value, in first-occurrence order: the B row where
  /// it first occurs (Q = size()).
  std::vector<size_t> value_rows;
  /// The distinct match flags (x, y), in (x, y) order: key x met divisor
  /// value y. A key's run counts the distinct divisor values it matched.
  std::vector<std::pair<size_t, size_t>> flags;
};

/// Ranks quotient keys and divisor values by hashing and collects the
/// distinct flags. `quotient_columns` key A's tuples; `a_columns` and
/// `b_columns` are the divisor parts of A and B.
DivisionMatches MatchDivision(const rel::Relation& a, const rel::Relation& b,
                              const std::vector<size_t>& quotient_columns,
                              const std::vector<size_t>& a_columns,
                              const std::vector<size_t>& b_columns);

/// §7's AND across each dividend row, by counting: appends to `quotient`
/// the quotient keys of `a` that matched all Q divisor values (every key
/// when Q = 0), in first-occurrence order, each read from its first row.
Status DivisionQuotient(const rel::Relation& a,
                        const std::vector<size_t>& quotient_columns,
                        const DivisionMatches& matches,
                        rel::Relation* quotient);

/// §6.3.2 selection: bit i = AND_p op_p(a_i[col_p], const_p), refined
/// predicate by predicate over word-packed tuple masks.
BitVector SelectionBits(
    const rel::Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates);

}  // namespace fastpath
}  // namespace systolic

#endif  // SYSTOLIC_FASTPATH_KERNELS_H_
