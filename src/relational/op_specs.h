#ifndef SYSTOLIC_RELATIONAL_OP_SPECS_H_
#define SYSTOLIC_RELATIONAL_OP_SPECS_H_

#include <vector>

#include "relational/compare.h"
#include "relational/relation.h"
#include "util/result.h"

namespace systolic {
namespace rel {

/// Describes a join A ⋈ B over columns C_A and C_B (§6).
///
/// `op` is applied pairwise to each (left, right) column pair; kEq gives the
/// equi-join, the others the non-equi-joins of §6.3.2. For multi-column joins
/// (§6.3.1) the column lists must have equal length and corresponding columns
/// must be drawn from the same underlying domain.
struct JoinSpec {
  std::vector<size_t> left_columns;
  std::vector<size_t> right_columns;
  ComparisonOp op = ComparisonOp::kEq;
};

/// Validates a join spec against the operand schemas: equal column-list
/// lengths, in-range indices, same underlying domains per pair, and ordered
/// domains when `op` is an order comparison.
Status ValidateJoinSpec(const Schema& a, const Schema& b, const JoinSpec& spec);

/// The output schema of the join. For the equi-join the redundant copies of
/// B's join columns are dropped (the paper's |_{CA,CB} operator includes only
/// one of each matching pair, §6.1); for non-equi-joins all columns of both
/// operands are kept, since the matched values differ.
Result<Schema> JoinOutputSchema(const Schema& a, const Schema& b,
                                const JoinSpec& spec);

/// Concatenates a matching pair per the paper's |_{CA,CB} operator into
/// `out`, replacing its codes (a caller reuses one `out` across pairs). Must
/// be called only for pairs that satisfy the join predicate.
void JoinConcatenate(TupleRef ta, TupleRef tb, const JoinSpec& spec,
                     Tuple* out);

/// Describes a division A ÷ B over columns C_A of A and C_B of B (§7).
///
/// The quotient's columns are A's columns *not* listed in `a_columns`, in
/// their original order. A quotient tuple x is emitted iff for every tuple y
/// in π_{C_B}(B), the tuple assembling x with y (placed at the `a_columns`
/// positions) appears in A. The paper details the binary÷unary case and notes
/// the general extension is straightforward; we implement the general case.
struct DivisionSpec {
  std::vector<size_t> a_columns;
  std::vector<size_t> b_columns;
};

/// Validates a division spec: non-empty equal-length column lists, in-range
/// indices, shared underlying domains per pair, no duplicate indices, and at
/// least one quotient column remaining in A.
Status ValidateDivisionSpec(const Schema& a, const Schema& b,
                            const DivisionSpec& spec);

/// The quotient schema: A's non-divisor columns in original order.
Result<Schema> DivisionOutputSchema(const Schema& a, const DivisionSpec& spec);

/// Indices of A's quotient (non-divisor) columns, in original order.
std::vector<size_t> DivisionQuotientColumns(const Schema& a,
                                            const DivisionSpec& spec);

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_OP_SPECS_H_
