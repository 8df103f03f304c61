#ifndef SYSTOLIC_RELATIONAL_COMPARE_H_
#define SYSTOLIC_RELATIONAL_COMPARE_H_

#include <string>

#include "relational/relation.h"

namespace systolic {
namespace rel {

/// The binary comparison applied between join columns. Equality gives the
/// equi-join; the others give the paper's non-equi-joins (§6.3.2), e.g.
/// kGt is the "greater-than-join".
enum class ComparisonOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// "=", "!=", "<", "<=", ">", ">=".
const char* ComparisonOpToString(ComparisonOp op);

/// Applies `op` to two element codes. Order comparisons are meaningful only
/// on ordered (identity-encoded) domains; callers enforce that.
bool ApplyComparison(ComparisonOp op, Code left, Code right);

/// True iff `op` is kEq or kNe (meaningful on dictionary-encoded domains).
bool IsEqualityOp(ComparisonOp op);

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_COMPARE_H_
