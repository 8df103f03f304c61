#include "relational/compare.h"

namespace systolic {
namespace rel {

const char* ComparisonOpToString(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

bool ApplyComparison(ComparisonOp op, Code left, Code right) {
  switch (op) {
    case ComparisonOp::kEq:
      return left == right;
    case ComparisonOp::kNe:
      return left != right;
    case ComparisonOp::kLt:
      return left < right;
    case ComparisonOp::kLe:
      return left <= right;
    case ComparisonOp::kGt:
      return left > right;
    case ComparisonOp::kGe:
      return left >= right;
  }
  return false;
}

bool IsEqualityOp(ComparisonOp op) {
  return op == ComparisonOp::kEq || op == ComparisonOp::kNe;
}

}  // namespace rel
}  // namespace systolic
