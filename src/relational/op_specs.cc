#include "relational/op_specs.h"

#include <algorithm>
#include <set>

namespace systolic {
namespace rel {

Status ValidateJoinSpec(const Schema& a, const Schema& b,
                        const JoinSpec& spec) {
  if (spec.left_columns.empty()) {
    return Status::InvalidArgument("join requires at least one column pair");
  }
  if (spec.left_columns.size() != spec.right_columns.size()) {
    return Status::InvalidArgument(
        "join column lists have different lengths: " +
        std::to_string(spec.left_columns.size()) + " vs " +
        std::to_string(spec.right_columns.size()));
  }
  for (size_t k = 0; k < spec.left_columns.size(); ++k) {
    const size_t ca = spec.left_columns[k];
    const size_t cb = spec.right_columns[k];
    if (ca >= a.num_columns()) {
      return Status::OutOfRange("left join column " + std::to_string(ca) +
                                " exceeds arity " +
                                std::to_string(a.num_columns()));
    }
    if (cb >= b.num_columns()) {
      return Status::OutOfRange("right join column " + std::to_string(cb) +
                                " exceeds arity " +
                                std::to_string(b.num_columns()));
    }
    const auto& da = a.column(ca).domain;
    const auto& db = b.column(cb).domain;
    if (da.get() != db.get()) {
      return Status::Incompatible("join columns " + std::to_string(ca) +
                                  " and " + std::to_string(cb) +
                                  " are drawn from different domains ('" +
                                  da->name() + "' vs '" + db->name() + "')");
    }
    if (!IsEqualityOp(spec.op) && !da->ordered()) {
      return Status::InvalidArgument(
          std::string("comparison '") + ComparisonOpToString(spec.op) +
          "' requires an ordered domain, but '" + da->name() +
          "' is dictionary-encoded");
    }
  }
  return Status::OK();
}

Result<Schema> JoinOutputSchema(const Schema& a, const Schema& b,
                                const JoinSpec& spec) {
  SYSTOLIC_RETURN_NOT_OK(ValidateJoinSpec(a, b, spec));
  std::vector<Column> columns = a.columns();
  const bool drop_right_join_columns = spec.op == ComparisonOp::kEq;
  for (size_t cb = 0; cb < b.num_columns(); ++cb) {
    const bool is_join_column =
        std::find(spec.right_columns.begin(), spec.right_columns.end(), cb) !=
        spec.right_columns.end();
    if (drop_right_join_columns && is_join_column) continue;
    columns.push_back(b.column(cb));
  }
  return Schema(std::move(columns));
}

void JoinConcatenate(TupleRef ta, TupleRef tb, const JoinSpec& spec,
                     Tuple* out) {
  out->assign(ta.begin(), ta.end());
  const bool drop_right_join_columns = spec.op == ComparisonOp::kEq;
  for (size_t cb = 0; cb < tb.size(); ++cb) {
    const bool is_join_column =
        std::find(spec.right_columns.begin(), spec.right_columns.end(), cb) !=
        spec.right_columns.end();
    if (drop_right_join_columns && is_join_column) continue;
    out->push_back(tb[cb]);
  }
}

Status ValidateDivisionSpec(const Schema& a, const Schema& b,
                            const DivisionSpec& spec) {
  if (spec.a_columns.empty()) {
    return Status::InvalidArgument("division requires at least one column pair");
  }
  if (spec.a_columns.size() != spec.b_columns.size()) {
    return Status::InvalidArgument(
        "division column lists have different lengths: " +
        std::to_string(spec.a_columns.size()) + " vs " +
        std::to_string(spec.b_columns.size()));
  }
  std::set<size_t> a_seen;
  std::set<size_t> b_seen;
  for (size_t k = 0; k < spec.a_columns.size(); ++k) {
    const size_t ca = spec.a_columns[k];
    const size_t cb = spec.b_columns[k];
    if (ca >= a.num_columns()) {
      return Status::OutOfRange("dividend column " + std::to_string(ca) +
                                " exceeds arity " +
                                std::to_string(a.num_columns()));
    }
    if (cb >= b.num_columns()) {
      return Status::OutOfRange("divisor column " + std::to_string(cb) +
                                " exceeds arity " +
                                std::to_string(b.num_columns()));
    }
    if (!a_seen.insert(ca).second || !b_seen.insert(cb).second) {
      return Status::InvalidArgument("duplicate column index in division spec");
    }
    const auto& da = a.column(ca).domain;
    const auto& db = b.column(cb).domain;
    if (da.get() != db.get()) {
      return Status::Incompatible(
          "division columns " + std::to_string(ca) + " and " +
          std::to_string(cb) + " are drawn from different domains ('" +
          da->name() + "' vs '" + db->name() + "')");
    }
  }
  if (spec.a_columns.size() >= a.num_columns()) {
    return Status::InvalidArgument(
        "division leaves no quotient columns in the dividend");
  }
  return Status::OK();
}

std::vector<size_t> DivisionQuotientColumns(const Schema& a,
                                            const DivisionSpec& spec) {
  std::vector<size_t> quotient;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (std::find(spec.a_columns.begin(), spec.a_columns.end(), c) ==
        spec.a_columns.end()) {
      quotient.push_back(c);
    }
  }
  return quotient;
}

Result<Schema> DivisionOutputSchema(const Schema& a,
                                    const DivisionSpec& spec) {
  return a.Project(DivisionQuotientColumns(a, spec));
}

}  // namespace rel
}  // namespace systolic
