#include "relational/ops_reference.h"

#include <set>

namespace systolic {
namespace rel {
namespace reference {

Result<Relation> Intersection(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  Relation out(a.schema(), RelationKind::kSet);
  for (TupleRef ta : a.tuples()) {
    if (b.Contains(ta)) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(ta));
    }
  }
  return out;
}

Result<Relation> Difference(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  Relation out(a.schema(), RelationKind::kSet);
  for (TupleRef ta : a.tuples()) {
    if (!b.Contains(ta)) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(ta));
    }
  }
  return out;
}

Result<Relation> RemoveDuplicates(const Relation& a) {
  Relation out(a.schema(), RelationKind::kSet);
  std::set<Tuple> seen;
  for (TupleRef ta : a.tuples()) {
    if (seen.insert(ta).second) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(ta));
    }
  }
  return out;
}

Result<Relation> Union(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  Relation concatenated(a.schema(), RelationKind::kMulti);
  SYSTOLIC_RETURN_NOT_OK(concatenated.Concatenate(a));
  SYSTOLIC_RETURN_NOT_OK(concatenated.Concatenate(b));
  return RemoveDuplicates(concatenated);
}

Result<Relation> Projection(const Relation& a,
                            const std::vector<size_t>& columns) {
  SYSTOLIC_ASSIGN_OR_RETURN(Relation narrowed, a.ProjectColumns(columns));
  return RemoveDuplicates(narrowed);
}

Result<Relation> Join(const Relation& a, const Relation& b,
                      const JoinSpec& spec) {
  SYSTOLIC_ASSIGN_OR_RETURN(Schema out_schema,
                            JoinOutputSchema(a.schema(), b.schema(), spec));
  Relation out(std::move(out_schema), RelationKind::kMulti);
  Tuple joined;
  for (TupleRef ta : a.tuples()) {
    for (TupleRef tb : b.tuples()) {
      bool match = true;
      for (size_t k = 0; k < spec.left_columns.size() && match; ++k) {
        match = ApplyComparison(spec.op, ta[spec.left_columns[k]],
                                tb[spec.right_columns[k]]);
      }
      if (match) {
        JoinConcatenate(ta, tb, spec, &joined);
        SYSTOLIC_RETURN_NOT_OK(out.Append(joined));
      }
    }
  }
  return out;
}

Result<Relation> Division(const Relation& a, const Relation& b,
                          const DivisionSpec& spec) {
  SYSTOLIC_RETURN_NOT_OK(ValidateDivisionSpec(a.schema(), b.schema(), spec));
  const std::vector<size_t> quotient_columns =
      DivisionQuotientColumns(a.schema(), spec);
  SYSTOLIC_ASSIGN_OR_RETURN(Schema out_schema,
                            DivisionOutputSchema(a.schema(), spec));

  // The distinct divisor values: π_{C_B}(B) as a set of sub-tuples.
  std::set<Tuple> divisor;
  for (TupleRef tb : b.tuples()) {
    Tuple y;
    y.reserve(spec.b_columns.size());
    for (size_t cb : spec.b_columns) y.push_back(tb[cb]);
    divisor.insert(std::move(y));
  }

  // For each candidate quotient value x (distinct values of A's quotient
  // columns, in first-occurrence order), collect the divisor-column values
  // paired with it in A, and keep x iff they cover the whole divisor.
  std::set<Tuple> emitted;
  Relation out(std::move(out_schema), RelationKind::kSet);
  for (TupleRef ta : a.tuples()) {
    Tuple x;
    x.reserve(quotient_columns.size());
    for (size_t c : quotient_columns) x.push_back(ta[c]);
    if (emitted.count(x) != 0) continue;

    std::set<Tuple> covered;
    for (TupleRef other : a.tuples()) {
      bool same_quotient = true;
      for (size_t q = 0; q < quotient_columns.size() && same_quotient; ++q) {
        same_quotient = other[quotient_columns[q]] == x[q];
      }
      if (!same_quotient) continue;
      Tuple y;
      y.reserve(spec.a_columns.size());
      for (size_t ca : spec.a_columns) y.push_back(other[ca]);
      if (divisor.count(y) != 0) covered.insert(std::move(y));
    }
    if (covered.size() == divisor.size()) {
      emitted.insert(x);
      SYSTOLIC_RETURN_NOT_OK(out.Append(std::move(x)));
    }
  }
  return out;
}

}  // namespace reference
}  // namespace rel
}  // namespace systolic
