#include "relational/ops_hash.h"

#include <unordered_map>
#include <unordered_set>

#include "relational/ops_reference.h"
#include "relational/tuple_hash.h"

namespace systolic {
namespace rel {
namespace hashops {

namespace {

std::unordered_set<TupleRef, TupleHash> BuildSet(const Relation& r) {
  std::unordered_set<TupleRef, TupleHash> set;
  set.reserve(r.num_tuples());
  for (TupleRef t : r.tuples()) set.insert(t);
  return set;
}

}  // namespace

Result<Relation> Intersection(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  const auto b_set = BuildSet(b);
  Relation out(a.schema(), RelationKind::kSet);
  for (TupleRef ta : a.tuples()) {
    if (b_set.count(ta) != 0) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(ta));
    }
  }
  return out;
}

Result<Relation> Difference(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  const auto b_set = BuildSet(b);
  Relation out(a.schema(), RelationKind::kSet);
  for (TupleRef ta : a.tuples()) {
    if (b_set.count(ta) == 0) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(ta));
    }
  }
  return out;
}

Result<Relation> RemoveDuplicates(const Relation& a) {
  std::unordered_set<TupleRef, TupleHash> seen;
  seen.reserve(a.num_tuples());
  Relation out(a.schema(), RelationKind::kSet);
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
  SYSTOLIC_RETURN_NOT_OK(ValidateJoinSpec(a.schema(), b.schema(), spec));
  if (spec.op != ComparisonOp::kEq) {
    // An order predicate cannot be served by hashing; delegate to the
    // reference nested loop, which has identical semantics.
    return reference::Join(a, b, spec);
  }
  SYSTOLIC_ASSIGN_OR_RETURN(Schema out_schema,
                            JoinOutputSchema(a.schema(), b.schema(), spec));
  // Build on B (keyed by its join columns), probe with A, A-major output
  // order to match the reference implementation.
  std::unordered_map<KeyRef, std::vector<size_t>, TupleHash> build;
  build.reserve(b.num_tuples());
  for (size_t j = 0; j < b.num_tuples(); ++j) {
    build[KeyRef(b.tuple(j), spec.right_columns)].push_back(j);
  }
  Relation out(std::move(out_schema), RelationKind::kMulti);
  Tuple joined;
  for (TupleRef ta : a.tuples()) {
    auto it = build.find(KeyRef(ta, spec.left_columns));
    if (it == build.end()) continue;
    for (size_t j : it->second) {
      JoinConcatenate(ta, b.tuple(j), spec, &joined);
      SYSTOLIC_RETURN_NOT_OK(out.Append(joined));
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

  std::unordered_set<KeyRef, TupleHash> divisor;
  for (TupleRef tb : b.tuples()) divisor.insert(KeyRef(tb, spec.b_columns));

  // Group A by quotient value; per group, count distinct covered divisor
  // values. Preserve first-occurrence order of quotient values.
  std::unordered_map<KeyRef, std::unordered_set<KeyRef, TupleHash>, TupleHash>
      covered_by_group;
  std::vector<KeyRef> group_order;
  for (TupleRef ta : a.tuples()) {
    const KeyRef x(ta, quotient_columns);
    auto [it, inserted] = covered_by_group.try_emplace(x);
    if (inserted) group_order.push_back(x);
    const KeyRef y(ta, spec.a_columns);
    if (divisor.count(y) != 0) it->second.insert(y);
  }

  Relation out(std::move(out_schema), RelationKind::kSet);
  Tuple quotient;
  for (const KeyRef& x : group_order) {
    if (covered_by_group.at(x).size() == divisor.size()) {
      quotient.clear();
      for (size_t k = 0; k < x.size(); ++k) quotient.push_back(x[k]);
      SYSTOLIC_RETURN_NOT_OK(out.Append(quotient));
    }
  }
  return out;
}

}  // namespace hashops
}  // namespace rel
}  // namespace systolic
