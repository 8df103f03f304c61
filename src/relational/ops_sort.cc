#include "relational/ops_sort.h"

#include <algorithm>

#include "relational/ops_reference.h"

namespace systolic {
namespace rel {
namespace sortops {

namespace {

Tuple KeyOf(TupleRef t, const std::vector<size_t>& columns) {
  Tuple key;
  key.reserve(columns.size());
  for (size_t c : columns) key.push_back(t[c]);
  return key;
}

// Sorted copies of the operand tuple vectors.
std::vector<Tuple> Sorted(const Relation& r) { return r.SortedTuples(); }

}  // namespace

Result<Relation> Intersection(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  std::vector<Tuple> sa = Sorted(a);
  std::vector<Tuple> sb = Sorted(b);
  Relation out(a.schema(), RelationKind::kSet);
  size_t i = 0;
  size_t j = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i] < sb[j]) {
      ++i;
    } else if (sb[j] < sa[i]) {
      ++j;
    } else {
      // Emit every duplicate occurrence in A, mirroring the array/reference
      // semantics (one output per surviving A tuple).
      const Tuple& match = sb[j];
      while (i < sa.size() && sa[i] == match) {
        SYSTOLIC_RETURN_NOT_OK(out.Append(sa[i]));
        ++i;
      }
      while (j < sb.size() && sb[j] == match) ++j;
    }
  }
  return out;
}

Result<Relation> Difference(const Relation& a, const Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  std::vector<Tuple> sa = Sorted(a);
  std::vector<Tuple> sb = Sorted(b);
  Relation out(a.schema(), RelationKind::kSet);
  size_t j = 0;
  for (const Tuple& ta : sa) {
    while (j < sb.size() && sb[j] < ta) ++j;
    if (j >= sb.size() || ta < sb[j]) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(ta));
    }
  }
  return out;
}

Result<Relation> RemoveDuplicates(const Relation& a) {
  std::vector<Tuple> sorted = Sorted(a);
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  Relation out(a.schema(), RelationKind::kSet);
  for (const Tuple& t : sorted) {
    SYSTOLIC_RETURN_NOT_OK(out.Append(t));
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
    return reference::Join(a, b, spec);
  }
  SYSTOLIC_ASSIGN_OR_RETURN(Schema out_schema,
                            JoinOutputSchema(a.schema(), b.schema(), spec));

  // Sort (key, row index) pairs for both sides, then merge key groups.
  auto make_keyed = [](const Relation& r, const std::vector<size_t>& columns) {
    std::vector<std::pair<Tuple, size_t>> keyed;
    keyed.reserve(r.num_tuples());
    for (size_t i = 0; i < r.num_tuples(); ++i) {
      keyed.emplace_back(KeyOf(r.tuple(i), columns), i);
    }
    std::sort(keyed.begin(), keyed.end());
    return keyed;
  };
  const auto ka = make_keyed(a, spec.left_columns);
  const auto kb = make_keyed(b, spec.right_columns);

  Relation out(std::move(out_schema), RelationKind::kMulti);
  Tuple joined;
  size_t i = 0;
  size_t j = 0;
  while (i < ka.size() && j < kb.size()) {
    if (ka[i].first < kb[j].first) {
      ++i;
    } else if (kb[j].first < ka[i].first) {
      ++j;
    } else {
      size_t i_end = i;
      while (i_end < ka.size() && ka[i_end].first == ka[i].first) ++i_end;
      size_t j_end = j;
      while (j_end < kb.size() && kb[j_end].first == kb[j].first) ++j_end;
      for (size_t ii = i; ii < i_end; ++ii) {
        for (size_t jj = j; jj < j_end; ++jj) {
          JoinConcatenate(a.tuple(ka[ii].second), b.tuple(kb[jj].second), spec,
                          &joined);
          SYSTOLIC_RETURN_NOT_OK(out.Append(joined));
        }
      }
      i = i_end;
      j = j_end;
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

  std::vector<Tuple> divisor;
  divisor.reserve(b.num_tuples());
  for (TupleRef tb : b.tuples()) divisor.push_back(KeyOf(tb, spec.b_columns));
  std::sort(divisor.begin(), divisor.end());
  divisor.erase(std::unique(divisor.begin(), divisor.end()), divisor.end());

  // Sort A as (quotient, divisor-part) pairs and scan group by group.
  std::vector<std::pair<Tuple, Tuple>> rows;
  rows.reserve(a.num_tuples());
  for (TupleRef ta : a.tuples()) {
    rows.emplace_back(KeyOf(ta, quotient_columns), KeyOf(ta, spec.a_columns));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  Relation out(std::move(out_schema), RelationKind::kSet);
  size_t i = 0;
  while (i < rows.size()) {
    size_t end = i;
    size_t covered = 0;
    while (end < rows.size() && rows[end].first == rows[i].first) {
      if (std::binary_search(divisor.begin(), divisor.end(), rows[end].second)) {
        ++covered;  // rows are deduplicated, so each hit is distinct
      }
      ++end;
    }
    if (covered == divisor.size()) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(rows[i].first));
    }
    i = end;
  }
  return out;
}

}  // namespace sortops
}  // namespace rel
}  // namespace systolic
