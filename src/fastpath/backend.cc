#include "fastpath/backend.h"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>
#include <utility>

#include "fastpath/analytic_timing.h"
#include "fastpath/kernels.h"

namespace systolic {
namespace fastpath {

using rel::Relation;

const char* BackendPolicyToString(BackendPolicy policy) {
  return policy == BackendPolicy::kFast ? "fast" : "rtl";
}

const char* BackendToString(Backend backend) {
  return backend == Backend::kFast ? "fast" : "rtl";
}

bool ParseBackendPolicy(const std::string& text, BackendPolicy* policy) {
  if (text == "rtl") {
    *policy = BackendPolicy::kRtl;
  } else if (text == "fast") {
    *policy = BackendPolicy::kFast;
  } else {
    return false;
  }
  return true;
}

Result<arrays::DivisionArrayResult> FastDivision(const Relation& a,
                                                 const Relation& b,
                                                 const rel::DivisionSpec& spec) {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateDivisionSpec(a.schema(), b.schema(), spec));
  const std::vector<size_t> quotient_columns =
      rel::DivisionQuotientColumns(a.schema(), spec);
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema out_schema,
                            rel::DivisionOutputSchema(a.schema(), spec));
  arrays::DivisionArrayResult result(
      Relation(std::move(out_schema), rel::RelationKind::kSet));
  if (a.num_tuples() == 0) {
    return result;
  }

  // The same §2.3 sub-tuple packing the RTL driver performs: fresh codes in
  // first-occurrence order, A's divisor part and B sharing one code space.
  std::map<rel::Tuple, rel::Code> x_codes;
  std::vector<rel::Tuple> x_order;  // distinct quotient values, in A order
  std::map<rel::Tuple, rel::Code> y_codes;
  const auto pack = [](const rel::Tuple& tuple,
                       const std::vector<size_t>& columns,
                       std::map<rel::Tuple, rel::Code>* codes,
                       std::vector<rel::Tuple>* order) {
    rel::Tuple sub;
    sub.reserve(columns.size());
    for (size_t c : columns) sub.push_back(tuple[c]);
    auto [it, inserted] =
        codes->emplace(std::move(sub), static_cast<rel::Code>(codes->size()));
    if (inserted && order != nullptr) order->push_back(it->first);
    return it->second;
  };
  std::vector<std::pair<rel::Code, rel::Code>> pairs;  // (x, y) per A tuple
  pairs.reserve(a.num_tuples());
  for (const rel::Tuple& ta : a.tuples()) {
    const rel::Code x = pack(ta, quotient_columns, &x_codes, &x_order);
    const rel::Code y = pack(ta, spec.a_columns, &y_codes, nullptr);
    pairs.emplace_back(x, y);
  }
  std::vector<rel::Code> divisor;  // distinct divisor values
  {
    std::map<rel::Tuple, rel::Code> seen;
    for (const rel::Tuple& tb : b.tuples()) {
      const rel::Code packed = pack(tb, spec.b_columns, &y_codes, nullptr);
      rel::Tuple sub;
      sub.reserve(spec.b_columns.size());
      for (size_t c : spec.b_columns) sub.push_back(tb[c]);
      if (seen.emplace(std::move(sub), packed).second) divisor.push_back(packed);
    }
  }

  const size_t P = x_order.size();
  const size_t Q = divisor.size();
  result.dividend_rows = P;
  result.divisor_cells = Q;
  // M: latest pulse at which a gated y element enters its dividend row
  // (feed position + row index) — the data-dependent term of the phase-1
  // quiescence cycle.
  size_t m_feed = 0;
  for (size_t t = 0; t < pairs.size(); ++t) {
    m_feed = std::max(m_feed, t + static_cast<size_t>(pairs[t].first));
  }
  result.info.cycles = DivisionCycles(pairs.size(), P, Q, m_feed);

  // Row p's divisor cells raise a match flag per distinct divisor value that
  // some (x = p, y) pair carried past them; the phase-2 AND probe survives
  // iff every flag of the row is up. Flags are one packed word run per row.
  std::unordered_map<rel::Code, size_t> divisor_index;
  divisor_index.reserve(Q);
  for (size_t q = 0; q < Q; ++q) divisor_index.emplace(divisor[q], q);
  constexpr size_t kWordBits = 64;
  const size_t q_words = (Q + kWordBits - 1) / kWordBits;
  std::vector<std::vector<uint64_t>> matched(P,
                                             std::vector<uint64_t>(q_words, 0));
  for (const auto& [x, y] : pairs) {
    const auto it = divisor_index.find(y);
    if (it == divisor_index.end()) continue;  // y not in the divisor: no flag
    matched[static_cast<size_t>(x)][it->second / kWordBits] |=
        uint64_t{1} << (it->second % kWordBits);
  }
  for (size_t p = 0; p < P; ++p) {
    size_t flags = 0;
    for (uint64_t word : matched[p]) {
      flags += static_cast<size_t>(std::popcount(word));
    }
    if (flags == Q) {
      SYSTOLIC_RETURN_NOT_OK(result.relation.Append(x_order[p]));
    }
  }
  return result;
}

Result<arrays::SelectionResult> FastSelect(
    const Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates) {
  SYSTOLIC_RETURN_NOT_OK(arrays::ValidateSelection(a.schema(), predicates));
  if (predicates.empty()) {
    arrays::SelectionResult all(a);
    all.selected = BitVector(a.num_tuples(), true);
    return all;
  }
  if (a.num_tuples() == 0) {
    arrays::SelectionResult empty(Relation(a.schema(), rel::RelationKind::kSet));
    return empty;
  }
  std::vector<size_t> columns;
  std::vector<rel::ComparisonOp> ops;
  std::vector<rel::Code> constants;
  for (const arrays::SelectionPredicate& p : predicates) {
    columns.push_back(p.column);
    ops.push_back(p.op);
    constants.push_back(p.constant);
  }
  BitVector bits = SelectionBits(a, columns, ops, constants);
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  arrays::SelectionResult result(std::move(out));
  result.selected = std::move(bits);
  result.info.cycles = SelectionCycles(a.num_tuples(), predicates.size());
  return result;
}

}  // namespace fastpath
}  // namespace systolic
