#include "fastpath/kernels.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "relational/tuple_hash.h"

namespace systolic {
namespace fastpath {

namespace {

constexpr size_t kWordBits = 64;

/// The all-true initial mask over n lanes. Trailing bits beyond n stay zero
/// so whole-word tests never resurrect out-of-range pairs.
std::vector<uint64_t> AllLanes(size_t n) {
  std::vector<uint64_t> words((n + kWordBits - 1) / kWordBits, 0);
  const size_t full = n / kWordBits;
  for (size_t w = 0; w < full; ++w) words[w] = ~uint64_t{0};
  if (n % kWordBits != 0) words[full] = (uint64_t{1} << (n % kWordBits)) - 1;
  return words;
}

/// Refines one word in place: clears every set bit whose pair fails
/// op(a_value, column[j]). Only surviving bits are visited — cleared pairs
/// (dead pulses) cost nothing.
inline void RefineWord(uint64_t& word, size_t base, rel::Code a_value,
                       const std::vector<rel::Code>& column,
                       rel::ComparisonOp op) {
  for (uint64_t rest = word; rest != 0; rest &= rest - 1) {
    const size_t j = base + static_cast<size_t>(std::countr_zero(rest));
    if (!rel::ApplyComparison(op, a_value, column[j])) {
      word &= ~(uint64_t{1} << (j - base));
    }
  }
}

/// The codes of `t` in `columns`, in order: the hash key equality compares.
rel::Tuple KeyOf(const rel::Tuple& t, const std::vector<size_t>& columns) {
  rel::Tuple key;
  key.reserve(columns.size());
  for (size_t c : columns) key.push_back(t[c]);
  return key;
}

}  // namespace

std::vector<rel::Code> PackColumn(const rel::Relation& b, size_t column) {
  std::vector<rel::Code> out;
  out.reserve(b.num_tuples());
  for (const rel::Tuple& t : b.tuples()) out.push_back(t[column]);
  return out;
}

std::vector<uint64_t> MatchMaskWords(
    const rel::Tuple& a_i, const std::vector<size_t>& a_columns,
    const std::vector<std::vector<rel::Code>>& b_columns_packed,
    const std::vector<rel::ComparisonOp>& ops, size_t n_b) {
  std::vector<uint64_t> words = AllLanes(n_b);
  for (size_t c = 0; c < a_columns.size(); ++c) {
    const rel::Code a_value = a_i[a_columns[c]];
    bool live = false;
    for (size_t w = 0; w < words.size(); ++w) {
      if (words[w] == 0) continue;
      RefineWord(words[w], w * kWordBits, a_value, b_columns_packed[c],
                 ops[c]);
      live = live || words[w] != 0;
    }
    if (!live) break;
  }
  return words;
}

BitVector MembershipBits(const rel::Relation& a, const rel::Relation& b,
                         const std::vector<size_t>& a_columns,
                         const std::vector<size_t>& b_columns,
                         arrays::EdgeRule edge_rule) {
  // Equality needs no pairwise scan. Index each key's first row in B: the
  // edge rule admits pair (i, j) for every j, or only for j < i, so a_i
  // matches iff its key occurs in B at all, or first occurs before row i.
  std::unordered_map<rel::Tuple, size_t, rel::TupleHash> first_row;
  first_row.reserve(b.num_tuples());
  for (size_t j = 0; j < b.num_tuples(); ++j) {
    first_row.emplace(KeyOf(b.tuple(j), b_columns), j);
  }
  BitVector bits(a.num_tuples(), false);
  for (size_t i = 0; i < a.num_tuples(); ++i) {
    const auto it = first_row.find(KeyOf(a.tuple(i), a_columns));
    if (it != first_row.end() &&
        (edge_rule == arrays::EdgeRule::kAllTrue || it->second < i)) {
      bits.Set(i, true);
    }
  }
  return bits;
}

std::vector<std::pair<size_t, size_t>> JoinMatches(
    const rel::Relation& a, const rel::Relation& b,
    const std::vector<size_t>& left_columns,
    const std::vector<size_t>& right_columns, rel::ComparisonOp op) {
  std::vector<std::pair<size_t, size_t>> matches;
  const size_t n_b = b.num_tuples();
  if (op == rel::ComparisonOp::kEq) {
    // Build on B's join columns (rows in ascending order), probe in A order.
    std::unordered_map<rel::Tuple, std::vector<size_t>, rel::TupleHash> rows;
    rows.reserve(n_b);
    for (size_t j = 0; j < n_b; ++j) {
      rows[KeyOf(b.tuple(j), right_columns)].push_back(j);
    }
    for (size_t i = 0; i < a.num_tuples(); ++i) {
      const auto it = rows.find(KeyOf(a.tuple(i), left_columns));
      if (it == rows.end()) continue;
      for (size_t j : it->second) matches.emplace_back(i, j);
    }
    return matches;
  }
  std::vector<std::vector<rel::Code>> packed;
  packed.reserve(right_columns.size());
  for (size_t c : right_columns) packed.push_back(PackColumn(b, c));
  const std::vector<rel::ComparisonOp> ops(left_columns.size(), op);
  for (size_t i = 0; i < a.num_tuples(); ++i) {
    const std::vector<uint64_t> words =
        MatchMaskWords(a.tuple(i), left_columns, packed, ops, n_b);
    for (size_t w = 0; w < words.size(); ++w) {
      for (uint64_t rest = words[w]; rest != 0; rest &= rest - 1) {
        matches.emplace_back(
            i, w * kWordBits + static_cast<size_t>(std::countr_zero(rest)));
      }
    }
  }
  return matches;
}

DivisionMatches MatchDivision(const rel::Relation& a, const rel::Relation& b,
                              const std::vector<size_t>& quotient_columns,
                              const std::vector<size_t>& a_columns,
                              const std::vector<size_t>& b_columns) {
  DivisionMatches matches;
  std::unordered_map<rel::Tuple, size_t, rel::TupleHash> values;
  values.reserve(b.num_tuples());
  for (size_t j = 0; j < b.num_tuples(); ++j) {
    if (values.emplace(KeyOf(b.tuple(j), b_columns), matches.value_rows.size())
            .second) {
      matches.value_rows.push_back(j);
    }
  }
  std::unordered_map<rel::Tuple, size_t, rel::TupleHash> keys;
  keys.reserve(a.num_tuples());
  matches.key.reserve(a.num_tuples());
  for (size_t i = 0; i < a.num_tuples(); ++i) {
    const rel::Tuple& t = a.tuple(i);
    const auto [key, inserted] =
        keys.emplace(KeyOf(t, quotient_columns), matches.key_rows.size());
    if (inserted) matches.key_rows.push_back(i);
    matches.key.push_back(key->second);
    const auto value = values.find(KeyOf(t, a_columns));
    if (value != values.end()) {
      matches.flags.emplace_back(key->second, value->second);
    }
  }
  std::sort(matches.flags.begin(), matches.flags.end());
  matches.flags.erase(std::unique(matches.flags.begin(), matches.flags.end()),
                      matches.flags.end());
  return matches;
}

std::vector<rel::Tuple> DivisionQuotient(
    const rel::Relation& a, const std::vector<size_t>& quotient_columns,
    const DivisionMatches& matches) {
  // A key's run of flags counts the distinct divisor values it matched.
  std::vector<size_t> matched(matches.key_rows.size(), 0);
  for (const auto& flag : matches.flags) ++matched[flag.first];
  std::vector<rel::Tuple> quotient;
  for (size_t x = 0; x < matched.size(); ++x) {
    if (matched[x] == matches.value_rows.size()) {
      quotient.push_back(KeyOf(a.tuple(matches.key_rows[x]), quotient_columns));
    }
  }
  return quotient;
}

BitVector SelectionBits(
    const rel::Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates) {
  const size_t n = a.num_tuples();
  // Here the packed dimension is the tuple index i: one mask over all of A,
  // refined predicate by predicate.
  std::vector<uint64_t> words = AllLanes(n);
  for (const arrays::SelectionPredicate& p : predicates) {
    const std::vector<rel::Code> column = PackColumn(a, p.column);
    bool live = false;
    for (size_t w = 0; w < words.size(); ++w) {
      if (words[w] == 0) continue;
      // The selection cell compares tuple element (left) to its preloaded
      // constant (right).
      for (uint64_t rest = words[w]; rest != 0; rest &= rest - 1) {
        const size_t i =
            w * kWordBits + static_cast<size_t>(std::countr_zero(rest));
        if (!rel::ApplyComparison(p.op, column[i], p.constant)) {
          words[w] &= ~(uint64_t{1} << (i - w * kWordBits));
        }
      }
      live = live || words[w] != 0;
    }
    if (!live) break;
  }
  BitVector bits(n, false);
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t rest = words[w]; rest != 0; rest &= rest - 1) {
      bits.Set(w * kWordBits + static_cast<size_t>(std::countr_zero(rest)),
               true);
    }
  }
  return bits;
}

}  // namespace fastpath
}  // namespace systolic
