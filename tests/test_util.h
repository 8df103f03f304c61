#ifndef SYSTOLIC_TESTS_TEST_UTIL_H_
#define SYSTOLIC_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdlib>
#include <vector>

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/relation.h"
#include "util/logging.h"

namespace systolic {
namespace testing {

/// Builds an int64 relation over `schema` from literal rows; aborts on error
/// (tests construct only valid relations this way).
inline rel::Relation Rel(const rel::Schema& schema,
                         const std::vector<std::vector<int64_t>>& rows,
                         rel::RelationKind kind = rel::RelationKind::kSet) {
  auto result = rel::MakeRelation(schema, rows, kind);
  SYSTOLIC_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// Size of a fuzz suite's seed sweep: SYSTOLIC_FUZZ_SEEDS when it parses to
/// a positive count, replacing the suite's default `fallback` (the nightly
/// lane widens sweeps with it, smoke legs narrow them to one seed).
inline size_t FuzzSeedCount(size_t fallback) {
  if (const char* env = std::getenv("SYSTOLIC_FUZZ_SEEDS")) {
    const unsigned long parsed = std::strtoul(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return fallback;
}

/// θ-join operands whose first columns straddle: A and B are independent
/// draws over one domain (`options.base`; B with `options.b_num_tuples`
/// tuples and the next seed), so `<` pairs on column 0 match.
/// rel::GenerateOverlappingPair lifts A's fresh tuples above B's domain,
/// where such a join can match only A's copies of B's tuples.
inline rel::RelationPair StraddlingPair(const rel::Schema& schema,
                                        const rel::PairOptions& options) {
  rel::GeneratorOptions b = options.base;
  b.num_tuples = options.b_num_tuples;
  b.seed = options.base.seed + 1;
  auto a_draw = rel::GenerateRelation(schema, options.base);
  auto b_draw = rel::GenerateRelation(schema, b);
  SYSTOLIC_CHECK(a_draw.ok() && b_draw.ok());
  return {std::move(a_draw).ValueOrDie(), std::move(b_draw).ValueOrDie()};
}

/// gtest helpers for Status/Result expressions.
#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).status().ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).status().ToString()
#define ASSERT_STATUS_OK(expr) \
  do {                         \
    auto _st = (expr);         \
    ASSERT_TRUE(_st.ok()) << _st.ToString(); \
  } while (0)

}  // namespace testing
}  // namespace systolic

#endif  // SYSTOLIC_TESTS_TEST_UTIL_H_
