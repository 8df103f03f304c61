#include "relational/op_specs.h"

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "test_util.h"

namespace systolic {
namespace rel {
namespace {

struct SpecFixture {
  std::shared_ptr<Domain> dk = Domain::Make("k", ValueType::kInt64);
  std::shared_ptr<Domain> dv = Domain::Make("v", ValueType::kInt64);
  std::shared_ptr<Domain> ds = Domain::Make("s", ValueType::kString);
  Schema a{{{"ka", dk}, {"va", dv}}};
  Schema b{{{"kb", dk}, {"vb", dv}}};
};

TEST(JoinSpecTest, ValidEquiJoin) {
  SpecFixture f;
  JoinSpec spec{{0}, {0}, ComparisonOp::kEq};
  EXPECT_TRUE(ValidateJoinSpec(f.a, f.b, spec).ok());
}

TEST(JoinSpecTest, EmptyColumnsRejected) {
  SpecFixture f;
  JoinSpec spec{{}, {}, ComparisonOp::kEq};
  EXPECT_TRUE(ValidateJoinSpec(f.a, f.b, spec).IsInvalidArgument());
}

TEST(JoinSpecTest, LengthMismatchRejected) {
  SpecFixture f;
  JoinSpec spec{{0, 1}, {0}, ComparisonOp::kEq};
  EXPECT_TRUE(ValidateJoinSpec(f.a, f.b, spec).IsInvalidArgument());
}

TEST(JoinSpecTest, OutOfRangeRejected) {
  SpecFixture f;
  JoinSpec left_bad{{5}, {0}, ComparisonOp::kEq};
  EXPECT_TRUE(ValidateJoinSpec(f.a, f.b, left_bad).IsOutOfRange());
  JoinSpec right_bad{{0}, {5}, ComparisonOp::kEq};
  EXPECT_TRUE(ValidateJoinSpec(f.a, f.b, right_bad).IsOutOfRange());
}

TEST(JoinSpecTest, DomainMismatchRejected) {
  SpecFixture f;
  JoinSpec spec{{0}, {1}, ComparisonOp::kEq};  // k vs v domains
  EXPECT_TRUE(ValidateJoinSpec(f.a, f.b, spec).IsIncompatible());
}

TEST(JoinSpecTest, OrderComparisonNeedsOrderedDomain) {
  SpecFixture f;
  Schema sa{{{"name", f.ds}}};
  Schema sb{{{"name", f.ds}}};
  JoinSpec eq{{0}, {0}, ComparisonOp::kEq};
  EXPECT_TRUE(ValidateJoinSpec(sa, sb, eq).ok())
      << "equality is fine on dictionary domains";
  JoinSpec lt{{0}, {0}, ComparisonOp::kLt};
  EXPECT_TRUE(ValidateJoinSpec(sa, sb, lt).IsInvalidArgument());
}

TEST(JoinOutputSchemaTest, EquiJoinDropsRedundantColumn) {
  SpecFixture f;
  JoinSpec spec{{0}, {0}, ComparisonOp::kEq};
  auto schema = JoinOutputSchema(f.a, f.b, spec);
  ASSERT_OK(schema);
  ASSERT_EQ(schema->num_columns(), 3u);
  EXPECT_EQ(schema->column(0).name, "ka");
  EXPECT_EQ(schema->column(1).name, "va");
  EXPECT_EQ(schema->column(2).name, "vb");
}

TEST(JoinOutputSchemaTest, ThetaJoinKeepsAllColumns) {
  SpecFixture f;
  JoinSpec spec{{0}, {0}, ComparisonOp::kLt};
  auto schema = JoinOutputSchema(f.a, f.b, spec);
  ASSERT_OK(schema);
  EXPECT_EQ(schema->num_columns(), 4u);
}

TEST(JoinConcatenateTest, MatchesSchemaShape) {
  SpecFixture f;
  JoinSpec eq{{0}, {0}, ComparisonOp::kEq};
  Tuple out{7, 7, 7, 7, 7};  // replaced, not appended to
  JoinConcatenate(Tuple{1, 2}, Tuple{1, 9}, eq, &out);
  EXPECT_EQ(out, (Tuple{1, 2, 9}));
  JoinSpec lt{{0}, {0}, ComparisonOp::kLt};
  JoinConcatenate(Tuple{1, 2}, Tuple{5, 9}, lt, &out);
  EXPECT_EQ(out, (Tuple{1, 2, 5, 9}));
}

TEST(DivisionSpecTest, ValidRestrictedCase) {
  SpecFixture f;
  Schema divisor{{{"b1", f.dv}}};
  DivisionSpec spec{{1}, {0}};
  EXPECT_TRUE(ValidateDivisionSpec(f.a, divisor, spec).ok());
}

TEST(DivisionSpecTest, NoQuotientColumnsRejected) {
  SpecFixture f;
  Schema divisor{{{"b1", f.dk}, {"b2", f.dv}}};
  DivisionSpec spec{{0, 1}, {0, 1}};
  EXPECT_TRUE(ValidateDivisionSpec(f.a, divisor, spec).IsInvalidArgument());
}

TEST(DivisionSpecTest, DuplicateIndicesRejected) {
  SpecFixture f;
  Schema divisor{{{"b1", f.dv}, {"b2", f.dv}}};
  DivisionSpec spec{{1, 1}, {0, 1}};
  EXPECT_TRUE(ValidateDivisionSpec(f.a, divisor, spec).IsInvalidArgument());
}

TEST(DivisionSpecTest, DomainMismatchRejected) {
  SpecFixture f;
  Schema divisor{{{"b1", f.dk}}};
  DivisionSpec spec{{1}, {0}};  // va(v) vs b1(k)
  EXPECT_TRUE(ValidateDivisionSpec(f.a, divisor, spec).IsIncompatible());
}

TEST(DivisionQuotientColumnsTest, ComplementInOrder) {
  SpecFixture f;
  Schema wide{{{"a", f.dk}, {"b", f.dv}, {"c", f.dk}, {"d", f.dv}}};
  DivisionSpec spec{{1, 2}, {0, 1}};
  EXPECT_EQ(DivisionQuotientColumns(wide, spec),
            (std::vector<size_t>{0, 3}));
}

TEST(DivisionOutputSchemaTest, QuotientSchema) {
  SpecFixture f;
  DivisionSpec spec{{1}, {0}};
  auto schema = DivisionOutputSchema(f.a, spec);
  ASSERT_OK(schema);
  ASSERT_EQ(schema->num_columns(), 1u);
  EXPECT_EQ(schema->column(0).name, "ka");
}

}  // namespace
}  // namespace rel
}  // namespace systolic
