#include "relational/relation.h"

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/schema.h"
#include "test_util.h"

namespace systolic {
namespace rel {
namespace {

using systolic::testing::Rel;

TEST(SchemaTest, ColumnLookup) {
  auto d = Domain::Make("d", ValueType::kInt64);
  Schema s({{"name", d}, {"age", d}});
  EXPECT_EQ(s.num_columns(), 2u);
  auto idx = s.ColumnIndex("age");
  ASSERT_OK(idx);
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(s.ColumnIndex("ghost").status().IsNotFound());
}

TEST(SchemaTest, UnionCompatibilityRequiresSameDomainObjects) {
  auto d1 = Domain::Make("d", ValueType::kInt64);
  auto d2 = Domain::Make("d", ValueType::kInt64);  // same name, new object
  Schema a({{"x", d1}});
  Schema b({{"y", d1}});  // different column name, same domain: compatible
  Schema c({{"x", d2}});
  EXPECT_TRUE(a.UnionCompatibleWith(b));
  EXPECT_FALSE(a.UnionCompatibleWith(c));
  EXPECT_TRUE(a.CheckUnionCompatible(c).IsIncompatible());
}

TEST(SchemaTest, UnionCompatibilityRequiresSameArity) {
  auto d = Domain::Make("d", ValueType::kInt64);
  Schema a({{"x", d}});
  Schema b({{"x", d}, {"y", d}});
  EXPECT_FALSE(a.UnionCompatibleWith(b));
}

TEST(SchemaTest, ProjectSelectsAndReorders) {
  auto d = Domain::Make("d", ValueType::kInt64);
  Schema s({{"a", d}, {"b", d}, {"c", d}});
  auto p = s.Project({2, 0});
  ASSERT_OK(p);
  EXPECT_EQ(p->num_columns(), 2u);
  EXPECT_EQ(p->column(0).name, "c");
  EXPECT_EQ(p->column(1).name, "a");
  EXPECT_TRUE(s.Project({3}).status().IsOutOfRange());
}

TEST(SchemaTest, ToStringListsColumns) {
  auto d = Domain::Make("dom", ValueType::kInt64);
  Schema s({{"a", d}, {"b", d}});
  EXPECT_EQ(s.ToString(), "(a:dom, b:dom)");
}

TEST(RelationTest, AppendChecksArity) {
  const Schema schema = MakeIntSchema(2);
  Relation r(schema);
  EXPECT_TRUE(r.Append({1, 2}).ok());
  EXPECT_TRUE(r.Append({1}).IsInvalidArgument());
  EXPECT_TRUE(r.Append({1, 2, 3}).IsInvalidArgument());
  EXPECT_EQ(r.num_tuples(), 1u);
}

TEST(RelationTest, ContainsAndDuplicateFree) {
  const Schema schema = MakeIntSchema(2);
  const Relation r = Rel(schema, {{1, 2}, {3, 4}});
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2, 1}));
  EXPECT_TRUE(r.IsDuplicateFree());
  const Relation dup =
      Rel(schema, {{1, 2}, {1, 2}}, RelationKind::kMulti);
  EXPECT_FALSE(dup.IsDuplicateFree());
}

TEST(RelationTest, ConcatenateRequiresCompatibility) {
  const Schema s1 = MakeIntSchema(1, "p");
  const Schema s2 = MakeIntSchema(1, "q");
  Relation a = Rel(s1, {{1}});
  const Relation b = Rel(s1, {{2}});
  const Relation c = Rel(s2, {{3}});
  EXPECT_TRUE(a.Concatenate(b).ok());
  EXPECT_EQ(a.num_tuples(), 2u);
  EXPECT_TRUE(a.Concatenate(c).IsIncompatible());
}

TEST(RelationTest, FilterBySelectionVector) {
  const Schema schema = MakeIntSchema(1);
  const Relation r = Rel(schema, {{10}, {20}, {30}});
  BitVector keep(3);
  keep.Set(0, true);
  keep.Set(2, true);
  auto filtered = r.Filter(keep);
  ASSERT_OK(filtered);
  ASSERT_EQ(filtered->num_tuples(), 2u);
  EXPECT_EQ(filtered->tuple(0)[0], 10);
  EXPECT_EQ(filtered->tuple(1)[0], 30);
  BitVector wrong(2);
  EXPECT_TRUE(r.Filter(wrong).status().IsInvalidArgument());
}

TEST(RelationTest, ProjectColumnsYieldsMultiRelation) {
  const Schema schema = MakeIntSchema(3);
  const Relation r = Rel(schema, {{1, 2, 3}, {4, 2, 6}});
  auto p = r.ProjectColumns({1});
  ASSERT_OK(p);
  EXPECT_EQ(p->kind(), RelationKind::kMulti);
  EXPECT_EQ(p->tuple(0), (Tuple{2}));
  EXPECT_EQ(p->tuple(1), (Tuple{2}));
}

TEST(RelationTest, SetAndBagEquality) {
  const Schema schema = MakeIntSchema(1);
  const Relation a = Rel(schema, {{1}, {2}});
  const Relation b = Rel(schema, {{2}, {1}});
  const Relation c = Rel(schema, {{1}, {1}, {2}}, RelationKind::kMulti);
  EXPECT_TRUE(a.SetEquals(b));
  EXPECT_TRUE(a.BagEquals(b));
  EXPECT_TRUE(a.SetEquals(c));
  EXPECT_FALSE(a.BagEquals(c));
}

TEST(RelationTest, SortedTuplesIsCanonical) {
  const Schema schema = MakeIntSchema(2);
  const Relation r = Rel(schema, {{3, 1}, {1, 2}, {2, 9}});
  const auto sorted = r.SortedTuples();
  EXPECT_EQ(sorted[0], (Tuple{1, 2}));
  EXPECT_EQ(sorted[2], (Tuple{3, 1}));
}

TEST(RelationTest, ToStringDecodesThroughDomains) {
  auto d = Domain::Make("names", ValueType::kString);
  Schema schema({{"who", d}});
  RelationBuilder builder(schema);
  ASSERT_STATUS_OK(builder.AddRow({Value::String("ada")}));
  const Relation r = builder.Finish();
  EXPECT_NE(r.ToString().find("ada"), std::string::npos);
}

// ---- copy-on-write storage ------------------------------------------------

const Tuple* DataOf(const Relation& r) { return r.tuples().data(); }

TEST(RelationStorageTest, CopiesShareTuples) {
  const Relation original = Rel(MakeIntSchema(2), {{1, 2}, {3, 4}});
  const Relation copy = original;
  EXPECT_EQ(DataOf(copy), DataOf(original));
  Relation assigned(MakeIntSchema(1));
  assigned = original;
  EXPECT_EQ(DataOf(assigned), DataOf(original));
  EXPECT_EQ(assigned.schema().num_columns(), 2u);
  Relation& alias = assigned;
  assigned = alias;  // self-assignment keeps the share
  EXPECT_EQ(assigned.tuples(), original.tuples());
}

TEST(RelationStorageTest, AppendOnEitherSideOfACopyLeavesTheOtherUnchanged) {
  const Schema schema = MakeIntSchema(2);
  Relation left = Rel(schema, {{1, 2}, {3, 4}});
  Relation right = left;
  ASSERT_STATUS_OK(left.Append({5, 6}));
  EXPECT_EQ(right.tuples(), (std::vector<Tuple>{{1, 2}, {3, 4}}));
  EXPECT_EQ(left.tuples(), (std::vector<Tuple>{{1, 2}, {3, 4}, {5, 6}}));

  Relation again = left;
  ASSERT_STATUS_OK(again.Append({7, 8}));
  EXPECT_EQ(left.tuples(), (std::vector<Tuple>{{1, 2}, {3, 4}, {5, 6}}));
  EXPECT_EQ(again.num_tuples(), 4u);
  // A rejected append writes nothing, shared or not.
  Relation shared = left;
  EXPECT_TRUE(shared.Append({9}).IsInvalidArgument());
  EXPECT_EQ(DataOf(shared), DataOf(left));
}

TEST(RelationStorageTest,
     ConcatenateOnEitherSideOfACopyLeavesTheOtherUnchanged) {
  const Schema schema = MakeIntSchema(2);
  const Relation extra = Rel(schema, {{9, 9}});
  Relation left = Rel(schema, {{1, 2}});
  Relation right = left;
  ASSERT_STATUS_OK(left.Concatenate(extra));
  EXPECT_EQ(right.tuples(), (std::vector<Tuple>{{1, 2}}));
  EXPECT_EQ(left.tuples(), (std::vector<Tuple>{{1, 2}, {9, 9}}));
  ASSERT_STATUS_OK(right.Concatenate(left));
  EXPECT_EQ(left.tuples(), (std::vector<Tuple>{{1, 2}, {9, 9}}));
  EXPECT_EQ(right.tuples(), (std::vector<Tuple>{{1, 2}, {1, 2}, {9, 9}}));
  EXPECT_EQ(extra.tuples(), (std::vector<Tuple>{{9, 9}}));

  // Concatenating onto an empty relation shares the source's tuples, and
  // a later append to either side still copies first.
  Relation empty(schema);
  ASSERT_STATUS_OK(empty.Concatenate(left));
  EXPECT_EQ(DataOf(empty), DataOf(left));
  ASSERT_STATUS_OK(left.Append({5, 5}));
  EXPECT_EQ(empty.tuples(), (std::vector<Tuple>{{1, 2}, {9, 9}}));
  EXPECT_EQ(empty.schema().column(0).domain, schema.column(0).domain);
}

TEST(RelationStorageTest, SelfConcatenationDoublesTheTuples) {
  const Schema schema = MakeIntSchema(2);
  Relation sole = Rel(schema, {{1, 2}, {3, 4}});
  ASSERT_STATUS_OK(sole.Concatenate(sole));
  EXPECT_EQ(sole.tuples(),
            (std::vector<Tuple>{{1, 2}, {3, 4}, {1, 2}, {3, 4}}));

  // Shared with a copy: onto itself, and onto the copy's same tuples.
  Relation shared = Rel(schema, {{5, 6}});
  Relation copy = shared;
  ASSERT_STATUS_OK(shared.Concatenate(shared));
  EXPECT_EQ(shared.tuples(), (std::vector<Tuple>{{5, 6}, {5, 6}}));
  ASSERT_STATUS_OK(copy.Concatenate(Relation(copy)));
  EXPECT_EQ(copy.tuples(), (std::vector<Tuple>{{5, 6}, {5, 6}}));
  const Relation before = copy;
  ASSERT_STATUS_OK(copy.Concatenate(before));
  EXPECT_EQ(copy.num_tuples(), 4u);
  EXPECT_EQ(before.num_tuples(), 2u);
}

TEST(RelationStorageTest, MovedFromRelationIsEmptyAndUsable) {
  const Schema schema = MakeIntSchema(2);
  Relation source = Rel(schema, {{1, 2}, {3, 4}});
  const Tuple* data = DataOf(source);
  Relation moved = std::move(source);
  EXPECT_EQ(DataOf(moved), data);
  EXPECT_EQ(moved.arity(), 2u);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.num_tuples(), 0u);
  EXPECT_TRUE(source.tuples().empty());
  EXPECT_TRUE(source.IsDuplicateFree());
  EXPECT_FALSE(source.ToString().empty());

  // Assigned again, it is an ordinary relation.
  source = Rel(schema, {{7, 8}});
  ASSERT_STATUS_OK(source.Append({9, 9}));
  EXPECT_EQ(source.tuples(), (std::vector<Tuple>{{7, 8}, {9, 9}}));
  EXPECT_EQ(moved.tuples(), (std::vector<Tuple>{{1, 2}, {3, 4}}));

  Relation target = Rel(schema, {{0, 0}});
  target = std::move(moved);
  EXPECT_EQ(DataOf(target), data);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  moved = target;
  EXPECT_EQ(DataOf(moved), data);
  ASSERT_STATUS_OK(moved.Append({5, 6}));
  EXPECT_EQ(target.tuples(), (std::vector<Tuple>{{1, 2}, {3, 4}}));
}

TEST(RelationStorageTest, FilterAndProjectOfASharedRelationBehaveAsBefore) {
  const Schema schema = MakeIntSchema(3);
  const Relation original = Rel(schema, {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Relation shared = original;
  BitVector keep(3);
  keep.Set(0, true);
  keep.Set(2, true);
  auto filtered = shared.Filter(keep);
  ASSERT_OK(filtered);
  EXPECT_EQ(filtered->tuples(), (std::vector<Tuple>{{1, 2, 3}, {7, 8, 9}}));
  auto projected = shared.ProjectColumns({2, 0});
  ASSERT_OK(projected);
  EXPECT_EQ(projected->tuples(),
            (std::vector<Tuple>{{3, 1}, {6, 4}, {9, 7}}));
  EXPECT_EQ(projected->kind(), RelationKind::kMulti);

  // Results own fresh storage: writing them leaves the source alone.
  ASSERT_STATUS_OK(filtered->Append({0, 0, 0}));
  ASSERT_STATUS_OK(projected->Append({0, 0}));
  EXPECT_EQ(DataOf(shared), DataOf(original));
  EXPECT_EQ(shared.tuples(),
            (std::vector<Tuple>{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}));
}

TEST(TupleToStringTest, Renders) {
  EXPECT_EQ(TupleToString({1, 2, 3}), "(1, 2, 3)");
  EXPECT_EQ(TupleToString({}), "()");
}

}  // namespace
}  // namespace rel
}  // namespace systolic
