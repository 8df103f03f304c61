#include "relational/catalog.h"

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "test_util.h"

namespace systolic {
namespace rel {
namespace {

using systolic::testing::Rel;

TEST(CatalogTest, CreateAndGetDomain) {
  Catalog catalog;
  auto created = catalog.CreateDomain("names", ValueType::kString);
  ASSERT_OK(created);
  auto fetched = catalog.GetDomain("names");
  ASSERT_OK(fetched);
  EXPECT_EQ(created->get(), fetched->get()) << "same underlying domain object";
}

TEST(CatalogTest, DuplicateDomainRejected) {
  Catalog catalog;
  ASSERT_OK(catalog.CreateDomain("d", ValueType::kInt64));
  EXPECT_TRUE(catalog.CreateDomain("d", ValueType::kInt64)
                  .status()
                  .IsAlreadyExists());
}

TEST(CatalogTest, MissingDomainNotFound) {
  Catalog catalog;
  EXPECT_TRUE(catalog.GetDomain("ghost").status().IsNotFound());
}

TEST(CatalogTest, PutGetRelation) {
  Catalog catalog;
  const Schema schema = MakeIntSchema(1);
  EXPECT_TRUE(catalog.GetRelation("r").status().IsNotFound());
  catalog.PutRelation("r", Rel(schema, {{1}, {2}}));
  auto fetched = catalog.GetRelation("r");
  ASSERT_OK(fetched);
  EXPECT_EQ((*fetched)->num_tuples(), 2u);
}

TEST(CatalogTest, PutReplaces) {
  Catalog catalog;
  const Schema schema = MakeIntSchema(1);
  catalog.PutRelation("r", Rel(schema, {{1}}));
  catalog.PutRelation("r", Rel(schema, {{1}, {2}, {3}}));
  EXPECT_EQ((*catalog.GetRelation("r"))->num_tuples(), 3u);
}

TEST(CatalogTest, RelationNamesSorted) {
  Catalog catalog;
  const Schema schema = MakeIntSchema(1);
  catalog.PutRelation("zeta", Rel(schema, {}));
  catalog.PutRelation("alpha", Rel(schema, {}));
  EXPECT_EQ(catalog.RelationNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace rel
}  // namespace systolic
