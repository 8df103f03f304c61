// End-to-end integration: multi-operation pipelines run entirely through
// the systolic machinery (CSV in, arrays for every operator, CSV out),
// checked against the same pipeline on the software baselines.

#include <sstream>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "relational/catalog.h"
#include "relational/csv.h"
#include "relational/generator.h"
#include "relational/ops_hash.h"
#include "system/machine.h"
#include "test_util.h"

namespace systolic {
namespace {

using db::DeviceConfig;
using db::Engine;
using rel::Relation;
using rel::Schema;

TEST(IntegrationTest, CsvToArraysToCsv) {
  // Ingest two CSV relations over one catalog, intersect on the array,
  // write the result back to CSV, re-read it, and compare.
  rel::Catalog catalog;
  auto d_name = *catalog.CreateDomain("name", rel::ValueType::kString);
  auto d_age = *catalog.CreateDomain("age", rel::ValueType::kInt64);
  Schema schema({{"name", d_name}, {"age", d_age}});

  std::istringstream csv_a("name,age\nada,36\nalan,41\ngrace,45\n");
  std::istringstream csv_b("name,age\nalan,41\ngrace,44\n");
  auto a = rel::ReadCsv(csv_a, schema);
  auto b = rel::ReadCsv(csv_b, schema);
  ASSERT_OK(a);
  ASSERT_OK(b);

  Engine engine;
  auto intersection = engine.Intersect(*a, *b);
  ASSERT_OK(intersection);
  ASSERT_EQ(intersection->relation.num_tuples(), 1u);

  std::ostringstream out;
  ASSERT_STATUS_OK(rel::WriteCsv(intersection->relation, out));
  std::istringstream back(out.str());
  auto reread = rel::ReadCsv(back, schema);
  ASSERT_OK(reread);
  EXPECT_TRUE(reread->BagEquals(intersection->relation));
  EXPECT_NE(out.str().find("alan,41"), std::string::npos);
}

TEST(IntegrationTest, FiveOperatorPipelineMatchesBaselines) {
  // π_{0,1}( (A ∪ B) - (A ∩ B) ) then dedup — symmetric difference with a
  // projection, every operator on the array, vs the hash baselines.
  const Schema schema = rel::MakeIntSchema(3);
  rel::PairOptions options;
  options.base.num_tuples = 28;
  options.base.domain_size = 5;
  options.base.seed = 77;
  options.b_num_tuples = 24;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  Engine engine;
  auto u = engine.Union(pair->a, pair->b);
  ASSERT_OK(u);
  auto i = engine.Intersect(pair->a, pair->b);
  ASSERT_OK(i);
  auto i_set = engine.RemoveDuplicates(i->relation);
  ASSERT_OK(i_set);
  auto sym = engine.Subtract(u->relation, i_set->relation);
  ASSERT_OK(sym);
  auto projected = engine.Project(sym->relation, {0, 1});
  ASSERT_OK(projected);

  auto hu = rel::hashops::Union(pair->a, pair->b);
  auto hi = rel::hashops::Intersection(pair->a, pair->b);
  ASSERT_OK(hu);
  ASSERT_OK(hi);
  auto hi_set = rel::hashops::RemoveDuplicates(*hi);
  ASSERT_OK(hi_set);
  auto hsym = rel::hashops::Difference(*hu, *hi_set);
  ASSERT_OK(hsym);
  auto hprojected = rel::hashops::Projection(*hsym, {0, 1});
  ASSERT_OK(hprojected);

  EXPECT_TRUE(projected->relation.SetEquals(*hprojected));
}

TEST(IntegrationTest, SamePipelineOnTinyDeviceAgrees) {
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 30;
  options.base.domain_size = 4;
  options.base.seed = 101;
  options.b_num_tuples = 26;
  options.overlap_fraction = 0.4;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  Engine big;  // unbounded
  DeviceConfig tiny_config;
  tiny_config.rows = 3;
  tiny_config.columns = 2;
  Engine tiny(tiny_config);

  std::vector<rel::Tuple> big_result;
  for (Engine* engine : {&big, &tiny}) {
    auto u = engine->Union(pair->a, pair->b);
    ASSERT_OK(u);
    auto d = engine->Subtract(u->relation, pair->b);
    ASSERT_OK(d);
    if (engine == &big) {
      big_result.assign(d->relation.tuples().begin(),
                        d->relation.tuples().end());
    } else {
      EXPECT_EQ(d->relation.tuples(), big_result);
      EXPECT_GT(d->stats.passes, 1u) << "tiny device must have tiled";
    }
  }
}

TEST(IntegrationTest, MachineRunsJoinProjectDividePipeline) {
  // The §9 machine executing a heterogeneous plan: join, project, divide.
  auto dk = rel::Domain::Make("student", rel::ValueType::kInt64);
  auto dc = rel::Domain::Make("course", rel::ValueType::kInt64);
  Schema enrolled_schema({{"student", dk}, {"course", dc}});
  Schema required_schema({{"course", dc}});

  machine::MachineConfig config;
  config.num_memories = 8;
  machine::Machine m(config);
  m.disk().Put("enrolled",
               *rel::MakeRelation(enrolled_schema, {{1, 10},
                                                    {1, 11},
                                                    {1, 12},
                                                    {2, 10},
                                                    {2, 12},
                                                    {3, 11},
                                                    {3, 10},
                                                    {3, 12}}));
  m.disk().Put("required", *rel::MakeRelation(required_schema, {{10}, {12}}));
  ASSERT_STATUS_OK(m.LoadFromDisk("enrolled"));
  ASSERT_STATUS_OK(m.LoadFromDisk("required"));

  machine::Transaction txn;
  txn.Divide("enrolled", "required", rel::DivisionSpec{{1}, {0}}, "qualified");
  auto report = m.Execute(txn);
  ASSERT_OK(report);
  auto qualified = m.Buffer("qualified");
  ASSERT_OK(qualified);
  // Students enrolled in both course 10 and 12: 1, 2, 3 all have 10 and 12?
  // student 1: 10,11,12 yes; 2: 10,12 yes; 3: 11,10,12 yes.
  EXPECT_EQ((*qualified)->num_tuples(), 3u);
}

}  // namespace
}  // namespace systolic
