// Stress suite: larger workloads through every layer, to catch scaling bugs
// (quiescence bounds, tag ranges, tiling arithmetic) that small tests miss.
// Kept to a few seconds of runtime in Release.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "arrays/division_array.h"
#include "arrays/pattern_match.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_hash.h"
#include "system/machine.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace {

using rel::Relation;
using rel::Schema;

TEST(StressTest, TiledIntersection200x200) {
  const Schema schema = rel::MakeIntSchema(3);
  rel::PairOptions options;
  options.base.num_tuples = 200;
  options.base.domain_size = 40;
  options.base.seed = 71;
  options.b_num_tuples = 200;
  options.overlap_fraction = 0.35;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  db::DeviceConfig device;
  device.rows = 63;  // capacity 32: 7x7 = 49 passes
  device.mode = arrays::FeedModePolicy::kMarching;
  db::Engine engine(device);
  auto result = engine.Intersect(pair->a, pair->b);
  ASSERT_OK(result);
  EXPECT_EQ(result->stats.passes, 49u);
  auto oracle = rel::hashops::Intersection(pair->a, pair->b);
  ASSERT_OK(oracle);
  EXPECT_EQ(result->relation.tuples(), oracle->tuples());
}

TEST(StressTest, DivisionWithThousandPairs) {
  auto dx = rel::Domain::Make("x", rel::ValueType::kInt64);
  auto dy = rel::Domain::Make("y", rel::ValueType::kInt64);
  const Schema sa{{{"x", dx}, {"y", dy}}};
  const Schema sb{{{"y", dy}}};
  Rng rng(5);
  Relation a(sa, rel::RelationKind::kMulti);
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_STATUS_OK(a.Append({rng.Uniform(0, 30), rng.Uniform(0, 12)}));
  }
  Relation b(sb, rel::RelationKind::kSet);
  for (int64_t y = 0; y < 6; ++y) {
    ASSERT_STATUS_OK(b.Append({y}));
  }
  rel::DivisionSpec spec{{1}, {0}};
  auto systolic_result = arrays::SystolicDivision(a, b, spec);
  ASSERT_OK(systolic_result);
  auto oracle = rel::hashops::Division(a, b, spec);
  ASSERT_OK(oracle);
  EXPECT_TRUE(systolic_result->relation.BagEquals(*oracle));
}

TEST(StressTest, PatternMatchLongText) {
  Rng rng(9);
  std::string text;
  for (size_t i = 0; i < 5000; ++i) {
    text.push_back(static_cast<char>('a' + rng.Uniform(0, 3)));
  }
  const std::string pattern = "abc?d";
  auto result = arrays::SystolicPatternMatch(text, pattern);
  ASSERT_OK(result);
  size_t expected = 0;
  for (size_t i = 0; i + pattern.size() <= text.size(); ++i) {
    bool match = true;
    for (size_t k = 0; k < pattern.size() && match; ++k) {
      match = pattern[k] == '?' || text[i + k] == pattern[k];
    }
    if (match) ++expected;
  }
  EXPECT_EQ(result->positions.size(), expected);
  EXPECT_LE(result->cycles, text.size() + 4 * pattern.size() + 32);
}

TEST(StressTest, MachineTwentyStepTransaction) {
  const Schema schema = rel::MakeIntSchema(2);
  machine::MachineConfig config;
  config.num_memories = 48;
  config.device.rows = 31;
  config.device_counts[machine::OpKind::kIntersect] = 3;
  config.scheduling = machine::DeviceScheduling::kLpt;
  machine::Machine m(config);

  for (int i = 0; i < 8; ++i) {
    rel::GeneratorOptions g;
    g.num_tuples = 40;
    g.domain_size = 24;
    g.seed = 100 + i;
    auto r = rel::GenerateRelation(schema, g);
    ASSERT_OK(r);
    m.disk().Put("r" + std::to_string(i), std::move(*r));
    ASSERT_STATUS_OK(m.LoadFromDisk("r" + std::to_string(i)));
  }

  machine::Transaction txn;
  // Level 0: 4 intersections; level 1: 2 unions; level 2: difference chain.
  txn.Intersect("r0", "r1", "i0")
      .Intersect("r2", "r3", "i1")
      .Intersect("r4", "r5", "i2")
      .Intersect("r6", "r7", "i3")
      .Union("i0", "i1", "u0")
      .Union("i2", "i3", "u1")
      .Difference("u0", "u1", "d0")
      .RemoveDuplicates("d0", "final");
  auto report = m.Execute(txn);
  ASSERT_OK(report);
  EXPECT_EQ(report->steps.size(), 8u);
  EXPECT_LT(report->makespan_seconds, report->serial_seconds);
  EXPECT_TRUE(m.Buffer("final").ok());
}

TEST(StressTest, MultiChipTiledIntersection200x200MatchesSerial) {
  // The TSan gate for the chip pool: a 49-tile intersection raced across 4
  // chips, repeated, must be byte-identical to the serial run every time.
  const Schema schema = rel::MakeIntSchema(3);
  rel::PairOptions options;
  options.base.num_tuples = 200;
  options.base.domain_size = 40;
  options.base.seed = 71;
  options.b_num_tuples = 200;
  options.overlap_fraction = 0.35;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  db::DeviceConfig serial_device;
  serial_device.rows = 63;  // capacity 32: 7x7 = 49 tiles
  serial_device.mode = arrays::FeedModePolicy::kMarching;
  db::Engine serial(serial_device);
  auto expected = serial.Intersect(pair->a, pair->b);
  ASSERT_OK(expected);

  db::DeviceConfig parallel_device = serial_device;
  parallel_device.num_chips = 4;
  db::Engine parallel(parallel_device);
  for (int round = 0; round < 3; ++round) {
    auto result = parallel.Intersect(pair->a, pair->b);
    ASSERT_OK(result);
    EXPECT_EQ(result->stats.passes, 49u);
    EXPECT_EQ(result->relation.tuples(), expected->relation.tuples());
    EXPECT_EQ(result->stats.cycles, expected->stats.cycles);
    EXPECT_LT(result->stats.makespan_cycles, result->stats.cycles);
  }
}

TEST(StressTest, MultiChipMixedOpsUnderSharedPool) {
  // Several operations back to back on one multi-chip engine: the pool is
  // reused across batches of different tile shapes and result types.
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 120;
  options.base.domain_size = 25;
  options.base.seed = 83;
  options.b_num_tuples = 120;
  options.overlap_fraction = 0.4;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  db::DeviceConfig serial_device;
  serial_device.rows = 15;
  db::Engine serial(serial_device);
  db::DeviceConfig parallel_device = serial_device;
  parallel_device.num_chips = 7;
  db::Engine parallel(parallel_device);

  auto su = serial.Union(pair->a, pair->b);
  auto pu = parallel.Union(pair->a, pair->b);
  ASSERT_OK(su);
  ASSERT_OK(pu);
  EXPECT_EQ(su->relation.tuples(), pu->relation.tuples());

  rel::JoinSpec spec{{0}, {0}, rel::ComparisonOp::kEq};
  auto sj = serial.Join(pair->a, pair->b, spec);
  auto pj = parallel.Join(pair->a, pair->b, spec);
  ASSERT_OK(sj);
  ASSERT_OK(pj);
  EXPECT_EQ(sj->relation.tuples(), pj->relation.tuples());

  auto sd = serial.RemoveDuplicates(pair->a);
  auto pd = parallel.RemoveDuplicates(pair->a);
  ASSERT_OK(sd);
  ASSERT_OK(pd);
  EXPECT_EQ(sd->relation.tuples(), pd->relation.tuples());
}

TEST(StressTest, MultiChipMachineTransaction) {
  // The §9 machine with multi-chip devices: per-step compute time uses the
  // critical path, so the multi-chip machine's makespan must not exceed the
  // single-chip machine's, with identical results.
  const Schema schema = rel::MakeIntSchema(2);
  auto run = [&](size_t chips) {
    machine::MachineConfig config;
    config.num_memories = 24;
    config.device.rows = 15;
    config.device.num_chips = chips;
    machine::Machine m(config);
    for (int i = 0; i < 4; ++i) {
      rel::GeneratorOptions g;
      g.num_tuples = 60;
      g.domain_size = 24;
      g.seed = 200 + i;
      auto r = rel::GenerateRelation(schema, g);
      EXPECT_TRUE(r.ok());
      m.disk().Put("r" + std::to_string(i), std::move(*r));
      EXPECT_TRUE(m.LoadFromDisk("r" + std::to_string(i)).ok());
    }
    machine::Transaction txn;
    txn.Intersect("r0", "r1", "i0")
        .Intersect("r2", "r3", "i1")
        .Union("i0", "i1", "u0");
    auto report = m.Execute(txn);
    EXPECT_TRUE(report.ok());
    auto out = m.Buffer("u0");
    EXPECT_TRUE(out.ok());
    // An owning copy: the machine, and the view's codes, end here.
    const rel::TupleRange tuples = (*out)->tuples();
    return std::make_pair(
        std::vector<rel::Tuple>(tuples.begin(), tuples.end()),
        report->makespan_seconds);
  };
  const auto [serial_tuples, serial_makespan] = run(1);
  const auto [parallel_tuples, parallel_makespan] = run(4);
  EXPECT_EQ(serial_tuples, parallel_tuples);
  EXPECT_LT(parallel_makespan, serial_makespan);
}

TEST(StressTest, DeepDedupChainStaysStable) {
  // Repeated dedup must be a fixed point even over many iterations with
  // fresh engines and tiny tiled devices.
  const Schema schema = rel::MakeIntSchema(1);
  rel::GeneratorOptions g;
  g.num_tuples = 120;
  g.domain_size = 10;
  g.seed = 55;
  auto input = rel::GenerateRelation(schema, g);
  ASSERT_OK(input);

  db::DeviceConfig device;
  device.rows = 9;
  db::Engine engine(device);
  auto first = engine.RemoveDuplicates(*input);
  ASSERT_OK(first);
  Relation current = first->relation;
  for (int round = 0; round < 5; ++round) {
    auto next = engine.RemoveDuplicates(current);
    ASSERT_OK(next);
    EXPECT_EQ(next->relation.tuples(), current.tuples());
    current = next->relation;
  }
  EXPECT_EQ(current.num_tuples(), 10u);  // domain has 10 values
}

TEST(StressTest, CopyOnWriteDetachRacesTheLastOtherOwnersRelease) {
  // Writers copy one shared relation and append to their copies while a
  // reader drops its own. The writer that finds itself the sole owner
  // appends in place, so under TSan this checks that its writes are ordered
  // after every other owner's reads. Each writer must see the original
  // tuples plus its own, whichever way its append went.
  const Schema schema = rel::MakeIntSchema(2);
  std::vector<rel::Tuple> base;
  for (int64_t i = 0; i < 64; ++i) base.push_back({i, 2 * i});
  constexpr size_t kWriters = 3;
  for (int round = 0; round < 100; ++round) {
    Relation original = testing::Rel(schema, base);
    std::vector<Relation> slots(kWriters, original);
    Relation reader_copy = std::move(original);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      int64_t sum = 0;
      for (const rel::Tuple& t : reader_copy.tuples()) sum += t[1];
      EXPECT_EQ(sum, 64 * 63);
      reader_copy = Relation(schema);  // drops this owner's share
    });
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        while (!go.load()) std::this_thread::yield();
        Relation copy = slots[w];
        slots[w] = Relation(schema);
        const rel::Tuple mine = {-1, static_cast<int64_t>(w)};
        EXPECT_TRUE(copy.Append(mine).ok());
        ASSERT_EQ(copy.num_tuples(), base.size() + 1);
        EXPECT_TRUE(
            std::equal(base.begin(), base.end(), copy.tuples().begin()));
        EXPECT_EQ(copy.tuples().back(), mine);
      });
    }
    go = true;
    for (std::thread& thread : threads) thread.join();
  }
}

}  // namespace
}  // namespace systolic
