#include "core/engine.h"

#include <chrono>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_reference.h"
#include "systolic/simulator.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace db {
namespace {

using arrays::FeedModePolicy;
using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

TEST(EngineTest, UnboundedDeviceRunsSinglePass) {
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = Rel(schema, {{1, 1}, {2, 2}, {3, 3}});
  const Relation b = Rel(schema, {{2, 2}});
  Engine engine;
  auto result = engine.Intersect(a, b);
  ASSERT_OK(result);
  EXPECT_EQ(result->stats.passes, 1u);
  EXPECT_EQ(result->relation.num_tuples(), 1u);
}

TEST(EngineTest, BoundedDeviceTilesIntersection) {
  const Schema schema = rel::MakeIntSchema(1);
  std::vector<std::vector<int64_t>> rows_a, rows_b;
  for (int64_t i = 0; i < 20; ++i) rows_a.push_back({i});
  for (int64_t i = 10; i < 30; ++i) rows_b.push_back({i});
  const Relation a = Rel(schema, rows_a);
  const Relation b = Rel(schema, rows_b);

  DeviceConfig device;
  device.rows = 7;  // marching capacity 4 tuples per operand per pass
  device.mode = FeedModePolicy::kMarching;
  Engine engine(device);
  auto result = engine.Intersect(a, b);
  ASSERT_OK(result);
  // ceil(20/4) x ceil(20/4) = 25 passes.
  EXPECT_EQ(result->stats.passes, 25u);
  auto oracle = rel::reference::Intersection(a, b);
  ASSERT_OK(oracle);
  EXPECT_TRUE(result->relation.BagEquals(*oracle));
}

TEST(EngineTest, WidthOverflowRejected) {
  const Schema schema = rel::MakeIntSchema(4);
  const Relation a = Rel(schema, {{1, 2, 3, 4}});
  DeviceConfig device;
  device.columns = 3;
  Engine engine(device);
  auto result = engine.Intersect(a, a);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacity());
}

TEST(EngineTest, UnionAndProjectComposeDedup) {
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = Rel(schema, {{1, 10}, {2, 20}});
  const Relation b = Rel(schema, {{2, 20}, {3, 30}});
  Engine engine;
  auto u = engine.Union(a, b);
  ASSERT_OK(u);
  EXPECT_EQ(u->relation.num_tuples(), 3u);
  auto p = engine.Project(a, {0});
  ASSERT_OK(p);
  EXPECT_EQ(p->relation.arity(), 1u);
  EXPECT_EQ(p->relation.num_tuples(), 2u);
}

TEST(EngineTest, EmptyOperands) {
  const Schema schema = rel::MakeIntSchema(1);
  const Relation empty = Rel(schema, {});
  const Relation a = Rel(schema, {{1}});
  Engine engine;
  auto i1 = engine.Intersect(empty, a);
  ASSERT_OK(i1);
  EXPECT_TRUE(i1->relation.empty());
  auto i2 = engine.Intersect(a, empty);
  ASSERT_OK(i2);
  EXPECT_TRUE(i2->relation.empty());
  auto d = engine.Subtract(a, empty);
  ASSERT_OK(d);
  EXPECT_TRUE(d->relation.BagEquals(a));
  auto r = engine.RemoveDuplicates(empty);
  ASSERT_OK(r);
  EXPECT_TRUE(r->relation.empty());
}

TEST(EngineTest, EmptyOperandsStampTheDeviceFields) {
  // An empty operand leaves no tile to run, yet every operator still reports
  // the backend and chips it ran on; pass counts keep each operator's
  // convention for trivially empty passes.
  const Schema schema = rel::MakeIntSchema(2);
  const Relation empty = Rel(schema, {});
  const Relation a = Rel(schema, {{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}});
  DeviceConfig device;
  device.rows = 5;  // marching capacity 3: A splits into two blocks
  device.mode = FeedModePolicy::kMarching;
  device.num_chips = 3;
  device.backend = fastpath::Backend::kFast;
  Engine engine(device);
  const auto expect_stamped = [](const Result<EngineResult>& result,
                                 size_t passes) {
    ASSERT_OK(result);
    EXPECT_EQ(result->stats.backend, fastpath::Backend::kFast);
    EXPECT_TRUE(result->stats.analytic_timing);
    EXPECT_EQ(result->stats.num_chips, 3u);
    EXPECT_EQ(result->stats.healthy_chips, 3u);
    EXPECT_EQ(result->stats.passes, passes);
  };
  expect_stamped(engine.Intersect(empty, a), 0);
  expect_stamped(engine.RemoveDuplicates(empty), 0);
  expect_stamped(engine.Intersect(a, empty), 2);  // one per A block
  const rel::JoinSpec join_spec{{0}, {0}, rel::ComparisonOp::kEq};
  expect_stamped(engine.Join(empty, a, join_spec), 0);
  expect_stamped(engine.Join(a, empty, join_spec), 0);
  auto divisor = a.ProjectColumns({1});
  ASSERT_OK(divisor);
  expect_stamped(engine.Divide(empty, *divisor, rel::DivisionSpec{{1}, {0}}),
                 1);
}

TEST(EngineTest, StatsAccumulateAcrossPasses) {
  const Schema schema = rel::MakeIntSchema(1);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 12; ++i) rows.push_back({i});
  const Relation a = Rel(schema, rows);
  DeviceConfig device;
  device.rows = 5;  // capacity 3
  device.mode = FeedModePolicy::kMarching;
  Engine engine(device);
  auto result = engine.Intersect(a, a);
  ASSERT_OK(result);
  EXPECT_EQ(result->stats.passes, 16u);
  EXPECT_GT(result->stats.cycles, 0u);
  EXPECT_GT(result->stats.Utilization(), 0.0);
}

TEST(EngineTest, ZeroChipsBehavesAsOneChip) {
  DeviceConfig device;
  device.num_chips = 0;
  Engine engine(device);
  EXPECT_EQ(engine.num_chips(), 1u);
  const Schema schema = rel::MakeIntSchema(1);
  const Relation a = Rel(schema, {{1}, {2}, {1}});
  auto result = engine.RemoveDuplicates(a);
  ASSERT_OK(result);
  EXPECT_EQ(result->relation.num_tuples(), 2u);
}

/// This process's thread count from /proc/self/status; 0 when unreadable.
size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      size_t threads = 0;
      status >> threads;
      return threads;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// This process's thread count once two reads 10 ms apart agree (a joined
/// worker leaves the count a moment after join returns), or after 2 s.
size_t SteadyThreads() {
  size_t threads = ProcessThreads();
  for (int tries = 0; tries < 200; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const size_t again = ProcessThreads();
    if (again == threads) break;
    threads = again;
  }
  return threads;
}

TEST(EngineTest, OnlyRtlEnginesStartChipThreads) {
  // A sanitizer runtime may start a helper thread along with the process's
  // first thread; start one first, so the baseline counts the helper.
  std::thread([] {}).join();
  const size_t before = SteadyThreads();
  if (before == 0) GTEST_SKIP() << "/proc/self/status is not readable";
  DeviceConfig fast;
  fast.num_chips = 8;
  fast.backend = fastpath::Backend::kFast;
  {
    // Fast tiles run whole operands on the caller's thread.
    const Engine engine(fast);
    EXPECT_EQ(SteadyThreads(), before);
  }
  DeviceConfig rtl = fast;
  rtl.backend = fastpath::Backend::kRtl;
  {
    const Engine engine(rtl);
    EXPECT_EQ(SteadyThreads(), before + 8);
  }
  ASSERT_EQ(SteadyThreads(), before);
  DeviceConfig faulted = fast;
  faulted.faults = std::make_shared<faults::FaultPlan>(
      faults::FaultPlan::Uniform(61, 8, 0.0, 0.0, 0.0));
  {
    // A fault plan sends fast tiles back to the RTL simulator.
    const Engine engine(faulted);
    EXPECT_EQ(SteadyThreads(), before + 8);
  }
}

TEST(EngineTest, SerialMakespanEqualsCycleSum) {
  const Schema schema = rel::MakeIntSchema(1);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 12; ++i) rows.push_back({i});
  const Relation a = Rel(schema, rows);
  DeviceConfig device;
  device.rows = 5;
  Engine engine(device);
  auto result = engine.Intersect(a, a);
  ASSERT_OK(result);
  EXPECT_EQ(result->stats.makespan_cycles, result->stats.cycles);
}

TEST(EngineTest, MakespanUtilizationDenominatorsAreDocumented) {
  const Schema schema = rel::MakeIntSchema(1);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 24; ++i) rows.push_back({i});
  const Relation a = Rel(schema, rows);
  DeviceConfig device;
  device.rows = 5;  // many tiles, so chips have work to share

  // Serial device: makespan == cycles and num_chips == 1, so both
  // utilisations read the same fraction.
  Engine serial(device);
  auto s = serial.Intersect(a, a);
  ASSERT_OK(s);
  EXPECT_DOUBLE_EQ(s->stats.MakespanUtilization(), s->stats.Utilization());

  // Multi-chip device: the wall-clock denominator counts every chip over
  // the critical path. makespan x chips >= summed cycles, so the
  // wall-clock utilisation can only be lower than the serial fraction;
  // with balanced tiles it must still be positive and a valid fraction.
  DeviceConfig parallel_device = device;
  parallel_device.num_chips = 3;
  Engine parallel(parallel_device);
  auto p = parallel.Intersect(a, a);
  ASSERT_OK(p);
  EXPECT_EQ(p->stats.num_chips, 3u);
  EXPECT_GT(p->stats.MakespanUtilization(), 0.0);
  EXPECT_LE(p->stats.MakespanUtilization(), 1.0);
  EXPECT_LE(p->stats.MakespanUtilization(), p->stats.Utilization());
  // The serial fraction is chip-count independent by construction.
  EXPECT_DOUBLE_EQ(p->stats.Utilization(), s->stats.Utilization());

  // Degenerate stats report zero, not NaN.
  ExecStats empty;
  EXPECT_EQ(empty.Utilization(), 0.0);
  EXPECT_EQ(empty.MakespanUtilization(), 0.0);
}

TEST(EngineTest, MultiChipMatchesSerialOnEveryOperation) {
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 24;
  options.base.domain_size = 6;
  options.base.seed = 42;
  options.b_num_tuples = 20;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  DeviceConfig serial_config;
  serial_config.rows = 5;
  Engine serial(serial_config);
  DeviceConfig parallel_config = serial_config;
  parallel_config.num_chips = 3;
  Engine parallel(parallel_config);

  auto check = [](const Result<EngineResult>& s,
                  const Result<EngineResult>& p) {
    ASSERT_OK(s);
    ASSERT_OK(p);
    EXPECT_EQ(s->relation.tuples(), p->relation.tuples());
    EXPECT_EQ(s->stats.passes, p->stats.passes);
    EXPECT_EQ(s->stats.cycles, p->stats.cycles);
    EXPECT_EQ(s->stats.busy_cell_cycles, p->stats.busy_cell_cycles);
    EXPECT_LE(p->stats.makespan_cycles, s->stats.makespan_cycles);
  };

  check(serial.Intersect(pair->a, pair->b),
        parallel.Intersect(pair->a, pair->b));
  check(serial.Subtract(pair->a, pair->b),
        parallel.Subtract(pair->a, pair->b));
  check(serial.RemoveDuplicates(pair->a), parallel.RemoveDuplicates(pair->a));
  check(serial.Union(pair->a, pair->b), parallel.Union(pair->a, pair->b));
  check(serial.Project(pair->a, {0}), parallel.Project(pair->a, {0}));
  rel::JoinSpec join_spec{{0}, {0}, rel::ComparisonOp::kEq};
  check(serial.Join(pair->a, pair->b, join_spec),
        parallel.Join(pair->a, pair->b, join_spec));
  auto divisor = pair->b.ProjectColumns({1});
  ASSERT_OK(divisor);
  rel::DivisionSpec div_spec{{1}, {0}};
  check(serial.Divide(pair->a, *divisor, div_spec),
        parallel.Divide(pair->a, *divisor, div_spec));
  std::vector<arrays::SelectionPredicate> predicates{
      {0, rel::ComparisonOp::kLt, 4}};
  check(serial.Select(pair->a, predicates),
        parallel.Select(pair->a, predicates));
}

TEST(EngineTest, MultiChipWidthOverflowStillRejected) {
  const Schema schema = rel::MakeIntSchema(4);
  const Relation a = Rel(schema, {{1, 2, 3, 4}});
  DeviceConfig device;
  device.columns = 3;
  device.num_chips = 4;
  Engine engine(device);
  auto result = engine.Intersect(a, a);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacity());
}

// --- Tiling equivalence property: for every operation, a small physical
// device must produce exactly the same relation as the unbounded device and
// the reference oracle. ---

struct TilingParam {
  size_t device_rows;
  size_t n_a;
  size_t n_b;
  FeedModePolicy mode;
  uint64_t seed;
};

class TilingSweep : public ::testing::TestWithParam<TilingParam> {};

TEST_P(TilingSweep, IntersectionDifferenceDedupMatchOracle) {
  const TilingParam p = GetParam();
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = p.n_a;
  options.base.domain_size = 6;
  options.base.seed = p.seed;
  options.b_num_tuples = p.n_b;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  DeviceConfig device;
  device.rows = p.device_rows;
  device.mode = p.mode;
  Engine engine(device);

  auto inter = engine.Intersect(pair->a, pair->b);
  ASSERT_OK(inter);
  auto inter_oracle = rel::reference::Intersection(pair->a, pair->b);
  ASSERT_OK(inter_oracle);
  EXPECT_EQ(inter->relation.tuples(), inter_oracle->tuples());

  auto diff = engine.Subtract(pair->a, pair->b);
  ASSERT_OK(diff);
  auto diff_oracle = rel::reference::Difference(pair->a, pair->b);
  ASSERT_OK(diff_oracle);
  EXPECT_EQ(diff->relation.tuples(), diff_oracle->tuples());

  auto dedup = engine.RemoveDuplicates(pair->a);
  ASSERT_OK(dedup);
  auto dedup_oracle = rel::reference::RemoveDuplicates(pair->a);
  ASSERT_OK(dedup_oracle);
  EXPECT_EQ(dedup->relation.tuples(), dedup_oracle->tuples());
}

TEST_P(TilingSweep, JoinMatchesOracle) {
  const TilingParam p = GetParam();
  auto dk = rel::Domain::Make("k", rel::ValueType::kInt64);
  auto dv = rel::Domain::Make("v", rel::ValueType::kInt64);
  const Schema sa{{{"v", dv}, {"k", dk}}};
  const Schema sb{{{"k", dk}, {"v", dv}}};
  rel::GeneratorOptions ga;
  ga.num_tuples = p.n_a;
  ga.domain_size = 5;
  ga.seed = p.seed;
  auto a = rel::GenerateRelation(sa, ga);
  ASSERT_OK(a);
  rel::GeneratorOptions gb = ga;
  gb.num_tuples = p.n_b;
  gb.seed = p.seed + 77;
  auto b = rel::GenerateRelation(sb, gb);
  ASSERT_OK(b);

  DeviceConfig device;
  device.rows = p.device_rows;
  device.mode = p.mode;
  Engine engine(device);

  rel::JoinSpec spec{{1}, {0}, rel::ComparisonOp::kEq};
  auto join = engine.Join(*a, *b, spec);
  ASSERT_OK(join);
  auto oracle = rel::reference::Join(*a, *b, spec);
  ASSERT_OK(oracle);
  EXPECT_EQ(join->relation.tuples(), oracle->tuples())
      << "tiled join must reproduce A-major pair order";
  if (p.device_rows > 0) {
    EXPECT_GT(join->stats.passes, 0u);
  }
}

TEST_P(TilingSweep, DivisionMatchesOracle) {
  const TilingParam p = GetParam();
  auto dk = rel::Domain::Make("k", rel::ValueType::kInt64);
  auto dv = rel::Domain::Make("v", rel::ValueType::kInt64);
  const Schema sa{{{"x", dk}, {"y", dv}}};
  const Schema sb{{{"y", dv}}};
  Rng rng(p.seed);
  rel::RelationBuilder ba(sa, rel::RelationKind::kMulti);
  for (size_t i = 0; i < p.n_a; ++i) {
    ASSERT_STATUS_OK(ba.AddRow({rel::Value::Int64(rng.Uniform(0, 5)),
                                rel::Value::Int64(rng.Uniform(0, 4))}));
  }
  rel::RelationBuilder bb(sb, rel::RelationKind::kMulti);
  for (size_t i = 0; i < std::max<size_t>(1, p.n_b / 4); ++i) {
    ASSERT_STATUS_OK(bb.AddRow({rel::Value::Int64(rng.Uniform(0, 4))}));
  }
  const Relation a = ba.Finish();
  const Relation b = bb.Finish();

  DeviceConfig device;
  device.rows = p.device_rows;
  device.columns = 2;  // at most 2 divisor cells per pass
  device.mode = p.mode;
  Engine engine(device);
  rel::DivisionSpec spec{{1}, {0}};
  auto q = engine.Divide(a, b, spec);
  ASSERT_OK(q);
  auto oracle = rel::reference::Division(a, b, spec);
  ASSERT_OK(oracle);
  EXPECT_EQ(q->relation.tuples(), oracle->tuples());
}

INSTANTIATE_TEST_SUITE_P(
    DeviceShapes, TilingSweep,
    ::testing::Values(TilingParam{0, 18, 14, FeedModePolicy::kMarching, 1},
                      TilingParam{3, 18, 14, FeedModePolicy::kMarching, 2},
                      TilingParam{5, 18, 14, FeedModePolicy::kMarching, 3},
                      TilingParam{7, 30, 30, FeedModePolicy::kMarching, 4},
                      TilingParam{1, 7, 9, FeedModePolicy::kMarching, 5},
                      TilingParam{0, 18, 14, FeedModePolicy::kFixedB, 6},
                      TilingParam{4, 18, 14, FeedModePolicy::kFixedB, 7},
                      TilingParam{2, 30, 30, FeedModePolicy::kFixedB, 8},
                      TilingParam{1, 7, 9, FeedModePolicy::kFixedB, 9}));

// --- Fault injection and recovery (DESIGN S20): dead chips are
// quarantined, transient corruption is detected and retried, and the
// recovered output is bit-identical to a fault-free run. ---

rel::RelationPair FaultWorkload(uint64_t seed) {
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 24;
  options.base.domain_size = 6;
  options.base.seed = seed;
  options.b_num_tuples = 20;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  SYSTOLIC_CHECK(pair.ok());
  return *std::move(pair);
}

DeviceConfig FaultyConfig(uint64_t seed, size_t chips, double rate,
                          std::initializer_list<size_t> dead,
                          double shadow = 0) {
  DeviceConfig device;
  device.rows = 5;  // small tiles so every workload exercises the scheduler
  device.num_chips = chips;
  auto plan = std::make_shared<faults::FaultPlan>(
      faults::FaultPlan::Uniform(seed, chips, rate, rate / 2, rate / 4));
  for (size_t c : dead) plan->chip(c).dead = true;
  device.faults = std::move(plan);
  device.recovery.shadow_fraction = shadow;
  return device;
}

TEST(EngineFaultTest, ZeroRatePlanChangesNothing) {
  const auto pair = FaultWorkload(51);
  DeviceConfig clean_config;
  clean_config.rows = 5;
  clean_config.num_chips = 2;
  Engine clean(clean_config);
  Engine faulty(FaultyConfig(51, 2, 0.0, {}));
  auto expected = clean.Intersect(pair.a, pair.b);
  auto got = faulty.Intersect(pair.a, pair.b);
  ASSERT_OK(expected);
  ASSERT_OK(got);
  EXPECT_EQ(got->relation.tuples(), expected->relation.tuples());
  EXPECT_EQ(got->stats.faults_detected, 0u);
  EXPECT_EQ(got->stats.tile_retries, 0u);
  EXPECT_EQ(got->stats.healthy_chips, 2u);
}

TEST(EngineFaultTest, SelectReportsEveryChip) {
  const auto pair = FaultWorkload(54);
  Engine faulty(FaultyConfig(54, 3, 0.0, {}));
  auto got = faulty.Select(
      pair.a, {arrays::SelectionPredicate{0, rel::ComparisonOp::kGe, 2}});
  ASSERT_OK(got);
  EXPECT_EQ(got->stats.passes, 1u);
  EXPECT_EQ(got->stats.num_chips, 3u);
  EXPECT_EQ(got->stats.healthy_chips, 3u);
}

TEST(EngineFaultTest, DeadChipIsQuarantinedAndWorkMigrates) {
  const auto pair = FaultWorkload(52);
  DeviceConfig clean_config;
  clean_config.rows = 5;
  Engine clean(clean_config);
  auto expected = clean.Intersect(pair.a, pair.b);
  ASSERT_OK(expected);

  Engine faulty(FaultyConfig(52, 2, 0.0, {1}));
  auto got = faulty.Intersect(pair.a, pair.b);
  ASSERT_OK(got);
  EXPECT_EQ(got->relation.tuples(), expected->relation.tuples());
  // The dead chip refused its first tile, was quarantined, and every tile
  // ended up on the surviving chip.
  ASSERT_NE(faulty.health(), nullptr);
  EXPECT_EQ(faulty.health()->state(1), ChipState::kQuarantined);
  EXPECT_EQ(faulty.health()->num_usable(), 1u);
  EXPECT_GE(got->stats.faults_detected, 1u);
  EXPECT_GE(got->stats.tile_retries, 1u);
  EXPECT_EQ(got->stats.healthy_chips, 1u);
}

TEST(EngineFaultTest, AllChipsDeadIsUnavailable) {
  const auto pair = FaultWorkload(53);
  Engine faulty(FaultyConfig(53, 2, 0.0, {0, 1}));
  auto got = faulty.Intersect(pair.a, pair.b);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  // Still unavailable on the next operation: quarantine persists.
  auto again = faulty.RemoveDuplicates(pair.a);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsUnavailable());
}

TEST(EngineFaultTest, TransientFaultsRecoverBitIdentical) {
  DeviceConfig clean_config;
  clean_config.rows = 5;
  Engine clean(clean_config);
  size_t total_faults = 0;
  for (uint64_t seed : {61u, 62u, 63u}) {
    const auto pair = FaultWorkload(seed);
    // Rate chosen so a fair share of tile attempts are corrupted (and
    // retried) while clean attempts stay common enough that strike
    // forgiveness keeps both chips out of quarantine.
    Engine faulty(FaultyConfig(seed, 2, 0.0005, {}));
    auto expected = clean.Intersect(pair.a, pair.b);
    auto got = faulty.Intersect(pair.a, pair.b);
    ASSERT_OK(expected);
    ASSERT_OK(got);
    EXPECT_EQ(got->relation.tuples(), expected->relation.tuples())
        << "seed " << seed;
    auto expected_join = clean.Join(pair.a, pair.b,
                                    rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq});
    auto got_join = faulty.Join(pair.a, pair.b,
                                rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq});
    ASSERT_OK(expected_join);
    ASSERT_OK(got_join);
    EXPECT_EQ(got_join->relation.tuples(), expected_join->relation.tuples())
        << "seed " << seed;
    total_faults += got->stats.faults_detected + got_join->stats.faults_detected;
  }
  // The sweep is vacuous unless the rate actually corrupted something.
  EXPECT_GE(total_faults, 1u);
}

TEST(EngineFaultTest, HighFaultRateStrikesOutTheFlakyChip) {
  // Chip 1 corrupts essentially every word; chip 0 is clean. The scheduler
  // must strike chip 1 out and still deliver the exact answer.
  const auto pair = FaultWorkload(54);
  DeviceConfig clean_config;
  clean_config.rows = 5;
  Engine clean(clean_config);
  auto expected = clean.Intersect(pair.a, pair.b);
  ASSERT_OK(expected);

  DeviceConfig device;
  device.rows = 5;
  device.num_chips = 2;
  auto plan = std::make_shared<faults::FaultPlan>(54, 2);
  plan->chip(1).bit_flip_rate = 1.0;
  device.faults = std::move(plan);
  device.recovery.strike_limit = 2;
  Engine faulty(device);
  auto got = faulty.Intersect(pair.a, pair.b);
  ASSERT_OK(got);
  EXPECT_EQ(got->relation.tuples(), expected->relation.tuples());
  ASSERT_NE(faulty.health(), nullptr);
  EXPECT_EQ(faulty.health()->state(1), ChipState::kQuarantined);
  EXPECT_GE(got->stats.faults_detected, 2u);
}

TEST(EngineFaultTest, ShadowRunsSampleCleanTiles) {
  const auto pair = FaultWorkload(55);
  DeviceConfig clean_config;
  clean_config.rows = 5;
  Engine clean(clean_config);
  auto expected = clean.Intersect(pair.a, pair.b);
  ASSERT_OK(expected);

  Engine faulty(FaultyConfig(55, 2, 0.0, {}, /*shadow=*/1.0));
  auto got = faulty.Intersect(pair.a, pair.b);
  ASSERT_OK(got);
  EXPECT_EQ(got->relation.tuples(), expected->relation.tuples());
  EXPECT_GE(got->stats.shadow_runs, 1u);
  EXPECT_EQ(got->stats.shadow_mismatches, 0u);
}

TEST(EngineFaultTest, WithModeSharesHealthAcrossCopies) {
  // The planner pins feed modes via WithMode copies; strikes recorded by a
  // copy must accumulate on the same physical device.
  Engine faulty(FaultyConfig(56, 2, 0.0, {1}));
  const Engine pinned = faulty.WithMode(arrays::FeedMode::kMarching);
  const auto pair = FaultWorkload(56);
  auto got = pinned.Intersect(pair.a, pair.b);
  ASSERT_OK(got);
  ASSERT_NE(faulty.health(), nullptr);
  EXPECT_EQ(pinned.health(), faulty.health());
  EXPECT_EQ(faulty.health()->state(1), ChipState::kQuarantined);
}

// --- ExecStats guards: degenerate stats must report 0, never NaN/inf. ---

TEST(ExecStatsGuards, DegenerateDenominatorsReportZero) {
  ExecStats stats;
  EXPECT_EQ(stats.Utilization(), 0.0);
  EXPECT_EQ(stats.MakespanUtilization(), 0.0);

  // Cycles without cells (infrastructure-only run).
  stats.cycles = 100;
  stats.makespan_cycles = 100;
  stats.num_compute_cells = 0;
  EXPECT_EQ(stats.Utilization(), 0.0);
  EXPECT_EQ(stats.MakespanUtilization(), 0.0);

  // Cells without cycles (nothing ever pulsed).
  stats.cycles = 0;
  stats.makespan_cycles = 0;
  stats.num_compute_cells = 64;
  stats.busy_cell_cycles = 0;
  EXPECT_EQ(stats.Utilization(), 0.0);
  EXPECT_EQ(stats.MakespanUtilization(), 0.0);

  // Zero chips behaves as one chip in the wall-clock denominator.
  stats.cycles = 10;
  stats.makespan_cycles = 10;
  stats.busy_cell_cycles = 320;
  stats.num_chips = 0;
  EXPECT_GT(stats.MakespanUtilization(), 0.0);
  EXPECT_LE(stats.MakespanUtilization(), 1.0);
}

TEST(ExecStatsGuards, SimStatsUtilizationGuardsZeroDenominator) {
  sim::SimStats stats;
  EXPECT_EQ(stats.Utilization(), 0.0);
  stats.cycles = 50;  // cells still zero
  EXPECT_EQ(stats.Utilization(), 0.0);
  stats.num_compute_cells = 4;
  stats.busy_cell_cycles = 100;
  EXPECT_DOUBLE_EQ(stats.Utilization(), 0.5);
}

}  // namespace
}  // namespace db
}  // namespace systolic
