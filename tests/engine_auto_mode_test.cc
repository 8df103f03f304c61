// Tests for DeviceConfig mode = kAuto (the default): the engine schedules
// both tilings of every membership-family operation and join exactly as it
// would report them, and runs fixed-B only where it is no worse than
// marching on cycles, makespan and memory makespan. The choice never changes
// results, and it is the same on both backends.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/engine.h"
#include "fastpath/analytic_timing.h"
#include "faults/fault_plan.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_reference.h"
#include "system/scratchpad/scratchpad.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace db {
namespace {

using arrays::FeedMode;
using arrays::FeedModePolicy;
using rel::Relation;
using rel::Schema;

/// The feed mode an intersection of `n_a` x `n_b` distinct tuples resolves
/// to under `device`.
FeedMode ResolvedMode(const DeviceConfig& device, size_t n_a, size_t n_b) {
  std::vector<std::vector<int64_t>> rows_a;
  std::vector<std::vector<int64_t>> rows_b;
  for (size_t i = 0; i < n_a; ++i) rows_a.push_back({static_cast<int64_t>(i)});
  for (size_t j = 0; j < n_b; ++j) rows_b.push_back({static_cast<int64_t>(j)});
  const Schema schema = rel::MakeIntSchema(1);
  auto result =
      Engine(device).Intersect(systolic::testing::Rel(schema, rows_a),
                               systolic::testing::Rel(schema, rows_b));
  SYSTOLIC_CHECK(result.ok()) << result.status().ToString();
  return result->stats.resolved_mode;
}

TEST(AutoModeTest, ExplicitPoliciesResolveToThemselves) {
  DeviceConfig marching;
  marching.mode = FeedModePolicy::kMarching;
  EXPECT_EQ(ResolvedMode(marching, 100, 100), FeedMode::kMarching);
  DeviceConfig fixed;
  fixed.mode = FeedModePolicy::kFixedB;
  EXPECT_EQ(ResolvedMode(fixed, 100, 100), FeedMode::kFixedB);
}

TEST(AutoModeTest, UnboundedDevicePrefersFixedB) {
  // One tile either way, and n_a + n_b + m + 1 < m + R + 2·max(n): fixed-B
  // wins every counter on a one-pass device.
  const DeviceConfig device;
  EXPECT_EQ(device.mode, FeedModePolicy::kAuto);
  EXPECT_EQ(ResolvedMode(device, 64, 64), FeedMode::kFixedB);
  EXPECT_EQ(ResolvedMode(device, 1000, 4), FeedMode::kFixedB);
}

TEST(AutoModeTest, BoundedDeviceStillPrefersFixedBForStreaming) {
  // Long A vs a B that fits one preload: fixed-B streams A once, while
  // marching pays ceil(nA/8) passes.
  DeviceConfig device;
  device.rows = 15;
  EXPECT_EQ(ResolvedMode(device, 1000, 15), FeedMode::kFixedB);
}

TEST(AutoModeTest, ManyBBlocksAgainstTinyACanFavorMarching) {
  // Fixed-B restreams all of A per B block; with nA tiny and nB huge the
  // marching decomposition's block symmetry can win. Whatever the choice,
  // the resolver is deterministic.
  DeviceConfig device;
  device.rows = 15;
  EXPECT_EQ(ResolvedMode(device, 4, 4096), ResolvedMode(device, 4, 4096));
}

TEST(AutoModeTest, ResultsIdenticalUnderAllPolicies) {
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 40;
  options.base.domain_size = 6;
  options.base.seed = 99;
  options.b_num_tuples = 25;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);
  auto oracle = rel::reference::Intersection(pair->a, pair->b);
  ASSERT_OK(oracle);

  for (FeedModePolicy policy : {FeedModePolicy::kMarching,
                                FeedModePolicy::kFixedB,
                                FeedModePolicy::kAuto}) {
    for (size_t rows : {size_t{0}, size_t{9}}) {
      DeviceConfig device;
      device.mode = policy;
      device.rows = rows;
      Engine engine(device);
      auto result = engine.Intersect(pair->a, pair->b);
      ASSERT_OK(result);
      EXPECT_EQ(result->relation.tuples(), oracle->tuples());
    }
  }
}

TEST(AutoModeTest, FaultPlanKeepsMarching) {
  // Fault-free, a long A against a B that fits one preload runs fixed-B.
  // Under a fault plan kAuto keeps marching's shorter tiles, which meet
  // fewer injected faults per attempt — unless the row count is even and
  // marching cannot run at all.
  DeviceConfig device;
  device.rows = 15;
  EXPECT_EQ(ResolvedMode(device, 100, 15), FeedMode::kFixedB);
  device.faults = std::make_shared<faults::FaultPlan>(/*seed=*/1,
                                                      /*num_chips=*/1);
  EXPECT_EQ(ResolvedMode(device, 100, 15), FeedMode::kMarching);
  device.rows = 16;
  EXPECT_EQ(ResolvedMode(device, 100, 15), FeedMode::kFixedB);
}

TEST(AutoModeTest, MarchingOnEvenRowsIsAUsageError) {
  // §3.2's marching pairs never meet on an even row count, so that device
  // has no marching candidate, and an explicit or pinned marching
  // membership or join returns InvalidArgument on both backends before any
  // grid is built, empty operands included.
  EXPECT_TRUE(arrays::FeedModeCandidates(FeedModePolicy::kMarching, 4).empty());
  EXPECT_EQ(arrays::FeedModeCandidates(FeedModePolicy::kMarching, 5),
            std::vector<FeedMode>{FeedMode::kMarching});
  EXPECT_EQ(arrays::FeedModeCandidates(FeedModePolicy::kMarching, 0),
            std::vector<FeedMode>{FeedMode::kMarching});
  EXPECT_EQ(arrays::FeedModeCandidates(FeedModePolicy::kAuto, 4),
            std::vector<FeedMode>{FeedMode::kFixedB});
  const Schema schema = rel::MakeIntSchema(1);
  const Relation empty = systolic::testing::Rel(schema, {});
  const Relation three = systolic::testing::Rel(schema, {{1}, {2}, {3}});
  const rel::JoinSpec spec{{0}, {0}, rel::ComparisonOp::kEq};
  for (const fastpath::Backend backend :
       {fastpath::Backend::kRtl, fastpath::Backend::kFast}) {
    DeviceConfig device;
    device.rows = 4;
    device.backend = backend;
    const Engine pinned = Engine(device).WithMode(FeedMode::kMarching);
    device.mode = FeedModePolicy::kMarching;
    for (const Engine& engine : {Engine(device), pinned}) {
      for (const Relation* b : {&three, &empty}) {
        EXPECT_TRUE(engine.Intersect(three, *b).status().IsInvalidArgument());
        EXPECT_TRUE(engine.Subtract(three, *b).status().IsInvalidArgument());
        EXPECT_TRUE(engine.Join(three, *b, spec).status().IsInvalidArgument());
      }
      EXPECT_TRUE(engine.RemoveDuplicates(three).status().IsInvalidArgument());
      EXPECT_TRUE(engine.Union(three, empty).status().IsInvalidArgument());
      // Selection has its own discipline.
      EXPECT_TRUE(
          engine.Select(three, {{0, rel::ComparisonOp::kGe, 2}}).ok());
    }
  }
}

TEST(AutoModeTest, EmptyOperandsResolveTheDeviceDiscipline) {
  // No tile runs, yet the operation still names a discipline the device
  // can run: its explicit mode, or kAuto's pick (fixed-B is no worse on
  // empty counters, and an even row count allows nothing else).
  const Schema schema = rel::MakeIntSchema(1);
  const Relation empty = systolic::testing::Rel(schema, {});
  const Relation three = systolic::testing::Rel(schema, {{1}, {2}, {3}});
  const rel::JoinSpec spec{{0}, {0}, rel::ComparisonOp::kEq};
  for (const size_t rows : {size_t{0}, size_t{4}, size_t{5}}) {
    for (const FeedModePolicy policy :
         {FeedModePolicy::kMarching, FeedModePolicy::kFixedB,
          FeedModePolicy::kAuto}) {
      DeviceConfig device;
      device.rows = rows;
      device.mode = policy;
      if (policy == FeedModePolicy::kMarching && rows % 2 == 0 && rows != 0) {
        continue;  // marching needs an odd row count
      }
      const FeedMode want = policy == FeedModePolicy::kMarching
                                ? FeedMode::kMarching
                                : FeedMode::kFixedB;
      const Engine engine(device);
      for (const auto& [a, b] : {std::pair(&three, &empty),
                                 std::pair(&empty, &three),
                                 std::pair(&empty, &empty)}) {
        auto join = engine.Join(*a, *b, spec);
        ASSERT_OK(join);
        EXPECT_EQ(join->stats.resolved_mode, want) << "rows " << rows;
        auto intersect = engine.Intersect(*a, *b);
        ASSERT_OK(intersect);
        EXPECT_EQ(intersect->stats.resolved_mode, want) << "rows " << rows;
      }
      auto dedup = engine.RemoveDuplicates(empty);
      ASSERT_OK(dedup);
      EXPECT_EQ(dedup->stats.resolved_mode, want) << "rows " << rows;
    }
  }
}

// ---------------------------------------------------------------------------
// The guard sweep: for every shape, results equal the software oracle,
// fixed-B never needs more pulses than marching, the default is no worse
// than explicit marching on cycles / makespan / memory makespan, its whole
// ExecStats equal an explicit run of the mode it resolved, and the fast and
// RTL backends agree on every counter. Marching needs an odd row count, so
// an even-row device must resolve to fixed-B.
// ---------------------------------------------------------------------------

enum class SweepOp {
  kIntersect,
  kSubtract,
  kDedup,
  kUnion,
  kEquiJoin,
  kThetaJoin,
};

const char* SweepOpName(SweepOp op) {
  switch (op) {
    case SweepOp::kIntersect: return "intersect";
    case SweepOp::kSubtract: return "subtract";
    case SweepOp::kDedup: return "dedup";
    case SweepOp::kUnion: return "union";
    case SweepOp::kEquiJoin: return "equi-join";
    case SweepOp::kThetaJoin: return "theta-join";
  }
  return "?";
}

struct Shape {
  SweepOp op = SweepOp::kIntersect;
  size_t arity = 1;
  size_t rows = 0;
  size_t chips = 1;
  bool overlap = true;
  size_t n_a = 0;
  size_t n_b = 0;
  uint64_t seed = 0;
  /// Set on the sweep's losing shapes: fixed-B's fewer tiles spread worse,
  /// so the default must stay marching.
  bool expect_marching = false;
};

std::string Describe(const Shape& s) {
  return std::string(SweepOpName(s.op)) + " arity=" + std::to_string(s.arity) +
         " rows=" + std::to_string(s.rows) +
         " chips=" + std::to_string(s.chips) +
         " overlap=" + (s.overlap ? "on" : "off") +
         " n_a=" + std::to_string(s.n_a) + " n_b=" + std::to_string(s.n_b) +
         " seed=" + std::to_string(s.seed);
}

std::vector<Shape> SweepShapes() {
  constexpr SweepOp kOps[] = {SweepOp::kIntersect, SweepOp::kSubtract,
                              SweepOp::kDedup,     SweepOp::kUnion,
                              SweepOp::kEquiJoin,  SweepOp::kThetaJoin};
  constexpr size_t kRows[] = {1, 2, 3, 5, 9, 15, 63};
  constexpr size_t kChips[] = {1, 2, 4};
  std::vector<Shape> shapes;
  const size_t count = systolic::testing::FuzzSeedCount(252);
  Rng rng(2020);
  for (size_t k = 0; k < count; ++k) {
    Shape s;
    s.op = kOps[k % 6];
    s.rows = kRows[k % 7];
    s.arity = 1 + k / 7 % 3;
    s.chips = kChips[k / 3 % 3];
    s.overlap = k / 2 % 2 == 0;
    s.seed = 5000 + k;
    // Asymmetric operands; every third shape has a B of 1-3 tuples.
    s.n_a = 1 + static_cast<size_t>(rng.Uniform(0, 63));
    s.n_b = k % 3 == 0 ? 1 + static_cast<size_t>(rng.Uniform(0, 3))
                       : 1 + static_cast<size_t>(rng.Uniform(0, 63));
    shapes.push_back(s);
  }
  // Losing shapes: streaming all of a long A into one fixed-B tile costs
  // more memory makespan than marching's many short tiles over 4 chips
  // (the θ-join: 1,761 pulses against 371, 119 matches drained).
  Shape theta;
  theta.op = SweepOp::kThetaJoin;
  theta.arity = 3;
  theta.rows = 15;
  theta.chips = 4;
  theta.n_a = 257;
  theta.n_b = 1;
  theta.seed = 77;
  theta.expect_marching = true;
  shapes.push_back(theta);
  Shape intersect = theta;
  intersect.op = SweepOp::kIntersect;
  intersect.overlap = false;
  intersect.seed = 78;
  shapes.push_back(intersect);
  return shapes;
}

/// Every ExecStats field of `actual` equals `expected`'s.
void ExpectSameStats(const ExecStats& expected, const ExecStats& actual,
                     const std::string& what) {
  EXPECT_EQ(expected.passes, actual.passes) << what;
  EXPECT_EQ(expected.resolved_mode, actual.resolved_mode) << what;
  EXPECT_EQ(expected.backend, actual.backend) << what;
  EXPECT_EQ(expected.analytic_timing, actual.analytic_timing) << what;
  EXPECT_EQ(expected.cycles, actual.cycles) << what;
  EXPECT_EQ(expected.makespan_cycles, actual.makespan_cycles) << what;
  EXPECT_EQ(expected.busy_cell_cycles, actual.busy_cell_cycles) << what;
  EXPECT_EQ(expected.num_compute_cells, actual.num_compute_cells) << what;
  EXPECT_EQ(expected.num_chips, actual.num_chips) << what;
  EXPECT_EQ(expected.faults_detected, actual.faults_detected) << what;
  EXPECT_EQ(expected.tile_retries, actual.tile_retries) << what;
  EXPECT_EQ(expected.shadow_runs, actual.shadow_runs) << what;
  EXPECT_EQ(expected.shadow_mismatches, actual.shadow_mismatches) << what;
  EXPECT_EQ(expected.healthy_chips, actual.healthy_chips) << what;
  EXPECT_EQ(expected.wal_records, actual.wal_records) << what;
  EXPECT_EQ(expected.checkpoints, actual.checkpoints) << what;
  EXPECT_EQ(expected.recovered_records, actual.recovered_records) << what;
  EXPECT_EQ(expected.dma_cycles, actual.dma_cycles) << what;
  EXPECT_EQ(expected.overlap_cycles, actual.overlap_cycles) << what;
  EXPECT_EQ(expected.memory_makespan_cycles, actual.memory_makespan_cycles)
      << what;
  EXPECT_EQ(expected.overlap_enabled, actual.overlap_enabled) << what;
}

/// The RTL run's ExecStats equal the fast run's on every counter; only the
/// simulator measures cell occupancy.
void ExpectSameAcrossBackends(const ExecStats& fast, ExecStats rtl,
                              const std::string& what) {
  EXPECT_EQ(rtl.backend, fastpath::Backend::kRtl) << what;
  rtl.backend = fast.backend;
  rtl.analytic_timing = fast.analytic_timing;
  rtl.busy_cell_cycles = fast.busy_cell_cycles;
  rtl.num_compute_cells = fast.num_compute_cells;
  ExpectSameStats(fast, rtl, what + " rtl vs fast");
}

class AutoModeGuardSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(AutoModeGuardSweep, NoWorseThanMarchingAndSameOnBothBackends) {
  const Shape s = GetParam();
  const std::string what = Describe(s);
  rel::PairOptions options;
  options.base.num_tuples = s.n_a;
  options.base.domain_size = 3 + static_cast<int64_t>(s.seed % 5);
  options.base.seed = s.seed;
  options.b_num_tuples = s.n_b;
  options.overlap_fraction = 0.5;
  auto pair =
      rel::GenerateOverlappingPair(rel::MakeIntSchema(s.arity), options);
  ASSERT_OK(pair);
  const Relation& a = pair->a;
  const Relation& b = pair->b;
  // A's fresh tuples carry first codes above B's domain, so the θ-join
  // compares with > to match about half of them.
  const rel::JoinSpec spec{
      {0}, {0},
      s.op == SweepOp::kThetaJoin ? rel::ComparisonOp::kGt
                                  : rel::ComparisonOp::kEq};

  const auto run = [&](const Engine& engine) -> Result<EngineResult> {
    switch (s.op) {
      case SweepOp::kIntersect: return engine.Intersect(a, b);
      case SweepOp::kSubtract: return engine.Subtract(a, b);
      case SweepOp::kDedup: return engine.RemoveDuplicates(a);
      case SweepOp::kUnion: return engine.Union(a, b);
      case SweepOp::kEquiJoin:
      case SweepOp::kThetaJoin: return engine.Join(a, b, spec);
    }
    return Status::Internal("unknown op");
  };
  const Result<Relation> oracle = [&]() -> Result<Relation> {
    switch (s.op) {
      case SweepOp::kIntersect: return rel::reference::Intersection(a, b);
      case SweepOp::kSubtract: return rel::reference::Difference(a, b);
      case SweepOp::kDedup: return rel::reference::RemoveDuplicates(a);
      case SweepOp::kUnion: return rel::reference::Union(a, b);
      case SweepOp::kEquiJoin:
      case SweepOp::kThetaJoin: return rel::reference::Join(a, b, spec);
    }
    return Status::Internal("unknown op");
  }();
  ASSERT_OK(oracle);

  DeviceConfig device;
  device.rows = s.rows;
  device.num_chips = s.chips;
  device.overlap =
      s.overlap ? spad::OverlapPolicy::kOn : spad::OverlapPolicy::kOff;
  device.backend = fastpath::Backend::kFast;
  const auto run_mode = [&](FeedModePolicy mode) {
    DeviceConfig pinned = device;
    pinned.mode = mode;
    auto result = run(Engine(pinned));
    SYSTOLIC_CHECK(result.ok()) << result.status().ToString() << " " << what;
    return *std::move(result);
  };
  const EngineResult chosen = run_mode(FeedModePolicy::kAuto);
  const EngineResult fixed = run_mode(FeedModePolicy::kFixedB);
  const ExecStats& d = chosen.stats;
  std::optional<ExecStats> m;  // explicit marching's, where it can run

  EXPECT_EQ(chosen.relation.tuples(), oracle->tuples()) << what;
  if (s.rows % 2 == 0 && s.rows != 0) {
    // Marching pairs never meet on an even row count: explicit marching is
    // a usage error there.
    DeviceConfig pinned = device;
    pinned.mode = FeedModePolicy::kMarching;
    EXPECT_TRUE(run(Engine(pinned)).status().IsInvalidArgument()) << what;
    ASSERT_EQ(d.resolved_mode, FeedMode::kFixedB) << what;
  } else {
    m = run_mode(FeedModePolicy::kMarching).stats;
    EXPECT_LE(fixed.stats.cycles, m->cycles) << what;
    EXPECT_LE(d.cycles, m->cycles) << what;
    EXPECT_LE(d.makespan_cycles, m->makespan_cycles) << what;
    EXPECT_LE(d.memory_makespan_cycles, m->memory_makespan_cycles) << what;
  }
  if (s.expect_marching) {
    ASSERT_TRUE(m.has_value()) << what;
    EXPECT_EQ(d.resolved_mode, FeedMode::kMarching) << what;
    EXPECT_GT(fixed.stats.memory_makespan_cycles, m->memory_makespan_cycles)
        << what;
  }
  ExpectSameStats(
      d.resolved_mode == FeedMode::kMarching ? *m : fixed.stats, d,
      what + " vs its explicit mode");

  device.backend = fastpath::Backend::kRtl;
  auto rtl = run(Engine(device));
  ASSERT_OK(rtl);
  EXPECT_EQ(rtl->relation.tuples(), chosen.relation.tuples()) << what;
  ExpectSameAcrossBackends(d, rtl->stats, what);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AutoModeGuardSweep,
                         ::testing::ValuesIn(SweepShapes()));

// ---------------------------------------------------------------------------
// Fixed-B dedup in §8 strips: strip q preloads block q of A and streams A's
// suffix past it, one pass per block instead of one per block pair. The
// strips run only where their exact schedule is no worse than the
// block-pair triangle's on cycles, makespan and memory makespan.
// ---------------------------------------------------------------------------

/// `n` tuples of width 2 over a small domain, so dedup drops some.
Relation DedupInput(size_t n, uint64_t seed) {
  rel::GeneratorOptions options;
  options.num_tuples = n;
  options.domain_size = 4 + static_cast<int64_t>(n / 3);
  options.seed = seed;
  auto r = rel::GenerateRelation(rel::MakeIntSchema(2), options);
  SYSTOLIC_CHECK(r.ok()) << r.status().ToString();
  return *std::move(r);
}

/// Runs remove-duplicates of `a` on `device` on both backends, checks the
/// result against the software oracle and the backends against each other
/// on every counter, and returns the fast backend's stats.
ExecStats DedupOnBothBackends(const Relation& a, DeviceConfig device,
                              const std::string& what) {
  // The schedule model spreads tiles over device.num_chips; a pool of at
  // most four workers runs them, whatever the chip count.
  const size_t chips = device.num_chips;
  const auto pool =
      chips > 1 ? std::make_shared<ChipPool>(std::min<size_t>(chips, 4))
                : nullptr;
  const auto oracle = rel::reference::RemoveDuplicates(a);
  SYSTOLIC_CHECK(oracle.ok());
  device.backend = fastpath::Backend::kFast;
  auto fast = Engine(device, pool).RemoveDuplicates(a);
  device.backend = fastpath::Backend::kRtl;
  auto rtl = Engine(device, pool).RemoveDuplicates(a);
  SYSTOLIC_CHECK(fast.ok() && rtl.ok()) << what;
  EXPECT_EQ(fast->relation.tuples(), oracle->tuples()) << what;
  EXPECT_EQ(rtl->relation.tuples(), oracle->tuples()) << what;
  ExpectSameAcrossBackends(fast->stats, rtl->stats, what);
  return fast->stats;
}

TEST(FixedBDedupStrips, PinnedCasesOnBothBackends) {
  // Explicit fixed-B and the default, each on both backends.
  const auto pinned = [](size_t n, size_t rows, size_t chips) {
    const Relation a = DedupInput(n, 42);
    const std::string what = "n=" + std::to_string(n) + " " +
                             std::to_string(chips) + "x" +
                             std::to_string(rows);
    DeviceConfig device;
    device.rows = rows;
    device.num_chips = chips;
    device.mode = FeedModePolicy::kFixedB;
    const ExecStats fixed = DedupOnBothBackends(a, device, what);
    device.mode = FeedModePolicy::kAuto;
    return std::make_pair(fixed, DedupOnBothBackends(a, device, what));
  };
  // Strips run: 64 passes of n - 63q + 2 + 63 + 1 pulses, against the
  // triangle's 2,080 passes and 266,272 pulses.
  {
    const auto [fixed, chosen] = pinned(4000, 63, 4);
    for (const ExecStats& st : {fixed, chosen}) {
      EXPECT_EQ(st.resolved_mode, FeedMode::kFixedB);
      EXPECT_EQ(st.passes, 64u);
      EXPECT_EQ(st.cycles, 133216u);
      EXPECT_EQ(st.makespan_cycles, 33304u);
      EXPECT_EQ(st.memory_makespan_cycles, 65070u);
    }
  }
  // The triangle is kept where the first strip is the longest tile: 64
  // tuples on 4 x 63 rows (makespan 129, strips 130) ...
  {
    const auto [fixed, chosen] = pinned(64, 63, 4);
    for (const ExecStats& st : {fixed, chosen}) {
      EXPECT_EQ(st.passes, 3u);
      EXPECT_EQ(st.cycles, 263u);
      EXPECT_EQ(st.makespan_cycles, 129u);
    }
  }
  // ... and 1000 tuples on 1000 chips (makespan 129, strips 1,066), where
  // the default runs marching, as before.
  {
    const auto [fixed, chosen] = pinned(1000, 63, 1000);
    EXPECT_EQ(fixed.passes, 136u);
    EXPECT_EQ(fixed.cycles, 17416u);
    EXPECT_EQ(fixed.makespan_cycles, 129u);
    EXPECT_EQ(chosen.resolved_mode, FeedMode::kMarching);
    EXPECT_EQ(chosen.passes, 528u);
    EXPECT_EQ(chosen.makespan_cycles, 129u);
  }
  // n <= R: fixed-B's one pass, strip and diagonal tile alike.
  for (const size_t n : {size_t{1}, size_t{40}, size_t{63}}) {
    const ExecStats fixed = pinned(n, 63, 4).first;
    EXPECT_EQ(fixed.passes, 1u) << n;
    EXPECT_EQ(fixed.cycles,
              fastpath::MembershipCycles(FeedMode::kFixedB, n, n, 2, 63))
        << n;
  }
}

/// The block-pair triangle's schedule of a fixed-B dedup of `n` tuples of
/// width `m`, computed here as MergePassInfos does: tiles (p, q <= p) in
/// p-major order, each to the chip that frees first, through that chip's
/// DmaQueue.
ExecStats TriangleSchedule(size_t n, size_t m, size_t rows, size_t chips,
                           bool overlap) {
  ExecStats st;
  const size_t cap = rows == 0 ? n : std::min(rows, n);
  std::vector<size_t> busy(chips, 0);
  std::vector<spad::DmaQueue> queues(chips, spad::DmaQueue(overlap));
  size_t t = 0;
  for (size_t p = 0; p * cap < n; ++p) {
    const size_t rows_p = std::min(cap, n - p * cap);
    for (size_t q = 0; q <= p; ++q, ++t) {
      const size_t b = q == p ? rows_p : cap;
      const size_t cycles =
          fastpath::MembershipCycles(FeedMode::kFixedB, rows_p, b, m, rows);
      ++st.passes;
      st.cycles += cycles;
      const auto chip = std::min_element(busy.begin(), busy.end());
      *chip += cycles;
      spad::DmaQueue& queue = queues[chip - busy.begin()];
      queue.Mvin(t, spad::TupleBytes(rows_p, m));
      queue.Preload(t, q == p ? 0 : spad::TupleBytes(b, m));
      queue.Compute(t, cycles);
      queue.Mvout(t, spad::BitDrainBytes(rows_p));
    }
  }
  st.makespan_cycles = *std::max_element(busy.begin(), busy.end());
  for (const spad::DmaQueue& queue : queues) {
    st.dma_cycles += queue.TransferCycleTotal();
    st.memory_makespan_cycles =
        std::max(st.memory_makespan_cycles, queue.Makespan());
  }
  return st;
}

TEST(FixedBDedupStrips, NoCounterExceedsTheTriangleAndBackendsAgree) {
  // Even rows and rows = 1 included: fixed-B runs on every row count.
  size_t k = 0;
  size_t strips = 0;
  for (const size_t rows : {1, 2, 3, 4, 5, 8, 15, 63}) {
    for (const size_t chips : {1, 2, 4}) {
      for (const size_t n : {1, 9, 40, 130}) {
        const bool overlap = ++k % 2 == 0;
        const Relation a = DedupInput(n, 900 + k);
        const std::string what =
            "n=" + std::to_string(n) + " rows=" + std::to_string(rows) +
            " chips=" + std::to_string(chips) +
            " overlap=" + (overlap ? "on" : "off");
        DeviceConfig device;
        device.rows = rows;
        device.num_chips = chips;
        device.mode = FeedModePolicy::kFixedB;
        device.overlap =
            overlap ? spad::OverlapPolicy::kOn : spad::OverlapPolicy::kOff;
        const ExecStats st = DedupOnBothBackends(a, device, what);
        const ExecStats triangle = TriangleSchedule(n, 2, rows, chips, overlap);
        EXPECT_LE(st.passes, triangle.passes) << what;
        EXPECT_LE(st.cycles, triangle.cycles) << what;
        EXPECT_LE(st.makespan_cycles, triangle.makespan_cycles) << what;
        EXPECT_LE(st.memory_makespan_cycles, triangle.memory_makespan_cycles)
            << what;
        EXPECT_LE(st.dma_cycles, triangle.dma_cycles) << what;
        if (st.passes < triangle.passes) {
          ++strips;
        } else {
          // The triangle kept: the test's schedule is the engine's.
          EXPECT_EQ(st.cycles, triangle.cycles) << what;
          EXPECT_EQ(st.memory_makespan_cycles,
                    triangle.memory_makespan_cycles)
              << what;
        }
      }
    }
  }
  EXPECT_GT(strips, 0u);
}

}  // namespace
}  // namespace db
}  // namespace systolic
