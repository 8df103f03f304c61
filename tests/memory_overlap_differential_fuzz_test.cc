// Memory-overlap differential fuzzing: the gate for the S25 scratchpad/DMA
// layer. Every point builds TWO engines over the same device shape —
// overlap=off (serialised load→compute→drain) and overlap=on (double-
// buffered banks) — runs every relational operation on both plus the
// reference nested-loop oracle, and requires:
//   * bit-identical result relations (tuple order included) across off, on,
//     and the oracle — overlap is a timing model, never a semantics change;
//   * identical pass counts, pulse totals, makespan pulses, and DMA
//     transfer totals (the same feeds move either way) under one feed
//     discipline — kAuto's guard weighs the memory makespan, so where the
//     two policies resolve different disciplines each run is also checked
//     against the other policy pinned to its discipline;
//   * makespan(on) <= makespan(off) on the memory-inclusive critical path,
//     with overlap=off hiding nothing (overlap_cycles == 0) and satisfying
//     the serial identity memory_makespan == makespan + dma on one chip.
// A fault-injected sweep additionally requires tile retries to replay their
// scratchpad feed bit-identically to the fault-free oracle.
// SYSTOLIC_FUZZ_SEEDS sets the size of the seed set (the nightly lane widens
// it), same as the other fuzz suites; the TSan lane runs the default set.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fastpath/backend.h"
#include "faults/fault_plan.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_reference.h"
#include "system/machine.h"
#include "system/scratchpad/scratchpad.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace {

using db::DeviceConfig;
using db::Engine;
using db::EngineResult;
using rel::Relation;
using rel::Schema;
using spad::OverlapPolicy;

struct OverlapFuzzParam {
  uint64_t seed;
  size_t device_rows;
  arrays::FeedModePolicy mode;
  size_t num_chips;
  fastpath::Backend backend;
};

/// The default fuzz points rotate device shape, feed-mode policy, chip
/// count, and executor backend; SYSTOLIC_FUZZ_SEEDS sets the size of the
/// set.
std::vector<OverlapFuzzParam> OverlapFuzzPoints() {
  std::vector<OverlapFuzzParam> points;
  const size_t count = systolic::testing::FuzzSeedCount(24);
  static constexpr size_t kRows[] = {0, 3, 5, 7, 9, 13};
  static constexpr arrays::FeedModePolicy kModes[] = {
      arrays::FeedModePolicy::kMarching, arrays::FeedModePolicy::kFixedB,
      arrays::FeedModePolicy::kAuto};
  static constexpr size_t kChips[] = {1, 2, 3, 7};
  static constexpr fastpath::Backend kBackends[] = {
      fastpath::Backend::kRtl, fastpath::Backend::kFast};
  for (size_t k = 0; k < count; ++k) {
    points.push_back(OverlapFuzzParam{701 + k, kRows[k % 6], kModes[k % 3],
                                      kChips[k % 4], kBackends[k % 2]});
  }
  return points;
}

/// A point's operand schema: two to four columns.
Schema PointSchema(uint64_t seed) { return rel::MakeIntSchema(2 + seed % 3); }

/// A point's operand sizes, domain and overlap, drawn from its seed.
rel::PairOptions PointOptions(uint64_t seed) {
  Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  rel::PairOptions options;
  options.base.num_tuples = 8 + static_cast<size_t>(rng.Uniform(0, 40));
  options.base.domain_size = 3 + rng.Uniform(0, 6);
  options.base.seed = seed;
  options.b_num_tuples = 5 + static_cast<size_t>(rng.Uniform(0, 35));
  options.overlap_fraction = rng.NextDouble();
  return options;
}

/// The `<` θ-join's operands at a point: first columns that straddle.
rel::RelationPair ThetaOperands(uint64_t seed) {
  return testing::StraddlingPair(PointSchema(seed), PointOptions(seed));
}

class MemoryOverlapDifferentialFuzz
    : public ::testing::TestWithParam<OverlapFuzzParam> {
 protected:
  void SetUp() override {
    const OverlapFuzzParam p = GetParam();
    schema_ = PointSchema(p.seed);
    auto pair = rel::GenerateOverlappingPair(schema_, PointOptions(p.seed));
    SYSTOLIC_CHECK(pair.ok());
    a_ = std::make_unique<Relation>(std::move(pair->a));
    b_ = std::make_unique<Relation>(std::move(pair->b));
    device_.rows = p.device_rows;
    device_.mode = p.mode;
    device_.num_chips = p.num_chips;
    device_.backend = p.backend;
    off_ = Pinned(OverlapPolicy::kOff, p.mode);
    on_ = Pinned(OverlapPolicy::kOn, p.mode);
  }

  /// An engine over this point's device with `overlap` and feed `mode`.
  std::unique_ptr<Engine> Pinned(OverlapPolicy overlap,
                                 arrays::FeedModePolicy mode) const {
    DeviceConfig device = device_;
    device.overlap = overlap;
    device.mode = mode;
    return std::make_unique<Engine>(device);
  }

  /// Runs `op` under both overlap policies, checks the overlap-on result
  /// against `oracle` when one is given, and checks the pair with
  /// ExpectSame. kAuto's guard weighs the memory makespan, which overlap
  /// moves, so the two runs may resolve different disciplines. Then each
  /// run is also rerun under the other policy pinned to its discipline, and
  /// both same-discipline pairs get the full check.
  template <typename Op>
  void Differential(const Op& op, const std::string& what,
                    const Relation* oracle = nullptr) {
    const Result<EngineResult> off = op(*off_);
    const Result<EngineResult> on = op(*on_);
    if (oracle != nullptr && on.ok()) {
      EXPECT_EQ(oracle->tuples(), on->relation.tuples()) << what;
    }
    if (!off.ok() || !on.ok() ||
        off->stats.resolved_mode == on->stats.resolved_mode) {
      ExpectSame(off, on, what);
      return;
    }
    EXPECT_EQ(GetParam().mode, arrays::FeedModePolicy::kAuto) << what;
    EXPECT_EQ(off->relation.tuples(), on->relation.tuples()) << what;
    // Each run's discipline is no worse than the other's under its own
    // policy, so double-buffering still never lengthens the memory
    // critical path.
    EXPECT_LE(on->stats.memory_makespan_cycles,
              off->stats.memory_makespan_cycles)
        << what;
    const auto policy = [](arrays::FeedMode mode) {
      return mode == arrays::FeedMode::kFixedB
                 ? arrays::FeedModePolicy::kFixedB
                 : arrays::FeedModePolicy::kMarching;
    };
    ExpectSame(off,
               op(*Pinned(OverlapPolicy::kOn,
                          policy(off->stats.resolved_mode))),
               what + " (overlap-off discipline)");
    ExpectSame(op(*Pinned(OverlapPolicy::kOff,
                          policy(on->stats.resolved_mode))),
               on, what + " (overlap-on discipline)");
  }

  /// The differential assertion: identical relations (order included),
  /// identical compute timing and DMA transfer totals under one discipline,
  /// and a double-buffered memory critical path never longer than the
  /// serialised one.
  void ExpectSame(const Result<EngineResult>& off,
                  const Result<EngineResult>& on, const std::string& what) {
    ASSERT_EQ(off.ok(), on.ok())
        << what << ": " << off.status().ToString() << " vs "
        << on.status().ToString();
    if (!off.ok()) return;
    const db::ExecStats& soff = (*off).stats;
    const db::ExecStats& son = (*on).stats;
    EXPECT_EQ((*off).relation.tuples(), (*on).relation.tuples()) << what;
    EXPECT_EQ(soff.resolved_mode, son.resolved_mode) << what;
    EXPECT_EQ(soff.passes, son.passes) << what;
    EXPECT_EQ(soff.cycles, son.cycles) << what;
    EXPECT_EQ(soff.makespan_cycles, son.makespan_cycles) << what;
    // The same feeds move under either policy; overlap changes when, not
    // how much.
    EXPECT_EQ(soff.dma_cycles, son.dma_cycles) << what;
    EXPECT_FALSE(soff.overlap_enabled) << what;
    EXPECT_TRUE(son.overlap_enabled) << what;
    // Serialisation hides nothing...
    EXPECT_EQ(soff.overlap_cycles, 0u) << what;
    // ...and double-buffering never lengthens the memory critical path.
    EXPECT_LE(son.memory_makespan_cycles, soff.memory_makespan_cycles) << what;
    if (GetParam().num_chips == 1) {
      // On one chip the hidden pulses are exactly the gap between the
      // serialised and double-buffered critical paths.
      EXPECT_EQ(son.memory_makespan_cycles + son.overlap_cycles,
                soff.memory_makespan_cycles)
          << what;
      // One chip, one batch: the serialised memory path is compute plus
      // every transfer, back to back.
      EXPECT_EQ(soff.memory_makespan_cycles,
                soff.makespan_cycles + soff.dma_cycles)
          << what;
    }
    if (son.memory_makespan_cycles != 0) {
      EXPECT_GE(son.MemoryMakespanUtilization(),
                soff.MemoryMakespanUtilization())
          << what;
    }
  }

  Schema schema_;
  std::unique_ptr<Relation> a_;
  std::unique_ptr<Relation> b_;
  DeviceConfig device_;
  std::unique_ptr<Engine> off_;
  std::unique_ptr<Engine> on_;
};

TEST_P(MemoryOverlapDifferentialFuzz, SetOperations) {
  auto oracle = rel::reference::Intersection(*a_, *b_);
  ASSERT_OK(oracle);
  Differential([&](const Engine& e) { return e.Intersect(*a_, *b_); },
               "intersect", &*oracle);
  Differential([&](const Engine& e) { return e.Subtract(*a_, *b_); },
               "subtract");
  Differential([&](const Engine& e) { return e.Union(*a_, *b_); }, "union");
}

TEST_P(MemoryOverlapDifferentialFuzz, DedupAndProjection) {
  auto oracle = rel::reference::RemoveDuplicates(*a_);
  ASSERT_OK(oracle);
  Differential([&](const Engine& e) { return e.RemoveDuplicates(*a_); },
               "dedup", &*oracle);
  const std::vector<size_t> columns{0};
  Differential([&](const Engine& e) { return e.Project(*a_, columns); },
               "project");
}

TEST_P(MemoryOverlapDifferentialFuzz, JoinAllOps) {
  const rel::RelationPair theta = ThetaOperands(GetParam().seed);
  for (const rel::ComparisonOp op :
       {rel::ComparisonOp::kEq, rel::ComparisonOp::kLt,
        rel::ComparisonOp::kNe}) {
    const bool straddle = op == rel::ComparisonOp::kLt;
    const Relation& a = straddle ? theta.a : *a_;
    const Relation& b = straddle ? theta.b : *b_;
    rel::JoinSpec spec{{0}, {0}, op};
    auto oracle = rel::reference::Join(a, b, spec);
    ASSERT_OK(oracle);
    Differential([&](const Engine& e) { return e.Join(a, b, spec); },
                 std::string("join ") + rel::ComparisonOpToString(op),
                 &*oracle);
  }
}

TEST(MemoryOverlapThetaOperands, SomeDefaultPointJoinsPairs) {
  // The `<` lane must compare matched pairs and their drains, not only
  // empty outputs.
  size_t joined = 0;
  for (const OverlapFuzzParam& p : OverlapFuzzPoints()) {
    const rel::RelationPair theta = ThetaOperands(p.seed);
    auto out = rel::reference::Join(
        theta.a, theta.b, rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kLt});
    ASSERT_OK(out);
    if (!out->empty()) ++joined;
  }
  EXPECT_GT(joined, 0u);
}

TEST_P(MemoryOverlapDifferentialFuzz, DivisionAndSelection) {
  auto divisor = b_->ProjectColumns({b_->arity() - 1});
  ASSERT_OK(divisor);
  rel::DivisionSpec spec{{a_->arity() - 1}, {0}};
  auto oracle = rel::reference::Division(*a_, *divisor, spec);
  ASSERT_OK(oracle);
  Differential(
      [&](const Engine& e) { return e.Divide(*a_, *divisor, spec); },
      "divide", &*oracle);

  Rng rng(GetParam().seed + 3);
  const std::vector<arrays::SelectionPredicate> predicates{
      {0, rel::ComparisonOp::kLt, rng.Uniform(0, 8)},
      {a_->arity() - 1, rel::ComparisonOp::kGe, rng.Uniform(0, 4)}};
  Differential([&](const Engine& e) { return e.Select(*a_, predicates); },
               "select");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryOverlapDifferentialFuzz,
                         ::testing::ValuesIn(OverlapFuzzPoints()));

// ---------------------------------------------------------------------------
// Fault interaction: a tile retried under an installed fault plan must
// replay its scratchpad feed from scratch — the result must stay
// bit-identical to the fault-free oracle with overlap on, and the replayed
// feeds must surface as EXTRA dma traffic relative to the fault-free run
// whenever retries actually happened.
// ---------------------------------------------------------------------------

class MemoryOverlapFaultFuzz
    : public ::testing::TestWithParam<OverlapFuzzParam> {};

TEST_P(MemoryOverlapFaultFuzz, RetriedTilesReplayTheirFeedBitIdentically) {
  const OverlapFuzzParam p = GetParam();
  const size_t chips = std::max<size_t>(2, p.num_chips);
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 14 + p.seed % 18;
  options.base.domain_size = 4 + p.seed % 5;
  options.base.seed = p.seed;
  options.b_num_tuples = 9 + (p.seed * 3) % 17;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  DeviceConfig device;
  // Bounded odd rows (marching mode requires odd) so the run actually tiles.
  device.rows = p.device_rows == 0 ? 5 : p.device_rows;
  device.mode = p.mode;
  device.num_chips = chips;
  device.overlap = OverlapPolicy::kOn;
  // Under a fault plan kAuto keeps marching, so the fault-free oracle runs
  // the discipline the faulty engine resolves.
  const Engine oracle =
      Engine(device).WithMode(p.mode == arrays::FeedModePolicy::kFixedB
                                  ? arrays::FeedMode::kFixedB
                                  : arrays::FeedMode::kMarching);

  device.faults = std::make_shared<faults::FaultPlan>(
      faults::FaultPlan::Uniform(p.seed, chips, 0.0002, 0.0001, 0.00005));
  device.recovery.strike_limit = 6;
  const Engine faulty(device);

  const auto oracle_result = oracle.Intersect(pair->a, pair->b);
  const auto faulty_result = faulty.Intersect(pair->a, pair->b);
  ASSERT_OK(oracle_result);
  ASSERT_OK(faulty_result);
  EXPECT_EQ(faulty_result->stats.resolved_mode,
            oracle_result->stats.resolved_mode);
  EXPECT_EQ(oracle_result->relation.tuples(), faulty_result->relation.tuples());
  EXPECT_TRUE(faulty_result->stats.overlap_enabled);
  // The accepted attempts' feeds are what the DMA schedule costs: identical
  // tiles → identical transfer totals, retries or not (the half-drained
  // bank of a rejected attempt is abandoned, never resumed).
  EXPECT_EQ(oracle_result->stats.dma_cycles, faulty_result->stats.dma_cycles);
  EXPECT_EQ(oracle_result->stats.passes, faulty_result->stats.passes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryOverlapFaultFuzz,
                         ::testing::ValuesIn(OverlapFuzzPoints()));

// ---------------------------------------------------------------------------
// Machine level: SET MEMORY must not change transaction results or the
// compute-side report, only the memory counters.
// ---------------------------------------------------------------------------

TEST(MemoryOverlapMachine, PoliciesAgreeOnResultsAndComputeTiming) {
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 24;
  options.base.domain_size = 6;
  options.base.seed = 42;
  options.b_num_tuples = 18;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  const auto run = [&](OverlapPolicy policy)
      -> Result<machine::TransactionReport> {
    machine::MachineConfig config;
    config.device.rows = 5;
    machine::Machine m(config);
    m.SetMemoryPolicy(policy);
    m.disk().Put("a", pair->a);
    m.disk().Put("b", pair->b);
    SYSTOLIC_RETURN_NOT_OK(m.LoadFromDisk("a"));
    SYSTOLIC_RETURN_NOT_OK(m.LoadFromDisk("b"));
    machine::Transaction txn;
    txn.Intersect("a", "b", "x")
        .Join("a", "b", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "j")
        .RemoveDuplicates("a", "d");
    return m.Execute(txn);
  };

  auto off = run(OverlapPolicy::kOff);
  auto on = run(OverlapPolicy::kOn);
  auto def = run(db::DeviceConfig{}.overlap);
  ASSERT_OK(off);
  ASSERT_OK(on);
  ASSERT_OK(def);
  ASSERT_EQ(off->steps.size(), on->steps.size());
  for (size_t s = 0; s < off->steps.size(); ++s) {
    EXPECT_EQ(off->steps[s].exec.cycles, on->steps[s].exec.cycles);
    EXPECT_EQ(off->steps[s].exec.passes, on->steps[s].exec.passes);
    EXPECT_EQ(off->steps[s].exec.dma_cycles, on->steps[s].exec.dma_cycles);
    EXPECT_LE(on->steps[s].exec.memory_makespan_cycles,
              off->steps[s].exec.memory_makespan_cycles);
    // The default policy is on.
    EXPECT_EQ(def->steps[s].exec.memory_makespan_cycles,
              on->steps[s].exec.memory_makespan_cycles);
    EXPECT_TRUE(def->steps[s].exec.overlap_enabled);
  }
  EXPECT_EQ(off->bytes_through_crossbar, on->bytes_through_crossbar);
}

}  // namespace
}  // namespace systolic
