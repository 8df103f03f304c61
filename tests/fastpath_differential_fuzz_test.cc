// Fast-path differential fuzzing: the gate for the vectorized executor.
// Every point builds TWO engines over the same device shape — backend rtl
// (the pulse-level simulator) and backend fast (packed SWAR kernels with
// analytic timing) — runs every relational operation on both plus the
// reference nested-loop oracle, and requires:
//   * bit-identical result relations (tuple order included),
//   * identical pass counts, pulse totals, makespan pulses and DMA
//     counters (the analytic-timing contract: closed forms equal
//     simulation),
// across seeds, bounded and unbounded geometries, chip counts, and the
// planner on full transactions. SYSTOLIC_FUZZ_SEEDS sets the size of the
// seed set (the nightly lane widens it), same as the other fuzz suites.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fastpath/backend.h"
#include "gtest/gtest.h"
#include "planner/physical.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_reference.h"
#include "system/machine.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace {

using db::DeviceConfig;
using db::Engine;
using db::EngineResult;
using rel::Relation;
using rel::Schema;

struct FastpathFuzzParam {
  uint64_t seed;
  size_t device_rows;
  arrays::FeedModePolicy mode;
  size_t num_chips;
};

/// The default fuzz points rotate device shape, feed-mode policy, and chip
/// count; SYSTOLIC_FUZZ_SEEDS sets the size of the set.
std::vector<FastpathFuzzParam> FastpathFuzzPoints() {
  std::vector<FastpathFuzzParam> points;
  const size_t count = systolic::testing::FuzzSeedCount(24);
  static constexpr size_t kRows[] = {0, 3, 5, 7, 9, 13};
  static constexpr arrays::FeedModePolicy kModes[] = {
      arrays::FeedModePolicy::kMarching, arrays::FeedModePolicy::kFixedB,
      arrays::FeedModePolicy::kAuto};
  static constexpr size_t kChips[] = {1, 2, 3, 7};
  for (size_t k = 0; k < count; ++k) {
    points.push_back(FastpathFuzzParam{501 + k, kRows[k % 6], kModes[k % 3],
                                       kChips[k % 4]});
  }
  return points;
}

class FastpathDifferentialFuzz
    : public ::testing::TestWithParam<FastpathFuzzParam> {
 protected:
  void SetUp() override {
    const FastpathFuzzParam p = GetParam();
    Rng rng(p.seed * 6364136223846793005ull + 1442695040888963407ull);
    schema_ = rel::MakeIntSchema(2 + p.seed % 3);
    rel::PairOptions options;
    options.base.num_tuples = 8 + static_cast<size_t>(rng.Uniform(0, 40));
    options.base.domain_size = 3 + rng.Uniform(0, 6);
    options.base.seed = p.seed;
    options.b_num_tuples = 5 + static_cast<size_t>(rng.Uniform(0, 35));
    options.overlap_fraction = rng.NextDouble();
    auto pair = rel::GenerateOverlappingPair(schema_, options);
    SYSTOLIC_CHECK(pair.ok());
    a_ = std::make_unique<Relation>(std::move(pair->a));
    b_ = std::make_unique<Relation>(std::move(pair->b));
    DeviceConfig device;
    device.rows = p.device_rows;
    device.mode = p.mode;
    device.num_chips = p.num_chips;
    rtl_ = std::make_unique<Engine>(device);
    device.backend = fastpath::Backend::kFast;
    fast_ = std::make_unique<Engine>(device);
  }

  /// The differential assertion: identical relations (order included) and
  /// identical timing, plus the fast run actually took the fast path with
  /// analytic timing flagged and zero simulated cell occupancy.
  void ExpectSame(const Result<EngineResult>& rtl,
                  const Result<EngineResult>& fast, const std::string& what) {
    ASSERT_EQ(rtl.ok(), fast.ok())
        << what << ": " << rtl.status().ToString() << " vs "
        << fast.status().ToString();
    if (!rtl.ok()) return;
    EXPECT_EQ((*rtl).relation.tuples(), (*fast).relation.tuples()) << what;
    EXPECT_EQ((*rtl).stats.passes, (*fast).stats.passes) << what;
    EXPECT_EQ((*rtl).stats.cycles, (*fast).stats.cycles) << what;
    EXPECT_EQ((*rtl).stats.makespan_cycles, (*fast).stats.makespan_cycles)
        << what;
    EXPECT_EQ((*rtl).stats.dma_cycles, (*fast).stats.dma_cycles) << what;
    EXPECT_EQ((*rtl).stats.overlap_cycles, (*fast).stats.overlap_cycles)
        << what;
    EXPECT_EQ((*rtl).stats.memory_makespan_cycles,
              (*fast).stats.memory_makespan_cycles)
        << what;
    EXPECT_EQ((*rtl).stats.backend, fastpath::Backend::kRtl) << what;
    EXPECT_EQ((*fast).stats.backend, fastpath::Backend::kFast) << what;
    EXPECT_TRUE((*fast).stats.analytic_timing) << what;
    EXPECT_FALSE((*rtl).stats.analytic_timing) << what;
    EXPECT_EQ((*fast).stats.busy_cell_cycles, 0u) << what;
  }

  Schema schema_;
  std::unique_ptr<Relation> a_;
  std::unique_ptr<Relation> b_;
  std::unique_ptr<Engine> rtl_;
  std::unique_ptr<Engine> fast_;
};

TEST_P(FastpathDifferentialFuzz, SetOperations) {
  auto oracle = rel::reference::Intersection(*a_, *b_);
  ASSERT_OK(oracle);
  auto fast = fast_->Intersect(*a_, *b_);
  ExpectSame(rtl_->Intersect(*a_, *b_), fast, "intersect");
  if (fast.ok()) {
    EXPECT_EQ(oracle->tuples(), (*fast).relation.tuples());
  }
  ExpectSame(rtl_->Subtract(*a_, *b_), fast_->Subtract(*a_, *b_), "subtract");
  ExpectSame(rtl_->Union(*a_, *b_), fast_->Union(*a_, *b_), "union");
}

TEST_P(FastpathDifferentialFuzz, DedupAndProjection) {
  auto oracle = rel::reference::RemoveDuplicates(*a_);
  ASSERT_OK(oracle);
  auto fast = fast_->RemoveDuplicates(*a_);
  ExpectSame(rtl_->RemoveDuplicates(*a_), fast, "dedup");
  if (fast.ok()) {
    EXPECT_EQ(oracle->tuples(), (*fast).relation.tuples());
  }
  const std::vector<size_t> columns{0};
  ExpectSame(rtl_->Project(*a_, columns), fast_->Project(*a_, columns),
             "project");
}

TEST_P(FastpathDifferentialFuzz, JoinAllOps) {
  for (const rel::ComparisonOp op :
       {rel::ComparisonOp::kEq, rel::ComparisonOp::kLt,
        rel::ComparisonOp::kGe, rel::ComparisonOp::kNe}) {
    rel::JoinSpec spec{{0}, {0}, op};
    auto oracle = rel::reference::Join(*a_, *b_, spec);
    ASSERT_OK(oracle);
    auto fast = fast_->Join(*a_, *b_, spec);
    ExpectSame(rtl_->Join(*a_, *b_, spec), fast,
               std::string("join ") + rel::ComparisonOpToString(op));
    if (fast.ok()) {
      EXPECT_EQ(oracle->tuples(), (*fast).relation.tuples());
    }
  }
}

TEST_P(FastpathDifferentialFuzz, Division) {
  auto divisor = b_->ProjectColumns({b_->arity() - 1});
  ASSERT_OK(divisor);
  rel::DivisionSpec spec{{a_->arity() - 1}, {0}};
  auto oracle = rel::reference::Division(*a_, *divisor, spec);
  ASSERT_OK(oracle);
  auto fast = fast_->Divide(*a_, *divisor, spec);
  ExpectSame(rtl_->Divide(*a_, *divisor, spec), fast, "divide");
  if (fast.ok()) {
    EXPECT_EQ(oracle->tuples(), (*fast).relation.tuples());
  }

  // Empty divisor: the Q = 0 closed form.
  const Relation empty(divisor->schema(), rel::RelationKind::kSet);
  ExpectSame(rtl_->Divide(*a_, empty, spec), fast_->Divide(*a_, empty, spec),
             "divide-empty");
}

TEST_P(FastpathDifferentialFuzz, Selection) {
  Rng rng(GetParam().seed + 3);
  const std::vector<arrays::SelectionPredicate> predicates{
      {0, rel::ComparisonOp::kLt, rng.Uniform(0, 8)},
      {a_->arity() - 1, rel::ComparisonOp::kGe, rng.Uniform(0, 4)}};
  ExpectSame(rtl_->Select(*a_, predicates), fast_->Select(*a_, predicates),
             "select");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastpathDifferentialFuzz,
                         ::testing::ValuesIn(FastpathFuzzPoints()));

// ---------------------------------------------------------------------------
// Full transactions through the machine + planner: the fast machine's
// results must match the rtl machine's, pulse totals included, with the
// planner both on and off.
// ---------------------------------------------------------------------------

class FastpathMachineFuzz : public ::testing::TestWithParam<FastpathFuzzParam> {
};

TEST_P(FastpathMachineFuzz, TransactionsMatchRtl) {
  const FastpathFuzzParam p = GetParam();
  const Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 12 + p.seed % 20;
  options.base.domain_size = 4 + p.seed % 5;
  options.base.seed = p.seed;
  options.b_num_tuples = 10 + (p.seed * 3) % 18;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  const auto run = [&](fastpath::Backend policy)
      -> Result<machine::TransactionReport> {
    machine::MachineConfig config;
    config.device.rows = p.device_rows;
    config.device.mode = p.mode;
    config.device.num_chips = p.num_chips;
    config.device.backend = policy;
    machine::Machine m(config);
    m.disk().Put("a", pair->a);
    m.disk().Put("b", pair->b);
    SYSTOLIC_RETURN_NOT_OK(m.LoadFromDisk("a"));
    SYSTOLIC_RETURN_NOT_OK(m.LoadFromDisk("b"));
    machine::Transaction txn;
    txn.Intersect("a", "b", "x")
        .Union("a", "b", "u")
        .Join("a", "b", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "j")
        .RemoveDuplicates("u", "d");
    return m.Execute(txn);
  };

  auto rtl = run(fastpath::Backend::kRtl);
  auto fast = run(fastpath::Backend::kFast);
  ASSERT_OK(rtl);
  ASSERT_OK(fast);
  ASSERT_EQ(rtl->steps.size(), fast->steps.size());
  for (size_t s = 0; s < rtl->steps.size(); ++s) {
    EXPECT_EQ(rtl->steps[s].exec.passes, fast->steps[s].exec.passes)
        << "step " << s;
    EXPECT_EQ(rtl->steps[s].exec.cycles, fast->steps[s].exec.cycles)
        << "step " << s;
    EXPECT_EQ(fast->steps[s].exec.backend, fastpath::Backend::kFast)
        << "step " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Txns, FastpathMachineFuzz,
                         ::testing::ValuesIn(FastpathFuzzPoints()));

// ---------------------------------------------------------------------------
// Many-tile lane: 150–180-tuple operands on 3- and 5-row marching chips put
// thousands of §8 tiles behind each membership operator and join — the
// regime where the fast backend computes every operator once over whole
// operands and gives every tile a closed-form pass record. Division runs on
// a two-column device, so its dividend keys chunk `rows` at a time and its
// divisor values two at a time: several chunks × several groups. Fast, RTL
// and the reference oracle must agree tuple for tuple, and fast and RTL on
// every pass, pulse and DMA counter. The default four points cover rows ×
// chips ∈ {3, 5} × {1, 4} with overlap on and off; the operand range keeps
// the RTL side near 10 s in a Debug build.
// ---------------------------------------------------------------------------

struct ManyTileParam {
  uint64_t seed;
  size_t device_rows;
  size_t num_chips;
  spad::OverlapPolicy overlap;
};

std::vector<ManyTileParam> ManyTilePoints() {
  std::vector<ManyTileParam> points;
  const size_t count = systolic::testing::FuzzSeedCount(4);
  for (size_t k = 0; k < count; ++k) {
    points.push_back(ManyTileParam{
        901 + k, k % 2 == 0 ? size_t{3} : size_t{5},
        k / 2 % 2 == 0 ? size_t{1} : size_t{4},
        (k + k / 2) % 2 == 0 ? spad::OverlapPolicy::kOn
                             : spad::OverlapPolicy::kOff});
  }
  return points;
}

class FastpathManyTileFuzz : public ::testing::TestWithParam<ManyTileParam> {};

TEST_P(FastpathManyTileFuzz, WholeOperandMatchesEveryTile) {
  const ManyTileParam p = GetParam();
  Rng rng(p.seed);
  rel::PairOptions options;
  options.base.num_tuples = 150 + static_cast<size_t>(rng.Uniform(0, 30));
  options.base.domain_size = 6 + rng.Uniform(0, 6);
  options.base.seed = p.seed;
  options.b_num_tuples = 150 + static_cast<size_t>(rng.Uniform(0, 30));
  options.overlap_fraction = rng.NextDouble();
  const Schema schema = rel::MakeIntSchema(2);
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);
  const Relation& a = pair->a;
  const Relation& b = pair->b;

  DeviceConfig device;
  device.rows = p.device_rows;
  // The operands' width, and two divisor values per division group.
  device.columns = 2;
  device.mode = arrays::FeedModePolicy::kMarching;
  device.num_chips = p.num_chips;
  device.overlap = p.overlap;
  const Engine rtl(device);
  device.backend = fastpath::Backend::kFast;
  const Engine fast(device);

  const auto check = [](const Result<EngineResult>& rtl_run,
                        const Result<EngineResult>& fast_run,
                        const Result<Relation>& oracle,
                        const std::string& what, size_t min_passes) {
    ASSERT_OK(rtl_run);
    ASSERT_OK(fast_run);
    ASSERT_OK(oracle);
    const rel::Relation& out = fast_run->relation;
    EXPECT_EQ(rtl_run->relation.tuples(), out.tuples()) << what;
    EXPECT_EQ(oracle->tuples(), out.tuples()) << what;
    const db::ExecStats& r = rtl_run->stats;
    const db::ExecStats& f = fast_run->stats;
    EXPECT_GE(f.passes, min_passes) << what;
    EXPECT_EQ(r.passes, f.passes) << what;
    EXPECT_EQ(r.cycles, f.cycles) << what;
    EXPECT_EQ(r.makespan_cycles, f.makespan_cycles) << what;
    EXPECT_EQ(r.dma_cycles, f.dma_cycles) << what;
    EXPECT_EQ(r.overlap_cycles, f.overlap_cycles) << what;
    EXPECT_EQ(r.memory_makespan_cycles, f.memory_makespan_cycles) << what;
    EXPECT_EQ(f.backend, fastpath::Backend::kFast) << what;
  };
  constexpr size_t kManyTiles = 101;
  check(rtl.Intersect(a, b), fast.Intersect(a, b),
        rel::reference::Intersection(a, b), "intersect", kManyTiles);
  check(rtl.Subtract(a, b), fast.Subtract(a, b),
        rel::reference::Difference(a, b), "subtract", kManyTiles);
  check(rtl.RemoveDuplicates(a), fast.RemoveDuplicates(a),
        rel::reference::RemoveDuplicates(a), "dedup", kManyTiles);
  check(rtl.Union(a, b), fast.Union(a, b), rel::reference::Union(a, b),
        "union", kManyTiles);
  const rel::JoinSpec eq{{0}, {0}, rel::ComparisonOp::kEq};
  check(rtl.Join(a, b, eq), fast.Join(a, b, eq),
        rel::reference::Join(a, b, eq), "join =", kManyTiles);
  // The θ-join's operands straddle on column 0, so its `<` pairs match.
  const rel::RelationPair theta = testing::StraddlingPair(schema, options);
  const rel::JoinSpec lt{{0}, {0}, rel::ComparisonOp::kLt};
  const Result<Relation> lt_oracle =
      rel::reference::Join(theta.a, theta.b, lt);
  ASSERT_OK(lt_oracle);
  EXPECT_FALSE(lt_oracle->empty());
  check(rtl.Join(theta.a, theta.b, lt), fast.Join(theta.a, theta.b, lt),
        lt_oracle, "join <", kManyTiles);

  // Division by B's column 1, by its values below 3 (which a key can cover
  // whole) and by nothing; A's keys are its column 0.
  const rel::DivisionSpec spec{{1}, {0}};
  auto divisor = b.ProjectColumns({1});
  ASSERT_OK(divisor);
  BitVector low(divisor->num_tuples(), false);
  for (size_t j = 0; j < divisor->num_tuples(); ++j) {
    low.Set(j, divisor->tuple(j)[0] < 3);
  }
  auto small = divisor->Filter(low, rel::RelationKind::kMulti);
  ASSERT_OK(small);
  const Relation none(divisor->schema(), rel::RelationKind::kSet);
  const auto divide = [&](const Relation& d, const std::string& what,
                          size_t min_passes) {
    check(rtl.Divide(a, d, spec), fast.Divide(a, d, spec),
          rel::reference::Division(a, d, spec), what, min_passes);
  };
  // At least 6 keys on 5 rows and 3 small values on 2 columns: several
  // chunks × several groups.
  divide(*divisor, "divide", 6);
  divide(*small, "divide small", 4);
  divide(none, "divide empty", 2);

  const std::vector<arrays::SelectionPredicate> predicates{
      {0, rel::ComparisonOp::kLt, options.base.domain_size},
      {1, rel::ComparisonOp::kGe, 2}};
  Relation selected(schema, rel::RelationKind::kSet);
  for (const rel::Tuple& t : a.tuples()) {
    if (t[0] < options.base.domain_size && t[1] >= 2) {
      ASSERT_STATUS_OK(selected.Append(t));
    }
  }
  check(rtl.Select(a, predicates), fast.Select(a, predicates), selected,
        "select", 1);
}

INSTANTIATE_TEST_SUITE_P(ManyTiles, FastpathManyTileFuzz,
                         ::testing::ValuesIn(ManyTilePoints()));

}  // namespace
}  // namespace systolic
