// Fault-recovery fuzzing: randomized fault plans x device shapes x planner
// on/off, asserting the S20 recovery contract — as long as at least one
// healthy chip remains, every operation's output is bit-identical to a
// fault-free oracle run. Retry/strike counters are deliberately NOT
// asserted: which chip claims which tile first is scheduling-dependent; the
// contract is about data.
//
// Default sweep is 20 seed points; set SYSTOLIC_FUZZ_SEEDS=<n> to run n
// points instead (the nightly CI job runs an expanded range).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "planner/physical.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "system/machine.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace {

using db::DeviceConfig;
using db::Engine;
using rel::Relation;
using rel::Schema;

struct RecoveryFuzzParam {
  uint64_t seed;
  size_t device_rows;
  arrays::FeedModePolicy mode;
  size_t num_chips;
  /// Chips marked dead (always < num_chips: at least one survives).
  size_t num_dead;
  /// Transient bit-flip rate; drops and stuck lines derived from it.
  double rate;
  /// Machine-level runs route the transaction through the query planner.
  bool planner_on;
};

/// Deterministic point `k` of the sweep: shapes, chip counts, fault
/// intensities and planner toggle all cycle on different small periods so
/// the cross-product is covered without correlation.
RecoveryFuzzParam PointAt(size_t k) {
  // Odd row counts only (plus 0 = unconstrained): marching mode needs a
  // center row.
  static constexpr size_t kRows[] = {0, 3, 5, 7, 9, 11, 13, 1};
  static constexpr size_t kChips[] = {1, 2, 3, 7};
  // Per-decision transient rates. A tile attempt makes hundreds to a few
  // thousand injection decisions (scaling with device_rows), so even 2e-4
  // corrupts a healthy share of attempts on the larger shapes; much hotter
  // rates corrupt essentially EVERY attempt, the strike limit trips on
  // every chip and the engine legitimately degrades to Unavailable instead
  // of recovering.
  static constexpr double kRates[] = {0.0, 0.0001, 0.0002, 0.0005};
  RecoveryFuzzParam p;
  p.seed = 200 + k;
  p.device_rows = kRows[k % 8];
  p.mode = k % 3 == 0 ? arrays::FeedModePolicy::kFixedB
                      : (k % 3 == 1 ? arrays::FeedModePolicy::kMarching
                                    : arrays::FeedModePolicy::kAuto);
  p.num_chips = kChips[k % 4];
  p.num_dead = k % p.num_chips;
  p.rate = kRates[(k / 2) % 4];
  p.planner_on = k % 2 == 0;
  return p;
}

/// The sweep: 20 points by default, SYSTOLIC_FUZZ_SEEDS sets its size.
std::vector<RecoveryFuzzParam> SweepPoints() {
  const size_t count = systolic::testing::FuzzSeedCount(20);
  std::vector<RecoveryFuzzParam> points;
  points.reserve(count);
  for (size_t k = 0; k < count; ++k) points.push_back(PointAt(k));
  return points;
}

/// Generous strike limit for the sweep: several points leave only ONE
/// usable chip, and with the default limit of 3 an unlucky run of three
/// consecutive transient hits on one tile would quarantine it — turning a
/// recovery test into an availability test. Dead-chip quarantine and strike
/// rotation are pinned by the EngineFaultTest unit tests instead.
faults::RecoveryOptions FuzzRecovery() {
  faults::RecoveryOptions recovery;
  recovery.strike_limit = 6;
  return recovery;
}

std::shared_ptr<faults::FaultPlan> PlanFor(const RecoveryFuzzParam& p) {
  auto plan = std::make_shared<faults::FaultPlan>(faults::FaultPlan::Uniform(
      p.seed, p.num_chips, p.rate, p.rate / 2, p.rate / 4));
  // Kill the highest-numbered chips; chip 0 always survives.
  for (size_t d = 0; d < p.num_dead; ++d) {
    plan->chip(p.num_chips - 1 - d).dead = true;
  }
  return plan;
}

class FaultRecoveryFuzz : public ::testing::TestWithParam<RecoveryFuzzParam> {
};

TEST_P(FaultRecoveryFuzz, EveryOpBitIdenticalToFaultFreeOracle) {
  const RecoveryFuzzParam p = GetParam();
  Rng rng(p.seed * 6271 + 5);
  const Schema schema = rel::MakeIntSchema(2 + p.seed % 2);
  rel::PairOptions options;
  options.base.num_tuples = 8 + static_cast<size_t>(rng.Uniform(0, 16));
  options.base.domain_size = 3 + rng.Uniform(0, 5);
  options.base.seed = p.seed;
  options.b_num_tuples = 6 + static_cast<size_t>(rng.Uniform(0, 14));
  options.overlap_fraction = rng.NextDouble();
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  DeviceConfig base;
  base.rows = p.device_rows;
  base.mode = p.mode;
  base.num_chips = p.num_chips;
  Engine oracle(base);

  DeviceConfig faulted_config = base;
  faulted_config.faults = PlanFor(p);
  faulted_config.recovery = FuzzRecovery();
  Engine faulted(faulted_config);

  auto check = [&](const char* op, const Result<db::EngineResult>& want,
                   const Result<db::EngineResult>& got) {
    ASSERT_EQ(want.ok(), got.ok())
        << op << " seed " << p.seed << ": " << want.status().ToString()
        << " vs " << got.status().ToString();
    if (!want.ok()) return;
    EXPECT_EQ(got->relation.tuples(), want->relation.tuples())
        << op << " seed " << p.seed;
    EXPECT_GE(got->stats.healthy_chips, 1u) << op << " seed " << p.seed;
  };

  check("intersect", oracle.Intersect(pair->a, pair->b),
        faulted.Intersect(pair->a, pair->b));
  check("subtract", oracle.Subtract(pair->a, pair->b),
        faulted.Subtract(pair->a, pair->b));
  check("dedup", oracle.RemoveDuplicates(pair->a),
        faulted.RemoveDuplicates(pair->a));
  check("union", oracle.Union(pair->a, pair->b),
        faulted.Union(pair->a, pair->b));
  check("project", oracle.Project(pair->a, {0}),
        faulted.Project(pair->a, {0}));
  const rel::JoinSpec join_spec{
      {0}, {0}, static_cast<rel::ComparisonOp>(p.seed % 6)};
  check("join", oracle.Join(pair->a, pair->b, join_spec),
        faulted.Join(pair->a, pair->b, join_spec));
  auto divisor = pair->b.ProjectColumns({pair->b.arity() - 1});
  ASSERT_OK(divisor);
  const rel::DivisionSpec div_spec{{pair->a.arity() - 1}, {0}};
  check("divide", oracle.Divide(pair->a, *divisor, div_spec),
        faulted.Divide(pair->a, *divisor, div_spec));
  const std::vector<arrays::SelectionPredicate> predicates{
      {0, rel::ComparisonOp::kLt, rng.Uniform(0, 6)}};
  check("select", oracle.Select(pair->a, predicates),
        faulted.Select(pair->a, predicates));
}

TEST_P(FaultRecoveryFuzz, MachineTransactionsRecoverWithAndWithoutPlanner) {
  // The §9 machine with a fault plan on every device: a multi-step
  // transaction — literal or through the cost-based planner, per the param —
  // must leave sink buffers bit-identical to a fault-free literal run.
  const RecoveryFuzzParam p = GetParam();
  Rng rng(p.seed * 7723 + 11);
  const Schema schema = rel::MakeIntSchema(2);
  std::map<std::string, Relation> inputs;
  for (const char* name : {"r0", "r1", "r2"}) {
    rel::GeneratorOptions options;
    options.num_tuples = 6 + static_cast<size_t>(rng.Uniform(0, 8));
    options.domain_size = 4;
    options.seed = p.seed * 31 + static_cast<uint64_t>(name[1]);
    auto r = rel::GenerateRelation(schema, options);
    ASSERT_OK(r);
    inputs.emplace(name, *std::move(r));
  }

  machine::Transaction txn;
  txn.Intersect("r0", "r1", "t0");
  txn.Union("t0", "r2", "t1");
  txn.RemoveDuplicates("t1", "sink");

  machine::MachineConfig config;
  config.num_memories = 16;
  config.device.rows = p.device_rows;
  config.device.mode = p.mode;
  config.device.num_chips = p.num_chips;

  const auto run = [&](bool with_faults,
                       bool planned) -> std::vector<rel::Tuple> {
    machine::Machine m(config);
    if (with_faults) m.InstallFaultPlan(PlanFor(p), FuzzRecovery());
    for (const auto& [name, r] : inputs) {
      SYSTOLIC_CHECK(m.StoreBuffer(name, r).ok());
    }
    machine::Transaction to_run = txn;
    if (planned) {
      std::map<std::string, planner::InputInfo> catalog;
      for (const auto& [name, r] : inputs) {
        catalog[name] = {r.schema(), r.num_tuples(),
                         planner::ProvablyDuplicateFree(r)};
      }
      planner::PlannerOptions options;
      options.params.default_device = config.device;
      auto planned_txn = planner::PlanTransaction(txn, catalog, options);
      SYSTOLIC_CHECK(planned_txn.ok()) << planned_txn.status().ToString();
      to_run = planned_txn->transaction;
    }
    auto report = m.Execute(to_run);
    SYSTOLIC_CHECK(report.ok()) << report.status().ToString();
    auto buffer = m.Buffer("sink");
    SYSTOLIC_CHECK(buffer.ok());
    return (*buffer)->tuples();
  };

  const std::vector<rel::Tuple> oracle = run(false, false);
  EXPECT_EQ(run(true, p.planner_on), oracle)
      << "seed " << p.seed << (p.planner_on ? " (planned)" : " (literal)");
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultRecoveryFuzz,
                         ::testing::ValuesIn(SweepPoints()));

}  // namespace
}  // namespace systolic
