// The engine fuzz sweep. §8 claims that cutting T into tiles, spreading the
// tiles over chips and holding one relation fixed never change a result,
// and §3.2 and §8 give exact pulse counts. One body checks both: a case
// runs one group of a lane's ops at one point, on a reference engine and on
// variants that differ from it along one axis; each result must equal the
// software oracle tuple for tuple, and the two runs' whole ExecStats must
// agree on every field that axis may not move. The axes:
//   * Backend:  RTL simulation against the fast path's packed kernels and
//     closed-form timing (and Backend/ManyTiles, thousands of tiles);
//   * Overlap:  serialised scratchpad feeds against double-buffered ones;
//   * Chips:    one chip against 2 and 7, on 1000 seeded pairs in shards;
//   * Faults:   a fault-free engine against one recovering from injected
//     faults (and OverlapFaults, retried tiles replaying their feeds);
//   * Auto:     kAuto against the explicit discipline it resolved, and RTL
//     against fast (the guard sweep).
// Lanes that compare something else are short tests on the same pieces:
// software baselines, planner and machine transactions. The points, operand
// recipes, op catalogue, comparator and machine runner live in
// fuzz_harness.h; SYSTOLIC_FUZZ_SEEDS scales every lane.

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arrays/bit_serial.h"
#include "arrays/intersection_array.h"
#include "fuzz_harness.h"

namespace systolic {
namespace {

using arrays::FeedMode;
using arrays::FeedModePolicy;
using db::DeviceConfig;
using db::Engine;
using db::EngineResult;
using db::ExecStats;
using fuzz::Axis;
using fuzz::EngineOp;
using fuzz::LaneOp;
using fuzz::Op;
using fuzz::Operands;
using fuzz::Point;
using rel::ComparisonOp;
using rel::Relation;

constexpr ComparisonOp kEq = ComparisonOp::kEq;

/// Ops that one case runs in turn on the same engines; a named group's
/// cases print its name before the point.
struct OpGroup {
  std::string name;
  std::vector<LaneOp> ops;
};

struct Lane {
  Axis axis;
  std::vector<Point> points;
  Operands (*operands)(const Point&, uint64_t seed);
  /// One case per group and point. The guard sweep's one group is empty:
  /// its shapes name their one op.
  std::vector<OpGroup> groups;
  /// Whether the oracle may refuse an op of this lane (a join across
  /// domains, a division that leaves no quotient); the engines must then
  /// refuse it too. Elsewhere every op must succeed.
  bool refusals = false;
  /// Operand draws per point, from its seed on, all on the point's engines.
  size_t draws = 1;
};

/// One group of ops at one point; the software-baseline cases have no lane.
struct Case {
  const Lane* lane;
  const OpGroup* group;
  Point point;
};

void PrintTo(const Case& c, std::ostream* os) {
  if (!c.group->name.empty()) *os << c.group->name << " ";
  PrintTo(c.point, os);
}

std::vector<Case> Cases(const std::vector<OpGroup>& groups,
                        const std::vector<Point>& points,
                        const Lane* lane = nullptr) {
  std::vector<Case> cases;
  for (const OpGroup& group : groups) {
    for (const Point& p : points) cases.push_back({lane, &group, p});
  }
  return cases;
}

std::vector<Case> Cases(const Lane& lane) {
  return Cases(lane.groups, lane.points, &lane);
}

const OpGroup kSetOperations{
    "SetOperations", {{Op::kIntersect}, {Op::kSubtract}, {Op::kUnion}}};
const OpGroup kDedupAndProjection{"DedupAndProjection",
                                  {{Op::kDedup}, {Op::kProject}}};

const OpGroup kSeededOps{
    "",
    {{Op::kIntersect}, {Op::kSubtract}, {Op::kDedup}, {Op::kUnion},
     {Op::kProject}, {Op::kSeededJoin}, {Op::kDivide}, {Op::kSelect}}};

const Lane kBackendLane{
    Axis::kBackend, fuzz::RotationPoints(501), fuzz::WideOperands,
    {kSetOperations, kDedupAndProjection,
     {"JoinAllOps",
      {{Op::kJoin}, {Op::kJoin, ComparisonOp::kLt},
       {Op::kJoin, ComparisonOp::kGe}, {Op::kJoin, ComparisonOp::kNe}}},
     {"Division", {{Op::kDivide}, {Op::kDivideEmpty}}},
     {"Selection", {{Op::kSelect}}}}};

/// At least 101 tiles behind every membership operator and join; at least
/// 6 keys on 5 rows and 3 small values on 2 columns for division.
const Lane kManyTileLane{
    Axis::kBackend, fuzz::ManyTilePoints(), fuzz::ManyTileOperands,
    {{"",
      {{Op::kIntersect, kEq, 101}, {Op::kSubtract, kEq, 101},
       {Op::kDedup, kEq, 101}, {Op::kUnion, kEq, 101}, {Op::kJoin, kEq, 101},
       {Op::kThetaLt, kEq, 101}, {Op::kDivide, kEq, 6},
       {Op::kDivideSmall, kEq, 4}, {Op::kDivideEmpty, kEq, 2},
       {Op::kSelect, kEq, 1}}}}};

const Lane kOverlapLane{
    Axis::kOverlap, fuzz::OverlapPoints(), fuzz::WideOperands,
    {kSetOperations, kDedupAndProjection,
     {"JoinAllOps",
      {{Op::kJoin}, {Op::kThetaLt}, {Op::kJoin, ComparisonOp::kNe}}},
     {"DivisionAndSelection", {{Op::kDivide}, {Op::kSelect}}}}};

const Lane kChipLane{Axis::kChips, fuzz::ChipPoints(), fuzz::ChipOperands,
                     {kSeededOps}, /*refusals=*/true, fuzz::kShardSeeds};

/// One faulted engine runs the ops in turn, so chip health carries over.
const Lane kFaultLane{Axis::kFaults, fuzz::FaultPoints(), fuzz::FaultOperands,
                      {kSeededOps}, /*refusals=*/true};

/// A tile retried under faults replays its scratchpad feed from scratch,
/// and only accepted attempts' feeds are costed, so with overlap on the
/// faulted run's passes and dma_cycles equal the fault-free run's: the
/// fault axis does not move them.
const Lane kOverlapFaultLane{Axis::kFaults, fuzz::OverlapFaultPoints(),
                             fuzz::OverlapFaultOperands,
                             {{"", {{Op::kIntersect}}}}};

const Lane kGuardLane{Axis::kAuto, fuzz::GuardPoints(), fuzz::GuardOperands,
                      {{"", {}}}};

/// Runs `op` on `engine` and checks the run's stats against its device.
Result<EngineResult> RunOp(const Engine& engine, const EngineOp& op,
                           const std::string& what) {
  Result<EngineResult> result = op.run(engine);
  if (result.ok()) fuzz::ExpectConsistent(engine.device(), result->stats, what);
  return result;
}

/// Both runs return the oracle's tuples, in its order, and agree on every
/// ExecStats field `axis` may not move. An op the oracle refuses fails on
/// both.
void ExpectAgree(Axis axis, const Result<EngineResult>& ref,
                 const Result<EngineResult>& var,
                 const Result<Relation>& oracle, const std::string& what,
                 size_t min_passes = 0) {
  ASSERT_EQ(ref.ok(), oracle.ok()) << what << ": " << ref.status().ToString();
  ASSERT_EQ(var.ok(), oracle.ok()) << what << ": " << var.status().ToString();
  if (!oracle.ok()) return;
  EXPECT_EQ(ref->relation.tuples(), oracle->tuples()) << what;
  EXPECT_EQ(var->relation.tuples(), oracle->tuples()) << what;
  EXPECT_GE(var->stats.passes, min_passes) << what;
  fuzz::ExpectSameStats(axis, ref->stats, var->stats, what);
}

/// Overlap under one discipline: the same feeds move either way, and the
/// double-buffered memory critical path is never longer than the
/// serialised one. On one chip it is shorter by exactly the hidden pulses,
/// and the serialised path is compute plus every transfer, back to back.
void ExpectOverlapPair(const Result<EngineResult>& off,
                       const Result<EngineResult>& on,
                       const Result<Relation>& oracle,
                       const std::string& what) {
  ExpectAgree(Axis::kOverlap, off, on, oracle, what);
  if (!off.ok() || !on.ok()) return;
  const ExecStats& soff = off->stats;
  const ExecStats& son = on->stats;
  EXPECT_LE(son.memory_makespan_cycles, soff.memory_makespan_cycles) << what;
  if (soff.num_chips == 1) {
    EXPECT_EQ(son.memory_makespan_cycles + son.overlap_cycles,
              soff.memory_makespan_cycles)
        << what;
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

/// The overlap hook. kAuto's guard weighs the memory makespan, which
/// overlap moves, so the two policies may resolve different disciplines;
/// then each run is checked against the other policy pinned to its
/// discipline.
void ExpectOverlapAgrees(const Engine& off, const Engine& on,
                         const EngineOp& op, const Result<Relation>& oracle,
                         const std::string& what) {
  const Result<EngineResult> r_off = RunOp(off, op, what);
  const Result<EngineResult> r_on = RunOp(on, op, what);
  if (!r_off.ok() || !r_on.ok() ||
      r_off->stats.resolved_mode == r_on->stats.resolved_mode) {
    ExpectOverlapPair(r_off, r_on, oracle, what);
    return;
  }
  EXPECT_EQ(on.device().mode, FeedModePolicy::kAuto) << what;
  // Each run's discipline is no worse than the other's under its own
  // policy, so double-buffering still never lengthens the memory path.
  EXPECT_LE(r_on->stats.memory_makespan_cycles,
            r_off->stats.memory_makespan_cycles)
      << what;
  ExpectOverlapPair(r_off,
                    RunOp(on.WithMode(r_off->stats.resolved_mode), op, what),
                    oracle, what + " (overlap-off discipline)");
  ExpectOverlapPair(RunOp(off.WithMode(r_on->stats.resolved_mode), op, what),
                    r_on, oracle, what + " (overlap-on discipline)");
}

/// The kAuto hook: fixed-B never needs more pulses than marching, the
/// default is no worse than explicit marching on cycles, makespan and
/// memory makespan, its whole ExecStats equal an explicit run of the
/// discipline it resolved, and the RTL backend agrees with the fast one.
/// Marching pairs never meet on an even row count, so there explicit
/// marching is a usage error and the default runs fixed-B.
void ExpectGuardHolds(const Point& p, const Engine& fast_auto,
                      const EngineOp& op, const Result<Relation>& oracle,
                      const std::string& what) {
  const auto run = [&](FeedModePolicy mode, fastpath::Backend backend) {
    DeviceConfig d = fast_auto.device();
    d.mode = mode;
    d.backend = backend;
    return RunOp(Engine(d), op, what);
  };
  const Result<EngineResult> chosen = RunOp(fast_auto, op, what);
  const Result<EngineResult> fixed =
      run(FeedModePolicy::kFixedB, fastpath::Backend::kFast);
  const Result<EngineResult> marching =
      run(FeedModePolicy::kMarching, fastpath::Backend::kFast);
  ASSERT_OK(oracle) << what;
  ASSERT_OK(chosen) << what;
  ASSERT_OK(fixed) << what;
  const ExecStats& d = chosen->stats;
  if (p.device.rows % 2 == 0 && p.device.rows != 0) {
    EXPECT_TRUE(marching.status().IsInvalidArgument()) << what;
    ASSERT_EQ(d.resolved_mode, FeedMode::kFixedB) << what;
  } else {
    ASSERT_OK(marching) << what;
    const ExecStats& m = marching->stats;
    EXPECT_LE(fixed->stats.cycles, m.cycles) << what;
    EXPECT_LE(d.cycles, m.cycles) << what;
    EXPECT_LE(d.makespan_cycles, m.makespan_cycles) << what;
    EXPECT_LE(d.memory_makespan_cycles, m.memory_makespan_cycles) << what;
  }
  if (p.expect_marching) {
    ASSERT_OK(marching) << what;
    EXPECT_EQ(d.resolved_mode, FeedMode::kMarching) << what;
    EXPECT_GT(fixed->stats.memory_makespan_cycles,
              marching->stats.memory_makespan_cycles)
        << what;
  }
  ExpectAgree(Axis::kAuto,
              d.resolved_mode == FeedMode::kMarching ? marching : fixed,
              chosen, oracle, what + " vs its explicit mode");
  ExpectAgree(Axis::kBackend, chosen,
              run(FeedModePolicy::kAuto, fastpath::Backend::kRtl), oracle,
              what + " rtl vs fast");
}

/// The reference device of a point along `axis`, then its variants.
std::vector<DeviceConfig> AxisDevices(Axis axis, const Point& p) {
  const DeviceConfig device = fuzz::Device(p);
  std::vector<DeviceConfig> devices(2, device);
  switch (axis) {
    case Axis::kBackend:
      devices[0].backend = fastpath::Backend::kRtl;
      devices[1].backend = fastpath::Backend::kFast;
      break;
    case Axis::kOverlap:
      devices[0].overlap = spad::OverlapPolicy::kOff;
      devices[1].overlap = spad::OverlapPolicy::kOn;
      break;
    case Axis::kChips:
      devices[1].num_chips = 2;
      devices.push_back(device);
      devices[2].num_chips = 7;
      break;
    case Axis::kFaults: {
      // The reference's plan injects nothing and kills no chip, so both
      // engines take the fault path's disciplines: the simulator, marching
      // under kAuto, fixed-B dedup in the block-pair triangle.
      Point clean = p;
      clean.rate = 0;
      clean.dead = 0;
      devices[0].faults = fuzz::FaultPlanFor(clean);
      break;
    }
    case Axis::kAuto:
      devices.resize(1);  // the hook runs the explicit disciplines itself
      break;
  }
  return devices;
}

class EngineFuzz : public ::testing::TestWithParam<Case> {};

TEST_P(EngineFuzz, EveryOpMatchesTheOracleAndAgreesAlongTheAxis) {
  const Lane& lane = *GetParam().lane;
  const Point& p = GetParam().point;
  const std::vector<DeviceConfig> devices = AxisDevices(lane.axis, p);
  const std::vector<Engine> engines(devices.begin(), devices.end());
  const std::vector<LaneOp>& group = GetParam().group->ops;
  const std::vector<LaneOp> ops =
      group.empty() ? std::vector<LaneOp>{p.op} : group;

  for (uint64_t seed = p.seed; seed < p.seed + lane.draws; ++seed) {
    const Operands o = lane.operands(p, seed);
    for (const LaneOp& lane_op : ops) {
      const EngineOp op = fuzz::MakeOp(lane_op, o);
      const std::string what = op.name + " seed " + std::to_string(seed);
      const Result<Relation> oracle = op.oracle();
      if (!lane.refusals) {
        ASSERT_OK(oracle) << what;
      }
      switch (lane.axis) {
        case Axis::kOverlap:
          ExpectOverlapAgrees(engines[0], engines[1], op, oracle, what);
          break;
        case Axis::kAuto:
          ExpectGuardHolds(p, engines[0], op, oracle, what);
          break;
        default:
          for (size_t v = 1; v < engines.size(); ++v) {
            ExpectAgree(lane.axis, RunOp(engines[0], op, what),
                        RunOp(engines[v], op, what), oracle,
                        what + " chips=" +
                            std::to_string(devices[v].num_chips),
                        lane_op.min_passes);
          }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backend, EngineFuzz,
                         ::testing::ValuesIn(Cases(kBackendLane)));
INSTANTIATE_TEST_SUITE_P(ManyTiles, EngineFuzz,
                         ::testing::ValuesIn(Cases(kManyTileLane)));
INSTANTIATE_TEST_SUITE_P(Overlap, EngineFuzz,
                         ::testing::ValuesIn(Cases(kOverlapLane)));
INSTANTIATE_TEST_SUITE_P(Chips, EngineFuzz,
                         ::testing::ValuesIn(Cases(kChipLane)));
INSTANTIATE_TEST_SUITE_P(Faults, EngineFuzz,
                         ::testing::ValuesIn(Cases(kFaultLane)));
INSTANTIATE_TEST_SUITE_P(OverlapFaults, EngineFuzz,
                         ::testing::ValuesIn(Cases(kOverlapFaultLane)));
INSTANTIATE_TEST_SUITE_P(Auto, EngineFuzz,
                         ::testing::ValuesIn(Cases(kGuardLane)));

TEST(EngineFuzzOperands, StraddlingJoinsMatchPairs) {
  // The `<` joins must compare matched pairs and their drains, not only
  // empty outputs: some overlap point and every many-tile point join pairs.
  const auto joined = [](const Lane& lane, const Point& p) {
    const Operands o = lane.operands(p, p.seed);
    const EngineOp op = fuzz::MakeOp({Op::kThetaLt}, o);
    const Result<Relation> out = op.oracle();
    SYSTOLIC_CHECK(out.ok()) << out.status().ToString();
    return !out->empty();
  };
  size_t overlap_joins = 0;
  for (const Point& p : kOverlapLane.points) {
    overlap_joins += joined(kOverlapLane, p) ? 1 : 0;
  }
  EXPECT_GT(overlap_joins, 0u);
  for (const Point& p : kManyTileLane.points) {
    EXPECT_TRUE(joined(kManyTileLane, p)) << ::testing::PrintToString(p);
  }
}

// ---------------------------------------------------------------------------
// Software baselines: at each point the engine, the hash and sort
// operators, the tree machine and the bit-level decomposition all agree
// with the reference oracle.
// ---------------------------------------------------------------------------

const std::vector<Point> kBaselinePoints = fuzz::BaselinePoints();

const std::vector<OpGroup> kBaselineGroups{
    {"IntersectionAllBackends", {{Op::kIntersect}}},
    {"DifferenceAllBackends", {{Op::kSubtract}}},
    {"DedupUnionProjection", {{Op::kDedup}, {Op::kUnion}, {Op::kProject}}},
    {"JoinAllOps",
     {{Op::kJoin}, {Op::kJoin, ComparisonOp::kLt},
      {Op::kJoin, ComparisonOp::kGe}}},
    {"Division", {{Op::kDivide}}},
    {"Selection", {{Op::kSelect}}}};

class SoftwareBaselines : public ::testing::TestWithParam<Case> {};

TEST_P(SoftwareBaselines, EveryBackendAgreesWithTheOracle) {
  const Point& p = GetParam().point;
  const Operands o = fuzz::BaselineOperands(p, p.seed);
  const Engine engine(fuzz::Device(p));
  for (const LaneOp& op : GetParam().group->ops) {
    const EngineOp engine_op = fuzz::MakeOp(op, o);
    const std::string& what = engine_op.name;
    const Result<Relation> oracle = engine_op.oracle();
    ASSERT_OK(oracle) << what;
    const Result<EngineResult> run = RunOp(engine, engine_op, what);
    ASSERT_OK(run) << what;
    EXPECT_EQ(oracle->tuples(), run->relation.tuples()) << what;
    for (const fuzz::Baseline& baseline : engine_op.baselines) {
      const Result<Relation> got = baseline.run();
      ASSERT_OK(got) << what << " " << baseline.name;
      if (baseline.ordered) {
        EXPECT_EQ(oracle->tuples(), got->tuples()) << what << baseline.name;
      } else {
        EXPECT_TRUE(oracle->BagEquals(*got)) << what << " " << baseline.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SoftwareBaselines,
                         ::testing::ValuesIn(Cases(kBaselineGroups,
                                                   kBaselinePoints)));

class BitLevelDecomposition : public ::testing::TestWithParam<Point> {};

TEST_P(BitLevelDecomposition, SelectsWhatTheWordLevelArrayDoes) {
  // The bit-level decomposition selects what the word-level array does.
  const Point& p = GetParam();
  const Operands o = fuzz::BaselineOperands(p, p.seed);
  const Relation& a = o.ab.a;
  const Relation& b = o.ab.b;
  auto bits_a = arrays::MinimumBitsFor(a);
  auto bits_b = arrays::MinimumBitsFor(b);
  ASSERT_OK(bits_a);
  ASSERT_OK(bits_b);
  auto decomposed =
      arrays::DecomposePairToBits(a, b, std::max(*bits_a, *bits_b));
  ASSERT_OK(decomposed);
  auto word = arrays::SystolicIntersection(a, b);
  ASSERT_OK(word);
  auto bit = arrays::SystolicIntersection(decomposed->a, decomposed->b);
  ASSERT_OK(bit);
  EXPECT_EQ(word->selected, bit->selected);
}

INSTANTIATE_TEST_SUITE_P(Workloads, BitLevelDecomposition,
                         ::testing::ValuesIn(kBaselinePoints));

// ---------------------------------------------------------------------------
// Planner transactions: random multi-step transactions run literally on the
// §9 machine, through the cost-based planner (rewrites, feed hints, LPT
// emission) and step by step on the reference oracle; every result buffer
// must be bit-identical across the three.
// ---------------------------------------------------------------------------

/// The reference oracle of one plan step over computed operands.
Result<Relation> OracleStep(const machine::PlanStep& step,
                            const fuzz::Inputs& env) {
  const Relation& left = env.at(step.left);
  switch (step.op) {
    case machine::OpKind::kIntersect:
      return rel::reference::Intersection(left, env.at(step.right));
    case machine::OpKind::kDifference:
      return rel::reference::Difference(left, env.at(step.right));
    case machine::OpKind::kRemoveDuplicates:
      return rel::reference::RemoveDuplicates(left);
    case machine::OpKind::kUnion:
      return rel::reference::Union(left, env.at(step.right));
    case machine::OpKind::kProject:
      return rel::reference::Projection(left, step.columns);
    case machine::OpKind::kJoin:
      return rel::reference::Join(left, env.at(step.right), step.join);
    case machine::OpKind::kDivide:
      return rel::reference::Division(left, env.at(step.right),
                                      step.division);
    case machine::OpKind::kSelect:
      return fuzz::SelectOracle(left, step.predicates);
  }
  return Status::InvalidArgument("unknown op");
}

/// Result buffers of `txn`: outputs no other step consumes.
std::vector<std::string> TxnSinks(const machine::Transaction& txn) {
  std::set<std::string> consumed;
  for (const machine::PlanStep& s : txn.steps()) {
    consumed.insert(s.left);
    if (!s.right.empty()) consumed.insert(s.right);
  }
  std::vector<std::string> sinks;
  for (const machine::PlanStep& s : txn.steps()) {
    if (consumed.count(s.output) == 0) sinks.push_back(s.output);
  }
  return sinks;
}

/// Grows a random 4-10 step transaction over `inputs`. Each candidate step
/// picks an op and operands at random and is kept only if the plan compiler
/// validates it (schema compatibility, domains); invalid picks retry. Every
/// accepted step's operands already exist, so step order is topological.
machine::Transaction GenerateTransaction(
    Rng& rng, const fuzz::Inputs& inputs,
    const std::map<std::string, planner::InputInfo>& catalog,
    int64_t domain) {
  machine::Transaction txn;
  std::vector<std::pair<std::string, size_t>> buffers;  // name, arity
  for (const auto& [name, r] : inputs) buffers.push_back({name, r.arity()});
  size_t joins = 0;
  const size_t num_steps = 4 + static_cast<size_t>(rng.Uniform(0, 6));
  for (size_t i = 0; i < num_steps; ++i) {
    for (int attempt = 0; attempt < 24; ++attempt) {
      const auto& [lname, larity] = buffers[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(buffers.size()) - 1))];
      const auto& [rname, rarity] = buffers[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(buffers.size()) - 1))];
      const std::string out = "t" + std::to_string(i);
      machine::Transaction candidate = txn;
      size_t out_arity = larity;
      switch (rng.Uniform(0, 7)) {
        case 0:
          candidate.Intersect(lname, rname, out);
          break;
        case 1:
          candidate.Difference(lname, rname, out);
          break;
        case 2:
          candidate.Union(lname, rname, out);
          break;
        case 3:
          candidate.RemoveDuplicates(lname, out);
          break;
        case 4: {
          std::vector<size_t> all(larity);
          for (size_t c = 0; c < larity; ++c) all[c] = c;
          rng.Shuffle(all);
          all.resize(static_cast<size_t>(
              rng.Uniform(1, static_cast<int64_t>(larity))));
          out_arity = all.size();
          candidate.Project(lname, std::move(all), out);
          break;
        }
        case 5: {
          std::vector<arrays::SelectionPredicate> preds;
          const size_t count = 1 + static_cast<size_t>(rng.Uniform(0, 1));
          for (size_t c = 0; c < count; ++c) {
            preds.push_back(
                {static_cast<size_t>(
                     rng.Uniform(0, static_cast<int64_t>(larity) - 1)),
                 static_cast<rel::ComparisonOp>(rng.Uniform(0, 5)),
                 rng.Uniform(0, domain)});
          }
          candidate.Select(lname, std::move(preds), out);
          break;
        }
        case 6: {
          // Joins multiply sizes: bound the count and the output arity.
          if (joins >= 2 || larity + rarity > 5) continue;
          const auto op = static_cast<rel::ComparisonOp>(rng.Uniform(0, 5));
          candidate.Join(lname, rname, rel::JoinSpec{{0}, {0}, op}, out);
          out_arity =
              larity + rarity - (op == rel::ComparisonOp::kEq ? 1 : 0);
          break;
        }
        case 7: {
          if (larity < 2 || rarity != 1) continue;
          candidate.Divide(lname, rname,
                           rel::DivisionSpec{{larity - 1}, {0}}, out);
          out_arity = larity - 1;
          break;
        }
      }
      if (!planner::LogicalPlan::FromTransaction(candidate, catalog).ok()) {
        continue;
      }
      joins += candidate.steps().back().op == machine::OpKind::kJoin ? 1 : 0;
      txn = std::move(candidate);
      buffers.push_back({out, out_arity});
      break;
    }
  }
  return txn;
}

/// Three relations named r0-r2 of `schema`, each of `base` + U(0, span)
/// tuples over `domain` values.
fuzz::Inputs MachineInputs(Rng& rng, uint64_t seed, const rel::Schema& schema,
                           size_t base, int64_t span, int64_t domain) {
  fuzz::Inputs inputs;
  for (const char* name : {"r0", "r1", "r2"}) {
    rel::GeneratorOptions options;
    options.num_tuples = base + static_cast<size_t>(rng.Uniform(0, span));
    options.domain_size = domain;
    options.seed = seed * 31 + static_cast<uint64_t>(name[1]);
    auto r = rel::GenerateRelation(schema, options);
    SYSTOLIC_CHECK(r.ok()) << r.status().ToString();
    inputs.emplace(name, *std::move(r));
  }
  return inputs;
}

class PlannerTransactions : public ::testing::TestWithParam<Point> {};

TEST_P(PlannerTransactions, SinksBitIdenticalLiteralPlannedOracle) {
  const Point& p = GetParam();
  Rng rng(p.seed * 9176 + 3);
  const rel::Schema schema = rel::MakeIntSchema(2 + p.seed % 2);
  const int64_t domain = 3 + rng.Uniform(0, 4);
  const fuzz::Inputs inputs = MachineInputs(rng, p.seed, schema, 6, 10, domain);
  std::map<std::string, planner::InputInfo> catalog;
  for (const auto& [name, r] : inputs) {
    catalog[name] = {r.schema(), r.num_tuples(),
                     planner::ProvablyDuplicateFree(r)};
  }
  const machine::Transaction txn =
      GenerateTransaction(rng, inputs, catalog, domain);
  ASSERT_FALSE(txn.steps().empty());
  const std::vector<std::string> sinks = TxnSinks(txn);
  ASSERT_FALSE(sinks.empty());

  fuzz::Inputs env = inputs;
  for (const machine::PlanStep& step : txn.steps()) {
    auto r = OracleStep(step, env);
    ASSERT_OK(r) << "oracle failed on step '" << step.output << "'";
    env.emplace(step.output, *std::move(r));
  }

  fuzz::MachineSetup setup;
  setup.config.num_memories = 48;
  setup.config.device.rows = p.device.rows;
  setup.config.device.num_chips = p.device.num_chips;
  const auto literal = fuzz::RunTransaction(setup, inputs, txn, sinks);
  ASSERT_OK(literal);
  setup.planned = true;
  const auto planned = fuzz::RunTransaction(setup, inputs, txn, sinks);
  ASSERT_OK(planned);
  for (const std::string& sink : sinks) {
    EXPECT_EQ(literal->sinks.at(sink), env.at(sink).tuples())
        << "literal vs oracle diverged on '" << sink << "' seed " << p.seed;
    EXPECT_EQ(planned->sinks.at(sink), env.at(sink).tuples())
        << "planned vs oracle diverged on '" << sink << "' seed " << p.seed
        << "\n"
        << planned->plan;
  }
}

INSTANTIATE_TEST_SUITE_P(Txns, PlannerTransactions,
                         ::testing::ValuesIn(fuzz::PlannerPoints()));

// ---------------------------------------------------------------------------
// Machine lanes: whole transactions on the §9 machine along the backend,
// fault and overlap axes.
// ---------------------------------------------------------------------------

/// Two-column A and B sized by the seed, stored as relations "a" and "b".
fuzz::Inputs MachinePair(uint64_t seed, size_t a, size_t b) {
  rel::RelationPair pair = fuzz::Pair(
      rel::MakeIntSchema(2),
      fuzz::FixedOptions(seed, a, b, 4 + static_cast<int64_t>(seed % 5)));
  fuzz::Inputs inputs;
  inputs.emplace("a", std::move(pair.a));
  inputs.emplace("b", std::move(pair.b));
  return inputs;
}

class MachineBackends : public ::testing::TestWithParam<Point> {};

TEST_P(MachineBackends, TransactionsMatchRtl) {
  // The fast machine's sinks and every step's ExecStats match the RTL
  // machine's.
  const Point& p = GetParam();
  const fuzz::Inputs inputs =
      MachinePair(p.seed, 12 + p.seed % 20, 10 + (p.seed * 3) % 18);
  machine::Transaction txn;
  txn.Intersect("a", "b", "x")
      .Union("a", "b", "u")
      .Join("a", "b", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "j")
      .RemoveDuplicates("u", "d");
  fuzz::MachineSetup setup;
  setup.from_disk = true;
  setup.config.device = fuzz::Device(p);
  const auto run = [&](fastpath::Backend backend) {
    setup.config.device.backend = backend;
    return fuzz::RunTransaction(setup, inputs, txn, {"x", "j", "d"});
  };
  const auto rtl = run(fastpath::Backend::kRtl);
  const auto fast = run(fastpath::Backend::kFast);
  ASSERT_OK(rtl);
  ASSERT_OK(fast);
  EXPECT_EQ(rtl->sinks, fast->sinks);
  ASSERT_EQ(rtl->report.steps.size(), fast->report.steps.size());
  for (size_t s = 0; s < rtl->report.steps.size(); ++s) {
    const std::string what = "step " + std::to_string(s);
    fuzz::ExpectConsistent(setup.config.device, fast->report.steps[s].exec,
                           what);
    fuzz::ExpectSameStats(Axis::kBackend, rtl->report.steps[s].exec,
                          fast->report.steps[s].exec, what);
  }
}

INSTANTIATE_TEST_SUITE_P(Txns, MachineBackends,
                         ::testing::ValuesIn(fuzz::RotationPoints(501)));

class MachineFaults : public ::testing::TestWithParam<Point> {};

TEST_P(MachineFaults, TransactionsRecoverWithAndWithoutPlanner) {
  // A fault plan on every device: a multi-step transaction, planned at even
  // seeds and literal at odd ones, leaves its sink bit-identical to a
  // fault-free literal run.
  const Point& p = GetParam();
  Rng rng(p.seed * 7723 + 11);
  const fuzz::Inputs inputs =
      MachineInputs(rng, p.seed, rel::MakeIntSchema(2), 6, 8, 4);
  machine::Transaction txn;
  txn.Intersect("r0", "r1", "t0");
  txn.Union("t0", "r2", "t1");
  txn.RemoveDuplicates("t1", "sink");
  fuzz::MachineSetup setup;
  setup.config.num_memories = 16;
  setup.config.device = fuzz::Device(p);
  setup.config.device.faults = nullptr;
  const auto oracle = fuzz::RunTransaction(setup, inputs, txn, {"sink"});
  ASSERT_OK(oracle);
  setup.faults = fuzz::FaultPlanFor(p);
  setup.planned = p.seed % 2 == 0;
  const auto faulted = fuzz::RunTransaction(setup, inputs, txn, {"sink"});
  ASSERT_OK(faulted);
  EXPECT_EQ(faulted->sinks, oracle->sinks)
      << "seed " << p.seed << (setup.planned ? " (planned)" : " (literal)");
}

INSTANTIATE_TEST_SUITE_P(Sweep, MachineFaults,
                         ::testing::ValuesIn(fuzz::FaultPoints()));

TEST(MachineOverlap, PoliciesAgreeOnResultsAndComputeTiming) {
  // SET MEMORY changes only the memory counters, never transaction results
  // or the compute-side report; the default policy is on.
  const fuzz::Inputs inputs = MachinePair(42, 24, 18);
  machine::Transaction txn;
  txn.Intersect("a", "b", "x")
      .Join("a", "b", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "j")
      .RemoveDuplicates("a", "d");
  fuzz::MachineSetup setup;
  setup.from_disk = true;
  setup.config.device.rows = 5;
  const auto run = [&](spad::OverlapPolicy policy) {
    setup.memory = policy;
    return fuzz::RunTransaction(setup, inputs, txn, {"x", "j", "d"});
  };
  const auto off = run(spad::OverlapPolicy::kOff);
  const auto on = run(spad::OverlapPolicy::kOn);
  const auto def = run(DeviceConfig{}.overlap);
  ASSERT_OK(off);
  ASSERT_OK(on);
  ASSERT_OK(def);
  EXPECT_EQ(off->sinks, on->sinks);
  ASSERT_EQ(off->report.steps.size(), on->report.steps.size());
  for (size_t s = 0; s < off->report.steps.size(); ++s) {
    const ExecStats& soff = off->report.steps[s].exec;
    const ExecStats& son = on->report.steps[s].exec;
    const std::string what = "step " + std::to_string(s);
    fuzz::ExpectSameStats(Axis::kOverlap, soff, son, what);
    EXPECT_FALSE(soff.overlap_enabled) << what;
    EXPECT_LE(son.memory_makespan_cycles, soff.memory_makespan_cycles) << what;
    EXPECT_TRUE(son.overlap_enabled) << what;
    EXPECT_EQ(fuzz::StatsFields(son),
              fuzz::StatsFields(def->report.steps[s].exec))
        << what;
  }
  EXPECT_EQ(off->report.bytes_through_crossbar,
            on->report.bytes_through_crossbar);
}

}  // namespace
}  // namespace systolic
