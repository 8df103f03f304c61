#ifndef SYSTOLIC_TESTS_FUZZ_HARNESS_H_
#define SYSTOLIC_TESTS_FUZZ_HARNESS_H_

// The engine fuzz harness: the one definition of the point generator, the
// operand recipes, the op catalogue and its oracles, the ExecStats
// comparator and the machine-transaction runner that engine_fuzz_test's
// lanes share, plus the seeded corpus-mutation loop of the decoder fuzz
// tests.
//
// SYSTOLIC_FUZZ_SEEDS=n sizes every sweep at n/20 of its default (at least
// one point), and the many-tile lane at n points or more: the nightly 200
// runs each lane at ten times its default points or more, and 1 narrows
// every lane for smoke runs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "faults/fault_plan.h"
#include "gtest/gtest.h"
#include "planner/physical.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_hash.h"
#include "relational/ops_reference.h"
#include "relational/ops_sort.h"
#include "system/machine.h"
#include "system/tree_machine.h"
#include "test_util.h"
#include "util/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace systolic {
namespace fuzz {

using arrays::FeedModePolicy;
using db::DeviceConfig;
using db::Engine;
using db::EngineResult;
using db::ExecStats;
using rel::ComparisonOp;
using rel::Relation;

/// The seed count every sweep's default point count is sized for.
inline constexpr size_t kDefaultSeeds = 20;

/// Points a sweep of `default_count` points runs under SYSTOLIC_FUZZ_SEEDS.
inline size_t LaneCount(size_t default_count) {
  const size_t seeds = testing::FuzzSeedCount(kDefaultSeeds);
  return std::max<size_t>(
      1, (default_count * seeds + kDefaultSeeds - 1) / kDefaultSeeds);
}

// ---- points ---------------------------------------------------------------

/// The catalogue's operations. kJoin compares column 0 of A and B;
/// kSeededJoin is the operands' own join; kThetaLt joins the straddling θ
/// operands.
enum class Op {
  kIntersect,
  kSubtract,
  kUnion,
  kDedup,
  kProject,
  kJoin,
  kSeededJoin,
  kThetaLt,
  kDivide,
  kDivideSmall,
  kDivideEmpty,
  kSelect,
};

/// The catalogue's names, in Op order; a join's name adds its comparison.
inline constexpr const char* kOpNames[] = {
    "intersect", "subtract",     "union",        "dedup",
    "project",   "join",         "seeded join",  "straddling join",
    "divide",    "divide small", "divide empty", "select"};

/// One operation of a lane: the catalogue entry, kJoin's comparison, and
/// the fewest passes the variant run may take.
struct LaneOp {
  Op op = Op::kIntersect;
  ComparisonOp cmp = ComparisonOp::kEq;
  size_t min_passes = 0;
};

/// What a variant changes against its reference.
enum class Axis { kBackend, kOverlap, kChips, kFaults, kAuto };

/// One fuzz point: the seed its operands are drawn from and the device
/// they run on.
struct Point {
  uint64_t seed = 0;
  DeviceConfig device;
  /// A fault plan of transient flips at `rate` per decision (drops at half
  /// and stuck lines at a quarter of it), its last `dead` chips dead.
  bool faults = false;
  double rate = 0;
  size_t dead = 0;
  /// Guard-sweep shapes: the one operation, the operand arity and sizes,
  /// and whether kAuto must keep marching.
  LaneOp op;
  size_t arity = 0;
  size_t n_a = 0;
  size_t n_b = 0;
  bool expect_marching = false;
};

inline void PrintTo(const Point& p, std::ostream* os) {
  const char* kModes[] = {"marching", "fixed-B", "auto"};
  const DeviceConfig& d = p.device;
  *os << "seed=" << p.seed << " rows=" << d.rows
      << " mode=" << kModes[static_cast<size_t>(d.mode)]
      << " chips=" << d.num_chips
      << " backend=" << fastpath::BackendToString(d.backend) << " overlap="
      << (d.overlap == spad::OverlapPolicy::kOn ? "on" : "off");
  if (p.faults) *os << " rate=" << p.rate << " dead=" << p.dead;
  if (p.n_a > 0) {
    *os << " op=" << kOpNames[static_cast<size_t>(p.op.op)];
    if (p.op.op == Op::kJoin) {
      *os << " " << rel::ComparisonOpToString(p.op.cmp);
    }
    *os << " arity=" << p.arity << " n_a=" << p.n_a << " n_b=" << p.n_b;
  }
}

/// Generous strike limit: several points leave one usable chip, and the
/// default limit of 3 would let three transient hits on one tile turn a
/// recovery test into an availability test.
inline faults::RecoveryOptions FuzzRecovery() {
  faults::RecoveryOptions recovery;
  recovery.strike_limit = 6;
  return recovery;
}

/// A fresh copy of the point's fault plan; chip 0 always survives.
inline std::shared_ptr<faults::FaultPlan> FaultPlanFor(const Point& p) {
  const size_t chips = p.device.num_chips;
  auto plan = std::make_shared<faults::FaultPlan>(faults::FaultPlan::Uniform(
      p.seed, chips, p.rate, p.rate / 2, p.rate / 4));
  for (size_t d = 0; d < p.dead; ++d) plan->chip(chips - 1 - d).dead = true;
  return plan;
}

/// The point's device, fault plan included.
inline DeviceConfig Device(const Point& p) {
  DeviceConfig device = p.device;
  if (p.faults) {
    device.faults = FaultPlanFor(p);
    device.recovery = FuzzRecovery();
  }
  return device;
}

/// `count` points from `first_seed` on; point k takes the k-th entry,
/// cyclically, of each table.
inline std::vector<Point> Rotate(uint64_t first_seed, size_t count,
                                 const std::vector<size_t>& rows,
                                 const std::vector<FeedModePolicy>& modes,
                                 const std::vector<size_t>& chips) {
  std::vector<Point> points(count);
  for (size_t k = 0; k < count; ++k) {
    points[k].seed = first_seed + k;
    points[k].device.rows = rows[k % rows.size()];
    points[k].device.mode = modes[k % modes.size()];
    points[k].device.num_chips = chips[k % chips.size()];
  }
  return points;
}

inline constexpr FeedModePolicy kMarching = FeedModePolicy::kMarching;
inline constexpr FeedModePolicy kFixedB = FeedModePolicy::kFixedB;
inline constexpr FeedModePolicy kAuto = FeedModePolicy::kAuto;

/// The backend, overlap and machine-backend lanes: 24 points rotating
/// unbounded and odd row counts, the three feed policies and chip counts.
inline std::vector<Point> RotationPoints(uint64_t first_seed) {
  return Rotate(first_seed, LaneCount(24), {0, 3, 5, 7, 9, 13},
                {kMarching, kFixedB, kAuto}, {1, 2, 3, 7});
}

/// The overlap lane alternates the backend too.
inline std::vector<Point> OverlapPoints() {
  std::vector<Point> points = RotationPoints(701);
  for (size_t k = 1; k < points.size(); k += 2) {
    points[k].device.backend = fastpath::Backend::kFast;
  }
  return points;
}

/// Overlap under faults: the overlap lane's seeds on at least two chips
/// and bounded odd rows, under transient faults at 2e-4.
inline std::vector<Point> OverlapFaultPoints() {
  std::vector<Point> points = RotationPoints(701);
  for (Point& p : points) {
    DeviceConfig& d = p.device;
    if (d.rows == 0) d.rows = 5;
    d.num_chips = std::max<size_t>(2, d.num_chips);
    p.faults = true;
    p.rate = 0.0002;
  }
  return points;
}

/// The baseline lane: 17 hand-picked shapes (the last five on 2 and 7
/// chips), then the rotation.
inline std::vector<Point> BaselinePoints() {
  struct Shape {
    size_t rows;
    FeedModePolicy mode;
    size_t chips;
  };
  static constexpr Shape kPicked[] = {
      {0, kMarching, 1}, {0, kMarching, 1}, {5, kMarching, 1},
      {9, kMarching, 1}, {3, kMarching, 1}, {0, kFixedB, 1},
      {6, kFixedB, 1},   {2, kFixedB, 1},   {13, kMarching, 1},
      {1, kMarching, 1}, {1, kFixedB, 1},   {7, kMarching, 1},
      {5, kMarching, 2}, {3, kMarching, 7}, {6, kFixedB, 2},
      {2, kFixedB, 7},   {9, kAuto, 7}};
  std::vector<Point> points =
      Rotate(11, LaneCount(std::size(kPicked)), {0, 3, 5, 7, 9, 13},
             {kMarching, kFixedB, kAuto}, {1, 2, 3, 7});
  for (size_t k = 0; k < std::min(points.size(), std::size(kPicked)); ++k) {
    points[k].device.rows = kPicked[k].rows;
    points[k].device.mode = kPicked[k].mode;
    points[k].device.num_chips = kPicked[k].chips;
  }
  return points;
}

/// Seeds per shard of the chips lane.
inline constexpr size_t kShardSeeds = 125;

/// Serial against parallel: shards of kShardSeeds seeds each on 5-row
/// marching chips, every pair run on 1, 2 and 7 chips.
inline std::vector<Point> ChipPoints() {
  std::vector<Point> points(LaneCount(8));
  for (size_t shard = 0; shard < points.size(); ++shard) {
    points[shard].seed = 1000 + shard * kShardSeeds;
    points[shard].device.rows = 5;
    points[shard].device.mode = kMarching;
  }
  return points;
}

/// Fault recovery: shapes, chip counts, fault intensities and the planner
/// toggle (even seeds plan) cycle on different small periods. Odd rows
/// only (plus 0): marching needs a center row. A tile attempt makes
/// hundreds to a few thousand injection decisions, so 2e-4 already
/// corrupts a healthy share of attempts on the larger shapes; much hotter
/// rates trip the strike limit on every chip, and the engine then rightly
/// degrades to Unavailable.
inline std::vector<Point> FaultPoints() {
  static constexpr double kRates[] = {0.0, 0.0001, 0.0002, 0.0005};
  std::vector<Point> points =
      Rotate(200, LaneCount(20), {0, 3, 5, 7, 9, 11, 13, 1},
             {kFixedB, kMarching, kAuto}, {1, 2, 3, 7});
  for (size_t k = 0; k < points.size(); ++k) {
    points[k].faults = true;
    points[k].dead = k % points[k].device.num_chips;
    points[k].rate = kRates[(k / 2) % 4];
  }
  return points;
}

/// Many tiles: 3- and 5-row marching chips two columns wide, on 1 and 4
/// chips, overlap on and off. The lane checks fast against RTL over
/// thousands of tiles per operator, so the nightly 200 runs 200 points.
inline std::vector<Point> ManyTilePoints() {
  std::vector<Point> points =
      Rotate(901, std::max(LaneCount(4), testing::FuzzSeedCount(4)), {3, 5},
             {kMarching}, {1, 1, 4, 4});
  for (size_t k = 0; k < points.size(); ++k) {
    points[k].device.columns = 2;
    if (k % 4 == 1 || k % 4 == 2) {
      points[k].device.overlap = spad::OverlapPolicy::kOff;
    }
  }
  return points;
}

/// The kAuto guard sweep: one operation per shape on the fast backend,
/// asymmetric operands (every third B holds 1-3 tuples), then two shapes
/// where fixed-B's fewer tiles spread worse and kAuto must keep marching:
/// streaming all of a long A into one fixed-B tile costs more memory
/// makespan than marching's many short tiles over 4 chips (the θ-join:
/// 1,761 pulses against 371, 119 matches drained).
inline std::vector<Point> GuardPoints() {
  const LaneOp kOps[] = {{Op::kIntersect}, {Op::kSubtract},
                         {Op::kDedup},     {Op::kUnion},
                         {Op::kJoin},      {Op::kJoin, ComparisonOp::kGt}};
  constexpr size_t kRows[] = {1, 2, 3, 5, 9, 15, 63};
  constexpr size_t kChips[] = {1, 2, 4};
  std::vector<Point> points(LaneCount(252));
  Rng rng(2020);
  for (size_t k = 0; k < points.size(); ++k) {
    Point& p = points[k];
    p.op = kOps[k % 6];
    p.device.rows = kRows[k % 7];
    p.arity = 1 + k / 7 % 3;
    p.device.num_chips = kChips[k / 3 % 3];
    if (k / 2 % 2 == 1) p.device.overlap = spad::OverlapPolicy::kOff;
    p.seed = 5000 + k;
    p.n_a = 1 + static_cast<size_t>(rng.Uniform(0, 63));
    p.n_b = k % 3 == 0 ? 1 + static_cast<size_t>(rng.Uniform(0, 3))
                       : 1 + static_cast<size_t>(rng.Uniform(0, 63));
  }
  Point theta;
  theta.seed = 77;
  theta.device.rows = 15;
  theta.device.num_chips = 4;
  theta.op = kOps[5];
  theta.arity = 3;
  theta.n_a = 257;
  theta.n_b = 1;
  theta.expect_marching = true;
  points.push_back(theta);
  Point intersect = theta;
  intersect.seed = 78;
  intersect.device.overlap = spad::OverlapPolicy::kOff;
  intersect.op = kOps[0];
  points.push_back(intersect);
  for (Point& p : points) {
    p.device.mode = kAuto;
    p.device.backend = fastpath::Backend::kFast;
  }
  return points;
}

/// Machine transactions, planner on and off: 20 hand-picked rows × chips,
/// then a rotation with fresh seeds.
inline std::vector<Point> PlannerPoints() {
  static constexpr size_t kPicked[][2] = {
      {0, 1}, {0, 1},  {5, 1}, {7, 1}, {3, 1},  {9, 1},  {11, 1},
      {0, 1}, {13, 1}, {1, 1}, {5, 2}, {3, 2},  {7, 3},  {0, 3},
      {9, 7}, {1, 7},  {5, 3}, {13, 2}, {3, 7}, {7, 2}};
  std::vector<Point> points =
      Rotate(101, LaneCount(std::size(kPicked)), {0, 1, 3, 5, 7, 9, 11, 13},
             {kAuto}, {1, 2, 3, 7});
  for (size_t k = 0; k < std::min(points.size(), std::size(kPicked)); ++k) {
    points[k].device.rows = kPicked[k][0];
    points[k].device.num_chips = kPicked[k][1];
  }
  return points;
}

// ---- operand recipes ------------------------------------------------------

inline rel::RelationPair Pair(const rel::Schema& schema,
                              const rel::PairOptions& options) {
  auto pair = rel::GenerateOverlappingPair(schema, options);
  SYSTOLIC_CHECK(pair.ok()) << pair.status().ToString();
  return *std::move(pair);
}

/// A point's operands: A and B and the options they were drawn with, the
/// straddling θ-join operands where the lane joins them, the seeded join
/// and the selection predicates.
struct Operands {
  Operands(const rel::Schema& schema, const rel::PairOptions& drawn)
      : options(drawn), ab(Pair(schema, drawn)) {}

  rel::PairOptions options;
  rel::RelationPair ab;
  std::optional<rel::RelationPair> theta;
  rel::JoinSpec join{{0}, {0}, ComparisonOp::kEq};
  std::vector<arrays::SelectionPredicate> predicates;
};

/// |A| = a and |B| = b over `domain` values, half of B copied from A.
inline rel::PairOptions FixedOptions(uint64_t seed, size_t a, size_t b,
                                     int64_t domain) {
  rel::PairOptions options;
  options.base.num_tuples = a;
  options.base.domain_size = domain;
  options.base.seed = seed;
  options.b_num_tuples = b;
  options.overlap_fraction = 0.5;
  return options;
}

/// A seeded draw: Rng(seed * mul + add) picks |A|, the domain size and |B|
/// from [lo, lo + span] each, then the share of B copied from A; the schema
/// has `arity + seed % arities` int64 columns.
struct Draw {
  uint64_t mul, add;
  size_t arity, arities;
  size_t a, a_span;
  int64_t domain, domain_span;
  size_t b, b_span;
  /// Draw the straddling θ operands from the same options as well.
  bool theta = false;
};

/// Draws A and B; `rng` is left where the lane's later draws continue.
inline Operands Drawn(const Draw& d, uint64_t seed, Rng& rng) {
  rel::PairOptions options;
  options.base.num_tuples = d.a + static_cast<size_t>(rng.Uniform(0, d.a_span));
  options.base.domain_size = d.domain + rng.Uniform(0, d.domain_span);
  options.base.seed = seed;
  options.b_num_tuples = d.b + static_cast<size_t>(rng.Uniform(0, d.b_span));
  options.overlap_fraction = rng.NextDouble();
  const size_t arity = d.arity + seed % d.arities;
  Operands o(rel::MakeIntSchema(arity), options);
  if (d.theta) {
    o.theta = testing::StraddlingPair(rel::MakeIntSchema(arity), options);
  }
  return o;
}

/// Predicates on A's first and last column, drawn from Rng(seed).
inline std::vector<arrays::SelectionPredicate> EdgePredicates(
    const Relation& a, uint64_t seed) {
  Rng rng(seed);
  return {{0, ComparisonOp::kLt, rng.Uniform(0, 8)},
          {a.arity() - 1, ComparisonOp::kGe, rng.Uniform(0, 4)}};
}

/// Backend and overlap lanes: 8-48 × 5-40 tuples of 2-4 columns.
inline Operands WideOperands(const Point&, uint64_t seed) {
  constexpr Draw kDraw{6364136223846793005ull, 1442695040888963407ull, 2, 3,
                       8, 40, 3, 6, 5, 35, /*theta=*/true};
  Rng rng(seed * kDraw.mul + kDraw.add);
  Operands o = Drawn(kDraw, seed, rng);
  o.predicates = EdgePredicates(o.ab.a, seed + 3);
  return o;
}

/// Software-baseline lane: 10-40 × 8-36 tuples of 2-4 columns.
inline Operands BaselineOperands(const Point&, uint64_t seed) {
  constexpr Draw kDraw{7919, 13, 2, 3, 10, 30, 3, 6, 8, 28};
  Rng rng(seed * kDraw.mul + kDraw.add);
  Operands o = Drawn(kDraw, seed, rng);
  o.predicates = EdgePredicates(o.ab.a, seed + 1);
  return o;
}

/// Chips lane: 4-12 × 3-12 tuples of 1-3 columns; the seed picks the join.
inline Operands ChipOperands(const Point&, uint64_t seed) {
  constexpr Draw kDraw{6151, 7, 1, 3, 4, 8, 2, 5, 3, 9};
  Rng rng(seed * kDraw.mul + kDraw.add);
  Operands o = Drawn(kDraw, seed, rng);
  o.join = {{0},
            {o.ab.b.arity() - 1},
            static_cast<ComparisonOp>(seed % 3 == 0 ? 0 : seed % 6)};
  o.predicates = {{0, ComparisonOp::kGe, rng.Uniform(0, 4)}};
  return o;
}

/// Fault lane: 8-24 × 6-20 tuples of 2-3 columns; the seed picks the join.
inline Operands FaultOperands(const Point&, uint64_t seed) {
  constexpr Draw kDraw{6271, 5, 2, 2, 8, 16, 3, 5, 6, 14};
  Rng rng(seed * kDraw.mul + kDraw.add);
  Operands o = Drawn(kDraw, seed, rng);
  o.join = {{0}, {0}, static_cast<ComparisonOp>(seed % 6)};
  o.predicates = {{0, ComparisonOp::kLt, rng.Uniform(0, 6)}};
  return o;
}

/// Many tiles: 150-180 × 150-180 tuples of two columns, and predicates
/// that keep part of A.
inline Operands ManyTileOperands(const Point&, uint64_t seed) {
  constexpr Draw kDraw{1, 0, 2, 1, 150, 30, 6, 6, 150, 30, /*theta=*/true};
  Rng rng(seed);
  Operands o = Drawn(kDraw, seed, rng);
  o.predicates = {{0, ComparisonOp::kLt, o.options.base.domain_size},
                  {1, ComparisonOp::kGe, 2}};
  return o;
}

/// Overlap under faults: 14-31 × 9-25 tuples of two columns.
inline Operands OverlapFaultOperands(const Point&, uint64_t seed) {
  return Operands(rel::MakeIntSchema(2),
                  FixedOptions(seed, 14 + seed % 18, 9 + (seed * 3) % 17,
                               4 + static_cast<int64_t>(seed % 5)));
}

/// Guard sweep: the shape's sizes and arity over 3-7 domain values.
inline Operands GuardOperands(const Point& p, uint64_t seed) {
  return Operands(rel::MakeIntSchema(p.arity),
                  FixedOptions(seed, p.n_a, p.n_b,
                               3 + static_cast<int64_t>(seed % 5)));
}

// ---- the op catalogue and its oracles -------------------------------------

/// σ_{p1 ∧ p2 ∧ ...}(r), the conjunction filter ops_reference has no
/// operator for.
inline Result<Relation> SelectOracle(
    const Relation& r, const std::vector<arrays::SelectionPredicate>& preds) {
  Relation out(r.schema(), rel::RelationKind::kMulti);
  for (const rel::Tuple& t : r.tuples()) {
    bool keep = true;
    for (const auto& p : preds) {
      keep = keep && rel::ApplyComparison(p.op, t[p.column], p.constant);
    }
    if (keep) SYSTOLIC_RETURN_NOT_OK(out.Append(t));
  }
  return out;
}

/// A software baseline of an op, and whether it must keep the oracle's
/// tuple order or only its bag.
struct Baseline {
  std::string name;
  std::function<Result<Relation>()> run;
  bool ordered;
};

/// One engine operation over a point's operands, its oracle and its other
/// software baselines.
struct EngineOp {
  std::string name;
  std::function<Result<EngineResult>(const Engine&)> run;
  std::function<Result<Relation>()> oracle;
  std::vector<Baseline> baselines;
};

/// `op` over `o`, which must outlive the result.
inline EngineOp MakeOp(const LaneOp& op, const Operands& o) {
  const std::string name = kOpNames[static_cast<size_t>(op.op)];
  const Relation* a = &o.ab.a;
  const Relation* b = &o.ab.b;
  const auto join = [&name](const rel::RelationPair* pair,
                            rel::JoinSpec spec) {
    const Relation* l = &pair->a;
    const Relation* r = &pair->b;
    return EngineOp{
        name + " " + rel::ComparisonOpToString(spec.op),
        [=](const Engine& e) { return e.Join(*l, *r, spec); },
        [=] { return rel::reference::Join(*l, *r, spec); },
        {{"hash", [=] { return rel::hashops::Join(*l, *r, spec); }, false}}};
  };
  switch (op.op) {
    case Op::kIntersect:
      return {name, [=](const Engine& e) { return e.Intersect(*a, *b); },
              [=] { return rel::reference::Intersection(*a, *b); },
              {{"hash", [=] { return rel::hashops::Intersection(*a, *b); },
                true},
               {"sort", [=] { return rel::sortops::Intersection(*a, *b); },
                false},
               {"tree",
                [=]() -> Result<Relation> {
                  SYSTOLIC_ASSIGN_OR_RETURN(auto tree,
                                            machine::TreeIntersection(*a, *b));
                  return std::move(tree.relation);
                },
                true}}};
    case Op::kSubtract:
      return {name, [=](const Engine& e) { return e.Subtract(*a, *b); },
              [=] { return rel::reference::Difference(*a, *b); },
              {{"hash", [=] { return rel::hashops::Difference(*a, *b); },
                true}}};
    case Op::kUnion:
      return {name, [=](const Engine& e) { return e.Union(*a, *b); },
              [=] { return rel::reference::Union(*a, *b); }, {}};
    case Op::kDedup:
      return {name, [=](const Engine& e) { return e.RemoveDuplicates(*a); },
              [=] { return rel::reference::RemoveDuplicates(*a); }, {}};
    case Op::kProject:
      return {name, [=](const Engine& e) { return e.Project(*a, {0}); },
              [=] { return rel::reference::Projection(*a, {0}); }, {}};
    case Op::kJoin:
      return join(&o.ab, {{0}, {0}, op.cmp});
    case Op::kSeededJoin:
      return join(&o.ab, o.join);
    case Op::kThetaLt:
      return join(&*o.theta, {{0}, {0}, ComparisonOp::kLt});
    case Op::kDivide:
    case Op::kDivideSmall:
    case Op::kDivideEmpty: {
      // B's last column divides A's last column; the small divisor keeps
      // the values below 3, which a key can cover whole.
      Relation divisor = *b->ProjectColumns({b->arity() - 1});
      if (op.op == Op::kDivideSmall) {
        BitVector low(divisor.num_tuples(), false);
        for (size_t j = 0; j < divisor.num_tuples(); ++j) {
          low.Set(j, divisor.tuple(j)[0] < 3);
        }
        divisor = *divisor.Filter(low, rel::RelationKind::kMulti);
      } else if (op.op == Op::kDivideEmpty) {
        divisor = Relation(divisor.schema(), rel::RelationKind::kSet);
      }
      const rel::DivisionSpec spec{{a->arity() - 1}, {0}};
      return {name,
              [=](const Engine& e) { return e.Divide(*a, divisor, spec); },
              [=] { return rel::reference::Division(*a, divisor, spec); },
              {{"hash",
                [=] { return rel::hashops::Division(*a, divisor, spec); },
                false},
               {"sort",
                [=] { return rel::sortops::Division(*a, divisor, spec); },
                false}}};
    }
    case Op::kSelect: {
      const auto* predicates = &o.predicates;
      return {name,
              [=](const Engine& e) { return e.Select(*a, *predicates); },
              [=] { return SelectOracle(*a, *predicates); }, {}};
    }
  }
  SYSTOLIC_CHECK(false) << "unknown op";
  return {};
}

// ---- the ExecStats comparator ---------------------------------------------

/// Every ExecStats field by name. The structured binding stops compiling
/// when a field is added, so the list below cannot silently miss one.
inline std::vector<std::pair<std::string_view, uint64_t>> StatsFields(
    const ExecStats& s) {
  const auto& [passes, resolved_mode, backend, analytic_timing, cycles,
               makespan_cycles, busy_cell_cycles, num_compute_cells,
               num_chips, faults_detected, tile_retries, shadow_runs,
               shadow_mismatches, healthy_chips, dma_cycles, overlap_cycles,
               memory_makespan_cycles, overlap_enabled] = s;
#define SYSTOLIC_FIELD(f) {#f, static_cast<uint64_t>(f)}
  return {SYSTOLIC_FIELD(passes),          SYSTOLIC_FIELD(resolved_mode),
          SYSTOLIC_FIELD(backend),         SYSTOLIC_FIELD(analytic_timing),
          SYSTOLIC_FIELD(cycles),          SYSTOLIC_FIELD(makespan_cycles),
          SYSTOLIC_FIELD(busy_cell_cycles), SYSTOLIC_FIELD(num_compute_cells),
          SYSTOLIC_FIELD(num_chips),       SYSTOLIC_FIELD(faults_detected),
          SYSTOLIC_FIELD(tile_retries),    SYSTOLIC_FIELD(shadow_runs),
          SYSTOLIC_FIELD(shadow_mismatches), SYSTOLIC_FIELD(healthy_chips),
          SYSTOLIC_FIELD(dma_cycles),      SYSTOLIC_FIELD(overlap_cycles),
          SYSTOLIC_FIELD(memory_makespan_cycles),
          SYSTOLIC_FIELD(overlap_enabled)};
#undef SYSTOLIC_FIELD
}

/// The fields a variant along `axis` may move: the backend and what only
/// the simulator measures; the overlap policy and the memory timing it
/// changes; the chip schedule and what hangs off it; the fault counters
/// and the schedule over the chips a fault plan leaves usable. kAuto must
/// match its explicit discipline on every field.
inline const std::set<std::string_view>& MovedFields(Axis axis) {
  static const std::map<Axis, std::set<std::string_view>> kMoved{
      {Axis::kBackend,
       {"backend", "analytic_timing", "busy_cell_cycles", "num_compute_cells"}},
      {Axis::kOverlap,
       {"overlap_enabled", "overlap_cycles", "memory_makespan_cycles"}},
      {Axis::kChips,
       {"num_chips", "healthy_chips", "makespan_cycles", "overlap_cycles",
        "memory_makespan_cycles"}},
      {Axis::kFaults,
       {"faults_detected", "tile_retries", "shadow_runs", "shadow_mismatches",
        "healthy_chips", "makespan_cycles", "overlap_cycles",
        "memory_makespan_cycles"}},
      {Axis::kAuto, {}}};
  return kMoved.at(axis);
}

/// Every field of `actual` equals `expected`'s but those `axis` may move.
inline void ExpectSameStats(Axis axis, const ExecStats& expected,
                            const ExecStats& actual, const std::string& what) {
  const auto want = StatsFields(expected);
  const auto got = StatsFields(actual);
  for (size_t f = 0; f < want.size(); ++f) {
    if (MovedFields(axis).count(want[f].first) == 0) {
      EXPECT_EQ(want[f].second, got[f].second) << want[f].first << ": " << what;
    }
  }
}

/// What every run's stats must say about the device that ran it: the
/// backend it resolved (a fault plan forces the simulator), analytic timing
/// exactly on the fast backend, which measures no cell occupancy; the
/// overlap policy, with nothing hidden when it is off; its chips, a healthy
/// one left among them.
inline void ExpectConsistent(const DeviceConfig& device, const ExecStats& s,
                             const std::string& what) {
  EXPECT_EQ(s.num_chips, device.num_chips) << what;
  EXPECT_EQ(s.backend, device.faults ? fastpath::Backend::kRtl : device.backend)
      << what;
  EXPECT_EQ(s.analytic_timing, s.backend == fastpath::Backend::kFast) << what;
  if (s.analytic_timing) {
    EXPECT_EQ(s.busy_cell_cycles, 0u) << what;
  }
  EXPECT_EQ(s.overlap_enabled, device.overlap == spad::OverlapPolicy::kOn)
      << what;
  if (!s.overlap_enabled) {
    EXPECT_EQ(s.overlap_cycles, 0u) << what;
  }
  EXPECT_GE(s.healthy_chips, 1u) << what;
}

// ---- the machine-transaction runner ---------------------------------------

/// Named input relations of a machine transaction.
using Inputs = std::map<std::string, Relation>;

/// The report of one transaction and its sink buffers' tuples.
struct MachineRun {
  machine::TransactionReport report;
  std::map<std::string, std::vector<rel::Tuple>> sinks;
  /// The planned transaction, when the planner ran.
  std::string plan;
};

/// How a machine lane runs its transaction.
struct MachineSetup {
  machine::MachineConfig config;
  /// Load the inputs through the disk unit, not straight into memory.
  bool from_disk = false;
  /// Route the transaction through the cost-based planner first.
  bool planned = false;
  std::shared_ptr<faults::FaultPlan> faults;
  std::optional<spad::OverlapPolicy> memory;
};

/// Runs `txn` over `inputs` on a fresh machine and reads back `sinks`.
inline Result<MachineRun> RunTransaction(
    const MachineSetup& setup, const Inputs& inputs,
    const machine::Transaction& txn, const std::vector<std::string>& sinks) {
  MachineRun run;
  machine::Machine m(setup.config);
  if (setup.faults) m.InstallFaultPlan(setup.faults, FuzzRecovery());
  if (setup.memory) m.SetMemoryPolicy(*setup.memory);
  for (const auto& [name, r] : inputs) {
    if (setup.from_disk) {
      m.disk().Put(name, r);
      SYSTOLIC_RETURN_NOT_OK(m.LoadFromDisk(name));
    } else {
      SYSTOLIC_RETURN_NOT_OK(m.StoreBuffer(name, r));
    }
  }
  machine::Transaction to_run = txn;
  if (setup.planned) {
    std::map<std::string, planner::InputInfo> catalog;
    for (const auto& [name, r] : inputs) {
      catalog[name] = {r.schema(), r.num_tuples(),
                       planner::ProvablyDuplicateFree(r)};
    }
    planner::PlannerOptions options;
    options.params.default_device = setup.config.device;
    SYSTOLIC_ASSIGN_OR_RETURN(auto planned,
                              planner::PlanTransaction(txn, catalog, options));
    to_run = planned.transaction;
    run.plan = planned.ToString();
  }
  SYSTOLIC_ASSIGN_OR_RETURN(run.report, m.Execute(to_run));
  for (const std::string& sink : sinks) {
    SYSTOLIC_ASSIGN_OR_RETURN(const Relation* buffer, m.Buffer(sink));
    run.sinks[sink].assign(buffer->tuples().begin(), buffer->tuples().end());
  }
  return run;
}

// ---- the decoder mutation loop --------------------------------------------

/// `bytes` as text: printable ASCII and newlines as they are, every other
/// byte and the backslash as \xHH.
inline std::string Printable(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n' || (u >= 0x20 && u < 0x7f && c != '\\')) {
      out += c;
    } else {
      out += {'\\', 'x', kHex[u >> 4], kHex[u & 0xf]};
    }
  }
  return out;
}

/// Runs LLVMFuzzerTestOneInput over mutants of `corpus`: seed s draws from
/// Rng(rng_base + s), mutant i mutates entry i % corpus.size() through
/// `mutate(rng, entry)`, and one configuration byte drawn after it leads
/// the input. SYSTOLIC_FUZZ_SEEDS sets the seed count (20 by default); a
/// failing seed and mutant reproduce exactly, and the trace prints the
/// mutant.
template <typename Entry, typename Mutate>
void RunMutants(uint64_t rng_base, size_t mutants_per_entry,
                const std::vector<Entry>& corpus, const Mutate& mutate) {
  const size_t seeds = testing::FuzzSeedCount(kDefaultSeeds);
  for (size_t seed = 0; seed < seeds; ++seed) {
    Rng rng(rng_base + seed);
    for (size_t mutant = 0; mutant < mutants_per_entry * corpus.size();
         ++mutant) {
      const std::string body = mutate(rng, corpus[mutant % corpus.size()]);
      const std::string input =
          std::string(1, static_cast<char>(rng.Uniform(0, 255))) + body;
      SCOPED_TRACE("seed " + std::to_string(seed) + ", mutant " +
                   std::to_string(mutant) + ", config byte " +
                   std::to_string(static_cast<uint8_t>(input[0])) +
                   ", input:\n" + Printable(body));
      EXPECT_EQ(LLVMFuzzerTestOneInput(
                    reinterpret_cast<const uint8_t*>(input.data()),
                    input.size()),
                0);
    }
  }
}

}  // namespace fuzz
}  // namespace systolic

#endif  // SYSTOLIC_TESTS_FUZZ_HARNESS_H_
