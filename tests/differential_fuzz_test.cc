// Differential fuzzing: every operation executed on every backend over many
// randomized workloads, all results cross-checked. One test instantiation =
// one (seed, device shape, feed mode) point; inside it every operation runs
// on:
//   * the reference nested-loop oracle,
//   * the hash and sort software baselines,
//   * the systolic engine (tiled to the device shape),
// and, where applicable, the tree machine and the bit-level decomposition.
// Any divergence pinpoints the backend and operation.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arrays/bit_serial.h"
#include "arrays/intersection_array.h"
#include "core/engine.h"
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

namespace systolic {
namespace {

using db::DeviceConfig;
using db::Engine;
using rel::Relation;
using rel::Schema;

struct FuzzParam {
  uint64_t seed;
  size_t device_rows;
  arrays::FeedModePolicy mode;
  /// Chips driven in parallel; 1 = serial (the default for the legacy
  /// points). Parallel points must agree with every backend bit-for-bit.
  size_t num_chips = 1;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzParam> {
 protected:
  void SetUp() override {
    const FuzzParam p = GetParam();
    Rng rng(p.seed * 7919 + 13);
    schema_ = rel::MakeIntSchema(2 + p.seed % 3);
    rel::PairOptions options;
    options.base.num_tuples = 10 + static_cast<size_t>(rng.Uniform(0, 30));
    options.base.domain_size = 3 + rng.Uniform(0, 6);
    options.base.seed = p.seed;
    options.b_num_tuples = 8 + static_cast<size_t>(rng.Uniform(0, 28));
    options.overlap_fraction = rng.NextDouble();
    auto pair = rel::GenerateOverlappingPair(schema_, options);
    SYSTOLIC_CHECK(pair.ok());
    a_ = std::make_unique<Relation>(std::move(pair->a));
    b_ = std::make_unique<Relation>(std::move(pair->b));
    DeviceConfig device;
    device.rows = p.device_rows;
    device.mode = p.mode;
    device.num_chips = p.num_chips;
    engine_ = std::make_unique<Engine>(device);
  }

  Schema schema_;
  std::unique_ptr<Relation> a_;
  std::unique_ptr<Relation> b_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(DifferentialFuzz, IntersectionAllBackends) {
  auto oracle = rel::reference::Intersection(*a_, *b_);
  ASSERT_OK(oracle);
  auto hash = rel::hashops::Intersection(*a_, *b_);
  ASSERT_OK(hash);
  EXPECT_EQ(oracle->tuples(), hash->tuples());
  auto sorted = rel::sortops::Intersection(*a_, *b_);
  ASSERT_OK(sorted);
  EXPECT_TRUE(oracle->BagEquals(*sorted));
  auto engine = engine_->Intersect(*a_, *b_);
  ASSERT_OK(engine);
  EXPECT_EQ(oracle->tuples(), engine->relation.tuples());
  auto tree = machine::TreeIntersection(*a_, *b_);
  ASSERT_OK(tree);
  EXPECT_EQ(oracle->tuples(), tree->relation.tuples());
}

TEST_P(DifferentialFuzz, DifferenceAllBackends) {
  auto oracle = rel::reference::Difference(*a_, *b_);
  ASSERT_OK(oracle);
  auto hash = rel::hashops::Difference(*a_, *b_);
  ASSERT_OK(hash);
  EXPECT_EQ(oracle->tuples(), hash->tuples());
  auto engine = engine_->Subtract(*a_, *b_);
  ASSERT_OK(engine);
  EXPECT_EQ(oracle->tuples(), engine->relation.tuples());
}

TEST_P(DifferentialFuzz, DedupUnionProjection) {
  auto dedup_oracle = rel::reference::RemoveDuplicates(*a_);
  ASSERT_OK(dedup_oracle);
  auto dedup_engine = engine_->RemoveDuplicates(*a_);
  ASSERT_OK(dedup_engine);
  EXPECT_EQ(dedup_oracle->tuples(), dedup_engine->relation.tuples());

  auto union_oracle = rel::reference::Union(*a_, *b_);
  ASSERT_OK(union_oracle);
  auto union_engine = engine_->Union(*a_, *b_);
  ASSERT_OK(union_engine);
  EXPECT_EQ(union_oracle->tuples(), union_engine->relation.tuples());

  const std::vector<size_t> columns{0};
  auto proj_oracle = rel::reference::Projection(*a_, columns);
  ASSERT_OK(proj_oracle);
  auto proj_engine = engine_->Project(*a_, columns);
  ASSERT_OK(proj_engine);
  EXPECT_EQ(proj_oracle->tuples(), proj_engine->relation.tuples());
}

TEST_P(DifferentialFuzz, JoinAllOps) {
  for (const rel::ComparisonOp op :
       {rel::ComparisonOp::kEq, rel::ComparisonOp::kLt,
        rel::ComparisonOp::kGe}) {
    rel::JoinSpec spec{{0}, {0}, op};
    auto oracle = rel::reference::Join(*a_, *b_, spec);
    ASSERT_OK(oracle);
    auto engine = engine_->Join(*a_, *b_, spec);
    ASSERT_OK(engine);
    EXPECT_EQ(oracle->tuples(), engine->relation.tuples())
        << "op " << rel::ComparisonOpToString(op);
    auto hash = rel::hashops::Join(*a_, *b_, spec);
    ASSERT_OK(hash);
    EXPECT_TRUE(oracle->BagEquals(*hash));
  }
}

TEST_P(DifferentialFuzz, Division) {
  auto divisor = b_->ProjectColumns({b_->arity() - 1});
  ASSERT_OK(divisor);
  rel::DivisionSpec spec{{a_->arity() - 1}, {0}};
  auto oracle = rel::reference::Division(*a_, *divisor, spec);
  ASSERT_OK(oracle);
  auto engine = engine_->Divide(*a_, *divisor, spec);
  ASSERT_OK(engine);
  EXPECT_EQ(oracle->tuples(), engine->relation.tuples());
  auto hash = rel::hashops::Division(*a_, *divisor, spec);
  ASSERT_OK(hash);
  EXPECT_TRUE(oracle->BagEquals(*hash));
  auto sorted = rel::sortops::Division(*a_, *divisor, spec);
  ASSERT_OK(sorted);
  EXPECT_TRUE(oracle->BagEquals(*sorted));
}

TEST_P(DifferentialFuzz, Selection) {
  Rng rng(GetParam().seed + 1);
  std::vector<arrays::SelectionPredicate> predicates{
      {0, rel::ComparisonOp::kLt, rng.Uniform(0, 8)},
      {a_->arity() - 1, rel::ComparisonOp::kGe, rng.Uniform(0, 4)}};
  auto engine = engine_->Select(*a_, predicates);
  ASSERT_OK(engine);
  Relation expected(schema_, rel::RelationKind::kMulti);
  for (const rel::Tuple& t : a_->tuples()) {
    bool keep = true;
    for (const auto& p : predicates) {
      keep = keep && rel::ApplyComparison(p.op, t[p.column], p.constant);
    }
    if (keep) {
      ASSERT_STATUS_OK(expected.Append(t));
    }
  }
  EXPECT_EQ(engine->relation.tuples(), expected.tuples());
}

TEST_P(DifferentialFuzz, BitLevelDecompositionAgrees) {
  auto bits_needed_a = arrays::MinimumBitsFor(*a_);
  auto bits_needed_b = arrays::MinimumBitsFor(*b_);
  ASSERT_OK(bits_needed_a);
  ASSERT_OK(bits_needed_b);
  const size_t bits = std::max(*bits_needed_a, *bits_needed_b);
  auto decomposed = arrays::DecomposePairToBits(*a_, *b_, bits);
  ASSERT_OK(decomposed);
  auto word = arrays::SystolicIntersection(*a_, *b_);
  ASSERT_OK(word);
  auto bit = arrays::SystolicIntersection(decomposed->a, decomposed->b);
  ASSERT_OK(bit);
  EXPECT_EQ(word->selected, bit->selected);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DifferentialFuzz,
    ::testing::Values(
        FuzzParam{11, 0, arrays::FeedModePolicy::kMarching},
        FuzzParam{12, 0, arrays::FeedModePolicy::kMarching},
        FuzzParam{13, 5, arrays::FeedModePolicy::kMarching},
        FuzzParam{14, 9, arrays::FeedModePolicy::kMarching},
        FuzzParam{15, 3, arrays::FeedModePolicy::kMarching},
        FuzzParam{16, 0, arrays::FeedModePolicy::kFixedB},
        FuzzParam{17, 6, arrays::FeedModePolicy::kFixedB},
        FuzzParam{18, 2, arrays::FeedModePolicy::kFixedB},
        FuzzParam{19, 13, arrays::FeedModePolicy::kMarching},
        FuzzParam{20, 1, arrays::FeedModePolicy::kMarching},
        FuzzParam{21, 1, arrays::FeedModePolicy::kFixedB},
        FuzzParam{22, 7, arrays::FeedModePolicy::kMarching},
        // Multi-chip points: the tiled passes fan out across worker chips
        // and every backend must still agree exactly.
        FuzzParam{23, 5, arrays::FeedModePolicy::kMarching, 2},
        FuzzParam{24, 3, arrays::FeedModePolicy::kMarching, 7},
        FuzzParam{25, 6, arrays::FeedModePolicy::kFixedB, 2},
        FuzzParam{26, 2, arrays::FeedModePolicy::kFixedB, 7},
        FuzzParam{27, 9, arrays::FeedModePolicy::kAuto, 7}));

// --- Serial-vs-parallel differential fuzz: for every operation, the
// multi-chip engine must produce output byte-identical to the serial engine
// — relation contents AND tuple order AND summed statistics — across
// num_chips in {1, 2, 7}. 1000 random relation pairs total, sharded so
// ctest can run the shards concurrently. ---

constexpr size_t kParallelFuzzShards = 8;
constexpr size_t kPairsPerShard = 125;  // 8 x 125 = 1000 pairs

class ParallelDifferentialFuzz : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelDifferentialFuzz, EveryOpBitIdenticalAcrossChipCounts) {
  const size_t shard = GetParam();

  // One engine per chip count, reused across all pairs (the pool's workers
  // persist). device.rows is small so every workload tiles heavily.
  DeviceConfig base;
  base.rows = 5;
  // Pinned: kAuto's guard weighs the chip schedule, so its discipline (and
  // with it the pass structure) may differ across chip counts.
  base.mode = arrays::FeedModePolicy::kMarching;
  Engine serial(base);
  std::vector<std::unique_ptr<Engine>> parallel;
  for (size_t chips : {size_t{2}, size_t{7}}) {
    DeviceConfig config = base;
    config.num_chips = chips;
    parallel.push_back(std::make_unique<Engine>(config));
  }

  auto check = [&](const char* op, uint64_t seed,
                   const Result<db::EngineResult>& serial_result,
                   const Result<db::EngineResult>& parallel_result) {
    ASSERT_EQ(serial_result.ok(), parallel_result.ok())
        << op << " seed " << seed;
    if (!serial_result.ok()) return;
    EXPECT_EQ(serial_result->relation.tuples(),
              parallel_result->relation.tuples())
        << op << " seed " << seed;
    EXPECT_EQ(serial_result->stats.passes, parallel_result->stats.passes)
        << op << " seed " << seed;
    EXPECT_EQ(serial_result->stats.cycles, parallel_result->stats.cycles)
        << op << " seed " << seed;
    EXPECT_EQ(serial_result->stats.busy_cell_cycles,
              parallel_result->stats.busy_cell_cycles)
        << op << " seed " << seed;
  };

  for (size_t i = 0; i < kPairsPerShard; ++i) {
    const uint64_t seed = 1000 + shard * kPairsPerShard + i;
    Rng rng(seed * 6151 + 7);
    const Schema schema = rel::MakeIntSchema(1 + seed % 3);
    rel::PairOptions options;
    options.base.num_tuples = 4 + static_cast<size_t>(rng.Uniform(0, 8));
    options.base.domain_size = 2 + rng.Uniform(0, 5);
    options.base.seed = seed;
    options.b_num_tuples = 3 + static_cast<size_t>(rng.Uniform(0, 9));
    options.overlap_fraction = rng.NextDouble();
    auto pair = rel::GenerateOverlappingPair(schema, options);
    ASSERT_OK(pair);

    const rel::JoinSpec join_spec{
        {0},
        {pair->b.arity() - 1},
        static_cast<rel::ComparisonOp>(seed % 3 == 0 ? 0 : seed % 6)};
    auto divisor = pair->b.ProjectColumns({pair->b.arity() - 1});
    ASSERT_OK(divisor);
    const rel::DivisionSpec div_spec{{pair->a.arity() - 1}, {0}};
    const std::vector<arrays::SelectionPredicate> predicates{
        {0, rel::ComparisonOp::kGe, rng.Uniform(0, 4)}};

    for (const auto& engine : parallel) {
      check("intersect", seed, serial.Intersect(pair->a, pair->b),
            engine->Intersect(pair->a, pair->b));
      check("subtract", seed, serial.Subtract(pair->a, pair->b),
            engine->Subtract(pair->a, pair->b));
      check("dedup", seed, serial.RemoveDuplicates(pair->a),
            engine->RemoveDuplicates(pair->a));
      check("union", seed, serial.Union(pair->a, pair->b),
            engine->Union(pair->a, pair->b));
      check("project", seed, serial.Project(pair->a, {0}),
            engine->Project(pair->a, {0}));
      check("join", seed, serial.Join(pair->a, pair->b, join_spec),
            engine->Join(pair->a, pair->b, join_spec));
      check("divide", seed, serial.Divide(pair->a, *divisor, div_spec),
            engine->Divide(pair->a, *divisor, div_spec));
      check("select", seed, serial.Select(pair->a, predicates),
            engine->Select(pair->a, predicates));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ParallelDifferentialFuzz,
                         ::testing::Range(size_t{0}, kParallelFuzzShards));

// --- Planner differential fuzz: randomized multi-step transactions run
// three ways — literally on the §9 machine, through the cost-based query
// planner (rewrites + feed hints + LPT emission), and on the reference
// oracle evaluated step by step — and every transaction *result* buffer
// must be bit-identical across all three. ---

struct PlannerFuzzParam {
  uint64_t seed;
  size_t device_rows;
  size_t num_chips;
};

/// Reference-oracle evaluation of one plan step over already-computed
/// operand relations (ops_reference has no Select; the conjunction filter
/// is applied inline).
Result<Relation> OracleStep(const machine::PlanStep& step,
                            const std::map<std::string, Relation>& env) {
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
    case machine::OpKind::kSelect: {
      Relation out(left.schema(), rel::RelationKind::kMulti);
      for (const rel::Tuple& t : left.tuples()) {
        bool keep = true;
        for (const auto& p : step.predicates) {
          keep = keep && rel::ApplyComparison(p.op, t[p.column], p.constant);
        }
        if (keep) SYSTOLIC_RETURN_NOT_OK(out.Append(t));
      }
      return out;
    }
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
    Rng& rng, const std::map<std::string, Relation>& inputs,
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
      size_t out_arity = 0;
      switch (rng.Uniform(0, 7)) {
        case 0:
          candidate.Intersect(lname, rname, out);
          out_arity = larity;
          break;
        case 1:
          candidate.Difference(lname, rname, out);
          out_arity = larity;
          break;
        case 2:
          candidate.Union(lname, rname, out);
          out_arity = larity;
          break;
        case 3:
          candidate.RemoveDuplicates(lname, out);
          out_arity = larity;
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
          out_arity = larity;
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

class PlannerDifferentialFuzz
    : public ::testing::TestWithParam<PlannerFuzzParam> {};

TEST_P(PlannerDifferentialFuzz, SinksBitIdenticalLiteralPlannedOracle) {
  const PlannerFuzzParam p = GetParam();
  Rng rng(p.seed * 9176 + 3);
  const rel::Schema schema = rel::MakeIntSchema(2 + p.seed % 2);
  const int64_t domain = 3 + rng.Uniform(0, 4);
  std::map<std::string, Relation> inputs;
  for (const char* name : {"r0", "r1", "r2"}) {
    rel::GeneratorOptions options;
    options.num_tuples = 6 + static_cast<size_t>(rng.Uniform(0, 10));
    options.domain_size = domain;
    options.seed = p.seed * 31 + static_cast<uint64_t>(name[1]);
    auto r = rel::GenerateRelation(schema, options);
    ASSERT_OK(r);
    inputs.emplace(name, *std::move(r));
  }
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

  // Reference oracle, step by step.
  std::map<std::string, Relation> env = inputs;
  for (const machine::PlanStep& step : txn.steps()) {
    auto r = OracleStep(step, env);
    ASSERT_OK(r) << "oracle failed on step '" << step.output << "'";
    env.emplace(step.output, *std::move(r));
  }

  machine::MachineConfig config;
  config.num_memories = 48;
  config.device.rows = p.device_rows;
  config.device.num_chips = p.num_chips;

  const auto run = [&](const machine::Transaction& t)
      -> std::map<std::string, std::vector<rel::Tuple>> {
    machine::Machine m(config);
    for (const auto& [name, r] : inputs) {
      SYSTOLIC_CHECK(m.StoreBuffer(name, r).ok());
    }
    auto report = m.Execute(t);
    SYSTOLIC_CHECK(report.ok()) << report.status().ToString();
    std::map<std::string, std::vector<rel::Tuple>> out;
    for (const std::string& sink : sinks) {
      auto buffer = m.Buffer(sink);
      SYSTOLIC_CHECK(buffer.ok()) << sink;
      out[sink] = (*buffer)->tuples();
    }
    return out;
  };

  const auto literal = run(txn);
  planner::PlannerOptions options;
  options.params.default_device = config.device;
  auto planned = planner::PlanTransaction(txn, catalog, options);
  ASSERT_OK(planned);
  const auto optimized = run(planned->transaction);

  for (const std::string& sink : sinks) {
    EXPECT_EQ(literal.at(sink), env.at(sink).tuples())
        << "literal vs oracle diverged on '" << sink << "' seed " << p.seed;
    EXPECT_EQ(optimized.at(sink), env.at(sink).tuples())
        << "planned vs oracle diverged on '" << sink << "' seed " << p.seed
        << "\n"
        << planned->ToString();
  }
}

/// The default 20 planner-fuzz points; SYSTOLIC_FUZZ_SEEDS sets the total
/// instead (extra points for the nightly expanded run reuse the same
/// device-shape / chip-count rotation with fresh seeds).
std::vector<PlannerFuzzParam> PlannerFuzzPoints() {
  std::vector<PlannerFuzzParam> points{
      {101, 0, 1},  {102, 0, 1}, {103, 5, 1},  {104, 7, 1}, {105, 3, 1},
      {106, 9, 1},  {107, 11, 1}, {108, 0, 1}, {109, 13, 1}, {110, 1, 1},
      {111, 5, 2},  {112, 3, 2}, {113, 7, 3},  {114, 0, 3}, {115, 9, 7},
      {116, 1, 7},  {117, 5, 3}, {118, 13, 2}, {119, 3, 7}, {120, 7, 2}};
  const size_t count = systolic::testing::FuzzSeedCount(points.size());
  if (count < points.size()) points.resize(count);
  static constexpr size_t kRows[] = {0, 1, 3, 5, 7, 9, 11, 13};
  static constexpr size_t kChips[] = {1, 2, 3, 7};
  for (size_t k = points.size(); k < count; ++k) {
    points.push_back(PlannerFuzzParam{101 + k, kRows[k % 8], kChips[k % 4]});
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Txns, PlannerDifferentialFuzz,
                         ::testing::ValuesIn(PlannerFuzzPoints()));

}  // namespace
}  // namespace systolic
