// Unit tests for the cost-based query planner (src/planner): one test per
// rewrite pass asserting both the structural effect (what fired, what the
// emitted transaction looks like) and the planner's bit-identity contract
// (result buffers of the planned transaction equal the literal execution,
// tuple for tuple, in order), plus no-op and pathological DAG shapes,
// cardinality/feed-mode/physical-scheduling checks, and an end-to-end
// measured-pulse reduction on the selection-below-join workload.

#include "planner/physical.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "system/machine.h"
#include "test_util.h"

namespace systolic {
namespace planner {
namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::OpKind;
using machine::PlanStep;
using machine::Transaction;
using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

using Inputs = std::map<std::string, Relation>;

std::map<std::string, InputInfo> MakeCatalog(const Inputs& inputs) {
  std::map<std::string, InputInfo> catalog;
  for (const auto& [name, r] : inputs) {
    catalog[name] = {r.schema(), r.num_tuples(), ProvablyDuplicateFree(r)};
  }
  return catalog;
}

/// Result buffers of `txn`: outputs no other step consumes.
std::vector<std::string> SinkNames(const Transaction& txn) {
  std::set<std::string> consumed;
  for (const PlanStep& s : txn.steps()) {
    consumed.insert(s.left);
    if (!s.right.empty()) consumed.insert(s.right);
  }
  std::vector<std::string> sinks;
  for (const PlanStep& s : txn.steps()) {
    if (consumed.count(s.output) == 0) sinks.push_back(s.output);
  }
  return sinks;
}

struct RunOutcome {
  std::map<std::string, std::vector<rel::Tuple>> sinks;
  size_t cycles = 0;  // summed device pulses over all steps
};

RunOutcome RunTxn(const Transaction& txn, const Inputs& inputs,
               const std::vector<std::string>& sinks,
               const MachineConfig& config) {
  Machine m(config);
  for (const auto& [name, r] : inputs) {
    SYSTOLIC_CHECK(m.StoreBuffer(name, r).ok());
  }
  auto report = m.Execute(txn);
  SYSTOLIC_CHECK(report.ok()) << report.status().ToString();
  RunOutcome out;
  for (const auto& step : report->steps) out.cycles += step.exec.cycles;
  for (const std::string& sink : sinks) {
    auto buffer = m.Buffer(sink);
    SYSTOLIC_CHECK(buffer.ok()) << sink << ": " << buffer.status().ToString();
    out.sinks[sink].assign((*buffer)->tuples().begin(),
                           (*buffer)->tuples().end());
  }
  return out;
}

MachineConfig TestConfig() {
  MachineConfig config;
  config.num_memories = 40;
  return config;
}

PlannerOptions OptionsFor(const MachineConfig& config) {
  PlannerOptions options;
  options.params.default_device = config.device;
  options.params.device_configs = config.device_configs;
  options.params.device_counts = config.device_counts;
  return options;
}

/// Plans `txn`, executes both the literal and the planned transaction on
/// identical machines, and expects every result buffer bit-identical.
/// Returns the planned transaction for structural assertions.
PlannedTransaction PlanAndCheck(const Transaction& txn, const Inputs& inputs,
                                MachineConfig config = TestConfig()) {
  auto planned = PlanTransaction(txn, MakeCatalog(inputs), OptionsFor(config));
  SYSTOLIC_CHECK(planned.ok()) << planned.status().ToString();
  const std::vector<std::string> sinks = SinkNames(txn);
  const RunOutcome literal = RunTxn(txn, inputs, sinks, config);
  const RunOutcome optimized = RunTxn(planned->transaction, inputs, sinks, config);
  for (const std::string& sink : sinks) {
    EXPECT_EQ(literal.sinks.at(sink), optimized.sinks.at(sink))
        << "sink '" << sink << "' diverged from the literal execution";
  }
  return *std::move(planned);
}

const PlanStep& StepProducing(const Transaction& txn, const std::string& out) {
  for (const PlanStep& s : txn.steps()) {
    if (s.output == out) return s;
  }
  SYSTOLIC_CHECK(false) << "no step produces '" << out << "'";
  return txn.steps().front();
}

size_t CountOps(const Transaction& txn, OpKind op) {
  size_t count = 0;
  for (const PlanStep& s : txn.steps()) count += s.op == op ? 1 : 0;
  return count;
}

// --- Logical plan construction and annotation ---

TEST(LogicalPlanTest, ProvablyDuplicateFreeIsAnExactCheck) {
  const Schema schema = rel::MakeIntSchema(2);
  EXPECT_TRUE(ProvablyDuplicateFree(Rel(schema, {{1, 1}, {1, 2}, {2, 1}})));
  EXPECT_FALSE(ProvablyDuplicateFree(
      Rel(schema, {{1, 1}, {2, 2}, {1, 1}}, rel::RelationKind::kMulti)));
  EXPECT_TRUE(ProvablyDuplicateFree(Rel(schema, {})));
}

TEST(LogicalPlanTest, FromTransactionRejectsUnknownOperand) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}}));
  Transaction txn;
  txn.Intersect("A", "missing", "out");
  auto plan = LogicalPlan::FromTransaction(txn, MakeCatalog(inputs));
  EXPECT_FALSE(plan.ok());
}

TEST(LogicalPlanTest, FromTransactionRejectsDuplicateOutput) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}}));
  Transaction txn;
  txn.RemoveDuplicates("A", "out").RemoveDuplicates("A", "out");
  auto plan = LogicalPlan::FromTransaction(txn, MakeCatalog(inputs));
  EXPECT_FALSE(plan.ok());
}

TEST(LogicalPlanTest, AnnotateDerivesEquiJoinSchema) {
  auto ds = rel::Domain::Make("s", rel::ValueType::kInt64);
  auto dp = rel::Domain::Make("p", rel::ValueType::kInt64);
  auto dw = rel::Domain::Make("w", rel::ValueType::kInt64);
  const Schema sa{{{"s", ds}, {"p", dp}}};
  const Schema sb{{{"p", dp}, {"w", dw}}};
  Inputs inputs;
  inputs.emplace("A", Rel(sa, {{1, 2}}));
  inputs.emplace("B", Rel(sb, {{2, 9}}));
  Transaction txn;
  txn.Join("A", "B", rel::JoinSpec{{1}, {0}, rel::ComparisonOp::kEq}, "j");
  auto plan = LogicalPlan::FromTransaction(txn, MakeCatalog(inputs));
  ASSERT_OK(plan);
  for (const Node& n : plan->nodes()) {
    if (n.name == "j") {
      // Equi-join output: A's columns then B's non-join columns.
      ASSERT_EQ(n.schema.num_columns(), 3u);
      EXPECT_EQ(n.schema.column(0).name, "s");
      EXPECT_EQ(n.schema.column(1).name, "p");
      EXPECT_EQ(n.schema.column(2).name, "w");
      return;
    }
  }
  FAIL() << "join node not found";
}

TEST(LogicalPlanTest, CardinalitiesExactAtLeavesShrinkingAboveSelections) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 20; ++i) rows.push_back({i, i});
  inputs.emplace("A", Rel(schema, rows));
  Transaction txn;
  txn.Select("A", {{0, rel::ComparisonOp::kLt, 5}}, "out");
  auto plan = LogicalPlan::FromTransaction(txn, MakeCatalog(inputs));
  ASSERT_OK(plan);
  EstimateCardinalities(&*plan, SelectivityDefaults{});
  double leaf = 0, select = 0;
  for (const Node& n : plan->nodes()) {
    if (n.is_input) leaf = n.est_rows;
    if (n.name == "out") select = n.est_rows;
  }
  EXPECT_EQ(leaf, 20.0);
  EXPECT_GT(select, 0.0);
  EXPECT_LT(select, leaf);
}

TEST(LogicalPlanTest, ToStringRendersOperatorsAndAnnotations) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}}));
  inputs.emplace("B", Rel(schema, {{2, 2}}));
  Transaction txn;
  txn.Intersect("A", "B", "x").Select("x", {{0, rel::ComparisonOp::kGe, 1}},
                                      "out");
  auto plan = LogicalPlan::FromTransaction(txn, MakeCatalog(inputs));
  ASSERT_OK(plan);
  const std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("intersect"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("select"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("out"), std::string::npos) << rendered;
}

// --- Rewrite passes, one by one ---

TEST(RewriteTest, MergeSelectionsComposesConjuncts) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 12; ++i) rows.push_back({i % 5, i});
  inputs.emplace("A", Rel(schema, rows));
  Transaction txn;
  txn.Select("A", {{0, rel::ComparisonOp::kGe, 1}}, "t")
      .Select("t", {{1, rel::ComparisonOp::kLt, 9}}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_merged, 1u);
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  const PlanStep& step = planned.transaction.steps()[0];
  EXPECT_EQ(step.op, OpKind::kSelect);
  EXPECT_EQ(step.output, "out");
  EXPECT_EQ(step.predicates.size(), 2u);
}

TEST(RewriteTest, PushSelectionBelowJoinSplitsConjunctsBySide) {
  auto ds = rel::Domain::Make("s", rel::ValueType::kInt64);
  auto dp = rel::Domain::Make("p", rel::ValueType::kInt64);
  auto dw = rel::Domain::Make("w", rel::ValueType::kInt64);
  const Schema sa{{{"s", ds}, {"p", dp}}};
  const Schema sb{{{"p", dp}, {"w", dw}}};
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_b;
  for (int64_t i = 0; i < 10; ++i) rows_a.push_back({i, i % 4});
  for (int64_t i = 0; i < 8; ++i) rows_b.push_back({i % 4, 10 * i});
  inputs.emplace("A", Rel(sa, rows_a, rel::RelationKind::kMulti));
  inputs.emplace("B", Rel(sb, rows_b, rel::RelationKind::kMulti));
  Transaction txn;
  txn.Join("A", "B", rel::JoinSpec{{1}, {0}, rel::ComparisonOp::kEq}, "j")
      .Select("j",
              {{0, rel::ComparisonOp::kGe, 2},   // A-side column
               {2, rel::ComparisonOp::kLt, 60}}, // B's w, output column 2
              "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  // Join takes over the σ's name; one pushed σ per side.
  ASSERT_EQ(planned.transaction.steps().size(), 3u);
  EXPECT_EQ(CountOps(planned.transaction, OpKind::kSelect), 2u);
  const PlanStep& join = StepProducing(planned.transaction, "out");
  EXPECT_EQ(join.op, OpKind::kJoin);
  // The B-side conjunct was remapped from output column 2 to B column 1.
  for (const PlanStep& s : planned.transaction.steps()) {
    if (s.op != OpKind::kSelect) continue;
    ASSERT_EQ(s.predicates.size(), 1u);
    if (s.left == "B") {
      EXPECT_EQ(s.predicates[0].column, 1u);
    }
    if (s.left == "A") {
      EXPECT_EQ(s.predicates[0].column, 0u);
    }
  }
  EXPECT_EQ(planned.temp_buffers.size(), 2u);
}

TEST(RewriteTest, PushSelectionBelowIntersectionFiltersLeftArmOnly) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_f;
  for (int64_t i = 0; i < 14; ++i) rows_a.push_back({i, i % 3});
  for (int64_t i = 0; i < 14; i += 2) rows_f.push_back({i, i % 3});
  inputs.emplace("A", Rel(schema, rows_a));
  inputs.emplace("F", Rel(schema, rows_f));
  Transaction txn;
  txn.Intersect("A", "F", "x")
      .Select("x", {{0, rel::ComparisonOp::kLt, 10}}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  ASSERT_EQ(planned.transaction.steps().size(), 2u);
  const PlanStep& intersect = StepProducing(planned.transaction, "out");
  EXPECT_EQ(intersect.op, OpKind::kIntersect);
  // σ went below the streamed (left) arm; the filter arm is untouched.
  EXPECT_EQ(intersect.right, "F");
  const PlanStep& select = planned.transaction.steps()[0];
  EXPECT_EQ(select.op, OpKind::kSelect);
  EXPECT_EQ(select.left, "A");
  EXPECT_EQ(select.output, intersect.left);
}

TEST(RewriteTest, PushSelectionBelowUnionFiltersBothArms) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}, {3, 3}}));
  inputs.emplace("B", Rel(schema, {{2, 2}, {4, 4}, {5, 5}}));
  Transaction txn;
  txn.Union("A", "B", "u").Select("u", {{0, rel::ComparisonOp::kLe, 4}},
                                  "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  ASSERT_EQ(planned.transaction.steps().size(), 3u);
  EXPECT_EQ(CountOps(planned.transaction, OpKind::kSelect), 2u);
  EXPECT_EQ(StepProducing(planned.transaction, "out").op, OpKind::kUnion);
}

TEST(RewriteTest, PushSelectionBelowProjectionRemapsColumns) {
  const Schema schema = rel::MakeIntSchema(3);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 12; ++i) rows.push_back({i, 2 * i, i % 4});
  inputs.emplace("A", Rel(schema, rows));
  Transaction txn;
  txn.Project("A", {2, 0}, "p")
      .Select("p", {{0, rel::ComparisonOp::kEq, 1}}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  const PlanStep& select = planned.transaction.steps()[0];
  ASSERT_EQ(select.op, OpKind::kSelect);
  // Predicate on projected column 0 reads source column 2.
  ASSERT_EQ(select.predicates.size(), 1u);
  EXPECT_EQ(select.predicates[0].column, 2u);
  EXPECT_EQ(StepProducing(planned.transaction, "out").op, OpKind::kProject);
}

TEST(RewriteTest, PushSelectionBelowDivisionRemapsThroughQuotient) {
  auto dx = rel::Domain::Make("x", rel::ValueType::kInt64);
  auto dy = rel::Domain::Make("y", rel::ValueType::kInt64);
  const Schema sa{{{"x", dx}, {"y", dy}}};
  const Schema sd{{{"y", dy}}};
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t x = 0; x < 6; ++x) {
    for (int64_t y = 0; y < (x % 3) + 1; ++y) rows.push_back({x, y});
  }
  inputs.emplace("A", Rel(sa, rows));
  inputs.emplace("D", Rel(sd, {{0}, {1}}));
  Transaction txn;
  txn.Divide("A", "D", rel::DivisionSpec{{1}, {0}}, "q")
      .Select("q", {{0, rel::ComparisonOp::kGe, 2}}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  const PlanStep& select = planned.transaction.steps()[0];
  ASSERT_EQ(select.op, OpKind::kSelect);
  // Quotient column 0 is dividend column 0.
  ASSERT_EQ(select.predicates.size(), 1u);
  EXPECT_EQ(select.predicates[0].column, 0u);
  EXPECT_EQ(StepProducing(planned.transaction, "out").op, OpKind::kDivide);
}

TEST(RewriteTest, PushSelectionBelowDedup) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}, {1, 1}, {3, 3}, {2, 2}},
                          rel::RelationKind::kMulti));
  Transaction txn;
  txn.RemoveDuplicates("A", "d")
      .Select("d", {{0, rel::ComparisonOp::kLe, 2}}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  ASSERT_EQ(planned.transaction.steps().size(), 2u);
  EXPECT_EQ(planned.transaction.steps()[0].op, OpKind::kSelect);
  const PlanStep& dedup = StepProducing(planned.transaction, "out");
  EXPECT_EQ(dedup.op, OpKind::kRemoveDuplicates);
}

TEST(RewriteTest, VacuousSelectionElided) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {1, 1}, {2, 2}},
                          rel::RelationKind::kMulti));
  Transaction txn;
  txn.RemoveDuplicates("A", "d").Select("d", {}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.selections_pushed, 1u);
  // σ_{} disappears; the dedup takes over the result name.
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  EXPECT_EQ(planned.transaction.steps()[0].op, OpKind::kRemoveDuplicates);
  EXPECT_EQ(planned.transaction.steps()[0].output, "out");
}

TEST(RewriteTest, ProjectionCompositionPrunedIntoOne) {
  const Schema schema = rel::MakeIntSchema(3);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({i, i % 3, i % 2});
  inputs.emplace("A", Rel(schema, rows));
  Transaction txn;
  txn.Project("A", {1, 2}, "p1").Project("p1", {1}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.projections_pruned, 1u);
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  const PlanStep& project = planned.transaction.steps()[0];
  EXPECT_EQ(project.op, OpKind::kProject);
  EXPECT_EQ(project.output, "out");
  // Composed map: outer {1} through inner {1, 2} = source column 2.
  EXPECT_EQ(project.columns, std::vector<size_t>{2});
}

TEST(RewriteTest, IdentityProjectionElidedOverDuplicateFreeChild) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}, {3, 3}}));  // dup-free
  Transaction txn;
  txn.Select("A", {{0, rel::ComparisonOp::kGe, 2}}, "s")
      .Project("s", {0, 1}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.projections_pruned, 1u);
  // The σ takes over the sink name; no projection runs at all.
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  EXPECT_EQ(planned.transaction.steps()[0].op, OpKind::kSelect);
  EXPECT_EQ(planned.transaction.steps()[0].output, "out");
}

TEST(RewriteTest, IdentityProjectionKeptWhenChildHasDuplicates) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {1, 1}, {2, 2}},
                          rel::RelationKind::kMulti));
  Transaction txn;
  txn.Project("A", {0, 1}, "out");  // still dedups: not an identity
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.projections_pruned, 0u);
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  EXPECT_EQ(planned.transaction.steps()[0].op, OpKind::kProject);
}

TEST(RewriteTest, DedupElidedOverProvablyDuplicateFreeInput) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}, {3, 3}}));  // dup-free
  Transaction txn;
  txn.Select("A", {{0, rel::ComparisonOp::kGe, 2}}, "t")
      .RemoveDuplicates("t", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.dedups_elided, 1u);
  // Sink-rename case: the σ takes over the dedup's result name.
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  EXPECT_EQ(planned.transaction.steps()[0].op, OpKind::kSelect);
  EXPECT_EQ(planned.transaction.steps()[0].output, "out");
}

TEST(RewriteTest, DedupKeptOverMultisetInput) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {1, 1}, {2, 2}},
                          rel::RelationKind::kMulti));
  Transaction txn;
  txn.RemoveDuplicates("A", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.dedups_elided, 0u);
  ASSERT_EQ(planned.transaction.steps().size(), 1u);
  EXPECT_EQ(planned.transaction.steps()[0].op, OpKind::kRemoveDuplicates);
}

TEST(RewriteTest, MembershipChainAppliesSmallestFilterFirst) {
  const Schema schema = rel::MakeIntSchema(1);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_big;
  for (int64_t i = 0; i < 30; ++i) rows_a.push_back({i});
  for (int64_t i = 0; i < 25; ++i) rows_big.push_back({i});
  inputs.emplace("A", Rel(schema, rows_a));
  inputs.emplace("Fbig", Rel(schema, rows_big));
  inputs.emplace("Fsmall", Rel(schema, {{3}, {7}}));
  Transaction txn;
  txn.Intersect("A", "Fbig", "t").Intersect("t", "Fsmall", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.chains_reordered, 1u);
  ASSERT_EQ(planned.transaction.steps().size(), 2u);
  // The step over the base now filters by the 2-row set.
  const PlanStep* bottom = nullptr;
  for (const PlanStep& s : planned.transaction.steps()) {
    if (s.left == "A") bottom = &s;
  }
  ASSERT_NE(bottom, nullptr);
  EXPECT_EQ(bottom->right, "Fsmall");
  EXPECT_EQ(StepProducing(planned.transaction, "out").right, "Fbig");
  // The interior intermediate moved to a planner-owned name.
  EXPECT_EQ(planned.temp_buffers.size(), 1u);
}

TEST(RewriteTest, IntersectAndDifferenceCommuteWithinAChain) {
  const Schema schema = rel::MakeIntSchema(1);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_big;
  for (int64_t i = 0; i < 24; ++i) rows_a.push_back({i});
  for (int64_t i = 0; i < 20; ++i) rows_big.push_back({2 * i});
  inputs.emplace("A", Rel(schema, rows_a));
  inputs.emplace("Fbig", Rel(schema, rows_big));
  inputs.emplace("Fsmall", Rel(schema, {{4}, {5}, {6}}));
  Transaction txn;
  txn.Difference("A", "Fbig", "t").Intersect("t", "Fsmall", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.chains_reordered, 1u);
  // The ops moved with their filters: ∩Fsmall now runs first.
  const PlanStep* bottom = nullptr;
  for (const PlanStep& s : planned.transaction.steps()) {
    if (s.left == "A") bottom = &s;
  }
  ASSERT_NE(bottom, nullptr);
  EXPECT_EQ(bottom->op, OpKind::kIntersect);
  EXPECT_EQ(bottom->right, "Fsmall");
  const PlanStep& top = StepProducing(planned.transaction, "out");
  EXPECT_EQ(top.op, OpKind::kDifference);
  EXPECT_EQ(top.right, "Fbig");
}

// --- No-op and pathological DAG shapes ---

TEST(RewriteTest, IndependentStepsAreLeftAlone) {
  // The command_test transaction shape: nothing to rewrite.
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}, {3, 3}}));
  inputs.emplace("B", Rel(schema, {{2, 2}, {4, 4}}));
  Transaction txn;
  txn.Intersect("A", "B", "x").Difference("A", "B", "y").Union("x", "y", "z");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.rewrites.total(), 0u);
  EXPECT_EQ(planned.transaction.steps().size(), 3u);
  EXPECT_TRUE(planned.temp_buffers.empty());
}

TEST(RewriteTest, SharedIntermediateBlocksPushdown) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_b;
  for (int64_t i = 0; i < 8; ++i) rows_a.push_back({i % 3, i});
  for (int64_t i = 0; i < 6; ++i) rows_b.push_back({i % 3, 5 * i});
  inputs.emplace("A", Rel(schema, rows_a, rel::RelationKind::kMulti));
  inputs.emplace("B", Rel(schema, rows_b, rel::RelationKind::kMulti));
  Transaction txn;
  txn.Join("A", "B", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "j")
      .Select("j", {{1, rel::ComparisonOp::kGe, 3}}, "out1")
      .Select("j", {{1, rel::ComparisonOp::kLt, 3}}, "out2");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  // Pushing either σ would change shared buffer j: both must stay put.
  EXPECT_EQ(planned.rewrites.selections_pushed, 0u);
  EXPECT_EQ(planned.transaction.steps().size(), 3u);
}

TEST(RewriteTest, SelfReferentialOperandsSurviveRewriting) {
  const Schema schema = rel::MakeIntSchema(1);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({i});
  inputs.emplace("A", Rel(schema, rows));
  inputs.emplace("F", Rel(schema, {{2}, {4}, {6}}));
  Transaction txn;
  // b is read twice by one step and once as a filter: a worst case for the
  // single-consumer guards.
  txn.Intersect("A", "F", "b")
      .Difference("b", "b", "empty")
      .Union("empty", "b", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  EXPECT_EQ(planned.transaction.steps().size(), 3u);
}

TEST(RewriteTest, DeepMixedDagKeepsEverySinkBitIdentical) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_b;
  for (int64_t i = 0; i < 16; ++i) rows_a.push_back({i % 6, i % 4});
  for (int64_t i = 0; i < 12; ++i) rows_b.push_back({i % 6, i % 3});
  inputs.emplace("A", Rel(schema, rows_a, rel::RelationKind::kMulti));
  inputs.emplace("B", Rel(schema, rows_b, rel::RelationKind::kMulti));
  Transaction txn;
  txn.Union("A", "B", "u")
      .Select("u", {{0, rel::ComparisonOp::kLe, 4}}, "s1")
      .Select("s1", {{1, rel::ComparisonOp::kGe, 1}}, "s2")
      .Project("s2", {1, 0}, "p1")
      .Project("p1", {0}, "narrow")
      .RemoveDuplicates("s2", "d")
      .Join("d", "B", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "wide");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  // Multiple pass kinds fire; both sinks checked bit-for-bit by the helper.
  EXPECT_GT(planned.rewrites.total(), 0u);
  std::set<std::string> outputs;
  for (const PlanStep& s : planned.transaction.steps()) {
    outputs.insert(s.output);
  }
  EXPECT_EQ(outputs.count("narrow"), 1u);
  EXPECT_EQ(outputs.count("wide"), 1u);
}

// --- Physical planning ---

TEST(PhysicalTest, FeedHintsPinnedOnlyWhenOperandsAreExternal) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 20; ++i) rows.push_back({i, i});
  inputs.emplace("A", Rel(schema, rows));
  inputs.emplace("B", Rel(schema, {{1, 1}, {2, 2}, {3, 3}}));
  inputs.emplace("C", Rel(schema, {{2, 2}, {5, 5}}));
  MachineConfig config = TestConfig();
  config.device.rows = 9;  // bounded device: the feed-mode choice matters
  Transaction txn;
  txn.Union("A", "B", "u1").Union("u1", "C", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs, config);
  ASSERT_EQ(planned.steps.size(), 2u);
  for (const PlannedStep& step : planned.steps) {
    if (step.output == "u1") {
      // Both operands are catalog inputs with exact counts: pinned.
      EXPECT_TRUE(step.hinted);
      EXPECT_TRUE(StepProducing(planned.transaction, "u1").has_feed_hint);
    } else {
      // u1 is an estimate, not a count: the engine's kAuto decides at run
      // time from the true cardinality.
      EXPECT_FALSE(step.hinted);
      EXPECT_FALSE(StepProducing(planned.transaction, step.output)
                       .has_feed_hint);
    }
  }
}

TEST(PhysicalTest, LevelsEmittedInDescendingEstimatedPulses) {
  const Schema schema = rel::MakeIntSchema(1);
  Inputs inputs;
  std::vector<std::vector<int64_t>> big;
  for (int64_t i = 0; i < 40; ++i) big.push_back({i});
  inputs.emplace("Big1", Rel(schema, big));
  inputs.emplace("Big2", Rel(schema, big));
  inputs.emplace("Small1", Rel(schema, {{1}}));
  inputs.emplace("Small2", Rel(schema, {{2}}));
  MachineConfig config = TestConfig();
  config.device.rows = 9;
  Transaction txn;
  // Listed small-first: the planner must emit the big intersection first so
  // the machine's round-robin assignment approximates LPT.
  txn.Intersect("Small1", "Small2", "s")
      .Intersect("Big1", "Big2", "b")
      .Union("s", "b", "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs, config);
  ASSERT_EQ(planned.steps.size(), 3u);
  EXPECT_EQ(planned.steps[0].level, 0u);
  EXPECT_EQ(planned.steps[1].level, 0u);
  EXPECT_GE(planned.steps[0].est_pulses, planned.steps[1].est_pulses);
  EXPECT_EQ(planned.steps[0].output, "b");
  EXPECT_EQ(planned.steps[2].level, 1u);
  EXPECT_GT(planned.est_makespan_pulses, 0.0);
  EXPECT_LE(planned.est_makespan_pulses, planned.est_total_pulses);
}

TEST(PhysicalTest, ExplainReportMentionsPlansAndCosts) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  inputs.emplace("A", Rel(schema, {{1, 1}, {2, 2}}));
  inputs.emplace("B", Rel(schema, {{2, 2}}));
  Transaction txn;
  txn.Intersect("A", "B", "x")
      .Select("x", {{0, rel::ComparisonOp::kGe, 1}}, "out");
  const PlannedTransaction planned = PlanAndCheck(txn, inputs);
  const std::string report = planned.ToString();
  EXPECT_NE(report.find("logical plan (input):"), std::string::npos);
  EXPECT_NE(report.find("logical plan (optimized):"), std::string::npos);
  EXPECT_NE(report.find("physical plan:"), std::string::npos);
  EXPECT_NE(report.find("rewrites:"), std::string::npos);
}

TEST(PhysicalTest, DisablingRewritesStillCostsAndSchedules) {
  const Schema schema = rel::MakeIntSchema(2);
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({i % 3, i});
  inputs.emplace("A", Rel(schema, rows, rel::RelationKind::kMulti));
  inputs.emplace("B", Rel(schema, rows, rel::RelationKind::kMulti));
  Transaction txn;
  txn.Join("A", "B", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "j")
      .Select("j", {{1, rel::ComparisonOp::kLt, 5}}, "out");
  PlannerOptions options = OptionsFor(TestConfig());
  options.enable_rewrites = false;
  auto planned = PlanTransaction(txn, MakeCatalog(inputs), options);
  ASSERT_OK(planned);
  EXPECT_EQ(planned->rewrites.total(), 0u);
  EXPECT_EQ(planned->transaction.steps().size(), 2u);
  EXPECT_GT(planned->est_total_pulses, 0.0);
  EXPECT_EQ(planned->est_total_pulses, planned->est_total_pulses_before);
}

// --- End-to-end: the acceptance workload ---

TEST(PlannerEndToEndTest, SelectionBelowJoinAtLeastHalvesMeasuredPulses) {
  auto ds = rel::Domain::Make("s", rel::ValueType::kInt64);
  auto dp = rel::Domain::Make("p", rel::ValueType::kInt64);
  auto dw = rel::Domain::Make("w", rel::ValueType::kInt64);
  const Schema sa{{{"s", ds}, {"p", dp}}};
  const Schema sb{{{"p", dp}, {"w", dw}}};
  Inputs inputs;
  std::vector<std::vector<int64_t>> rows_a, rows_b;
  for (int64_t i = 0; i < 120; ++i) rows_a.push_back({i, i % 12});
  for (int64_t i = 0; i < 120; ++i) rows_b.push_back({i % 12, i % 10});
  inputs.emplace("supplies", Rel(sa, rows_a, rel::RelationKind::kMulti));
  inputs.emplace("parts", Rel(sb, rows_b, rel::RelationKind::kMulti));

  MachineConfig config = TestConfig();
  config.device.rows = 9;  // bounded device: pulses scale with operand sizes

  Transaction txn;
  txn.Join("supplies", "parts",
           rel::JoinSpec{{1}, {0}, rel::ComparisonOp::kEq}, "shipped")
      .Select("shipped", {{2, rel::ComparisonOp::kGe, 9}}, "heavy");

  auto planned =
      PlanTransaction(txn, MakeCatalog(inputs), OptionsFor(config));
  ASSERT_OK(planned);
  EXPECT_EQ(planned->rewrites.selections_pushed, 1u);
  // Modeled: the rewritten plan must cost at most half the naive plan.
  EXPECT_LE(2 * planned->est_total_pulses, planned->est_total_pulses_before);

  // Measured: run both and compare summed device pulses.
  const std::vector<std::string> sinks = SinkNames(txn);
  const RunOutcome literal = RunTxn(txn, inputs, sinks, config);
  const RunOutcome optimized =
      RunTxn(planned->transaction, inputs, sinks, config);
  EXPECT_EQ(literal.sinks.at("heavy"), optimized.sinks.at("heavy"));
  EXPECT_LE(2 * optimized.cycles, literal.cycles)
      << "planned " << optimized.cycles << " pulses vs literal "
      << literal.cycles;
}

}  // namespace
}  // namespace planner
}  // namespace systolic
