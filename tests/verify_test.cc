// Mutation tests for the S22 static verifier (src/verify): every pass must
// reject a deliberately corrupted artifact — an ill-typed step, a tampered
// rewrite certificate, a schedule violating §3.2/§8, a script persisting a
// sink outside its commit group — with a diagnostic naming the pass, the
// offending node and the violated invariant. A verifier that silently
// accepts any of these mutations is itself broken. Plus the positive lane:
// a fuzz sweep asserting every planner-emitted plan verifies clean, and the
// Machine gate returning kVerifyFailed before any device runs.

#include "verify/verifier.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "perfmodel/estimates.h"
#include "planner/physical.h"
#include "relational/generator.h"
#include "system/machine.h"
#include "test_util.h"
#include "verify/script_lint.h"
#include "verify/timing.h"
#include "verify/typing.h"

namespace systolic {
namespace verify {
namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::OpKind;
using machine::Transaction;
using planner::DupFreeFact;
using planner::RewriteCertificate;
using rel::Schema;
using systolic::testing::Rel;

InputStats Stats(const Schema& schema, size_t n, bool exact = true) {
  InputStats stats;
  stats.schema = schema;
  stats.num_tuples = n;
  stats.exact = exact;
  return stats;
}

/// Expects a kVerifyFailed status whose diagnostic carries every fragment —
/// the pass tag, the node, the invariant.
void ExpectVerifyFailed(const Status& status,
                        const std::vector<std::string>& fragments) {
  ASSERT_TRUE(status.IsVerifyFailed()) << status.ToString();
  for (const std::string& fragment : fragments) {
    EXPECT_NE(status.message().find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << status.message();
  }
}

// ---------------------------------------------------------------------------
// Typing pass
// ---------------------------------------------------------------------------

TEST(VerifyTyping, AcceptsOperatorPipeline) {
  const Schema schema = rel::MakeIntSchema(3);
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(schema, 10));
  inputs.emplace("b", Stats(schema, 4));

  Transaction txn;
  txn.Intersect("a", "b", "both");
  txn.Project("both", {2, 0}, "narrow");
  txn.RemoveDuplicates("narrow", "distinct");
  txn.Join("distinct", "b", rel::JoinSpec{{1}, {0}, rel::ComparisonOp::kEq},
           "joined");

  VerifyReport report;
  const auto env = VerifyTyping(txn, inputs, &report);
  ASSERT_OK(env);
  EXPECT_EQ(report.steps_typed, 4u);
  // π reorders to (dom2, dom0); the equi-join then drops B's join column.
  EXPECT_EQ(env->at("narrow").schema.num_columns(), 2u);
  EXPECT_EQ(env->at("joined").schema.num_columns(), 4u);
  EXPECT_EQ(env->at("joined").num_tuples, 10u * 4u);
  EXPECT_FALSE(env->at("joined").exact);
}

TEST(VerifyTyping, MutationIncompatibleIntersectRejected) {
  // Two MakeIntSchema calls mint distinct Domain objects: same value type,
  // different domains — exactly the §2.4 violation the pass must catch.
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(rel::MakeIntSchema(2), 5));
  inputs.emplace("b", Stats(rel::MakeIntSchema(2), 5));
  Transaction txn;
  txn.Intersect("a", "b", "both");
  VerifyReport report;
  ExpectVerifyFailed(VerifyTyping(txn, inputs, &report).status(),
                     {"[typing]", "'both'", "§2.4"});
}

TEST(VerifyTyping, MutationProjectionColumnOutOfRangeRejected) {
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(rel::MakeIntSchema(2), 5));
  Transaction txn;
  txn.Project("a", {0, 7}, "narrow");
  VerifyReport report;
  ExpectVerifyFailed(VerifyTyping(txn, inputs, &report).status(),
                     {"[typing]", "'narrow'", "projection column 7"});
}

TEST(VerifyTyping, MutationOrderPredicateOnUnorderedDomainRejected) {
  const Schema schema(
      {{"name", rel::Domain::Make("name", rel::ValueType::kString)}});
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(schema, 5));
  Transaction txn;
  txn.Select("a", {{0, rel::ComparisonOp::kLt, 3}}, "filtered");
  VerifyReport report;
  ExpectVerifyFailed(VerifyTyping(txn, inputs, &report).status(),
                     {"[typing]", "'filtered'", "unordered domain"});
}

TEST(VerifyTyping, MutationDivisionWithoutQuotientRejected) {
  const Schema schema = rel::MakeIntSchema(2);
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(schema, 6));
  inputs.emplace("b", Stats(schema, 2));
  Transaction txn;
  txn.Divide("a", "b", rel::DivisionSpec{{0, 1}, {0, 1}}, "quotient");
  VerifyReport report;
  ExpectVerifyFailed(VerifyTyping(txn, inputs, &report).status(),
                     {"[typing]", "'quotient'", "no quotient columns"});
}

TEST(VerifyTyping, MutationUnknownOperandRejected) {
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(rel::MakeIntSchema(2), 5));
  Transaction txn;
  txn.RemoveDuplicates("phantom", "clean");
  VerifyReport report;
  ExpectVerifyFailed(VerifyTyping(txn, inputs, &report).status(),
                     {"[typing]", "'clean'",
                      "names no input or step output"});
}

TEST(VerifyTyping, MutationDependencyCycleRejected) {
  const Schema schema = rel::MakeIntSchema(2);
  std::map<std::string, InputStats> inputs;
  inputs.emplace("a", Stats(schema, 5));
  Transaction txn;
  txn.Intersect("second", "a", "first");
  txn.Intersect("first", "a", "second");
  VerifyReport report;
  ExpectVerifyFailed(VerifyTyping(txn, inputs, &report).status(),
                     {"[typing]", "dependency cycle"});
}

// ---------------------------------------------------------------------------
// Timing pass: derive a correct schedule, corrupt one aspect, assert the
// named diagnostic. The uncorrupted schedule must pass first — otherwise the
// mutation proves nothing.
// ---------------------------------------------------------------------------

struct TimingFixture {
  Schema schema = rel::MakeIntSchema(2);
  std::map<std::string, InputStats> env;
  Transaction txn;
  DeviceTable devices;

  explicit TimingFixture(size_t device_rows, OpKind op = OpKind::kIntersect) {
    env.emplace("a", Stats(schema, 7));
    env.emplace("b", Stats(schema, 5));
    devices.default_device.rows = device_rows;
    if (op == OpKind::kRemoveDuplicates) {
      txn.RemoveDuplicates("a", "out");
    } else if (op == OpKind::kUnion) {
      txn.Union("a", "b", "out");
    } else if (op == OpKind::kProject) {
      txn.Project("a", {1}, "out");
    } else {
      txn.Intersect("a", "b", "out");
    }
  }

  StepSchedule Derive(std::optional<arrays::FeedMode> mode = std::nullopt,
                      bool strips = false) {
    auto schedule = DeriveStepSchedule(txn, 0, env, devices, mode, strips);
    SYSTOLIC_CHECK(schedule.ok()) << schedule.status().ToString();
    return *schedule;
  }

  /// The fixed-B strips of this fixture's dedup-family step, checked clean
  /// before a test corrupts them.
  StepSchedule Strips() {
    StepSchedule schedule = Derive(arrays::FeedMode::kFixedB, true);
    SYSTOLIC_CHECK(
        CheckStepSchedule(schedule, devices.default_device, nullptr).ok());
    return schedule;
  }
};

TEST(VerifyTiming, AcceptsTiledMarchingSchedule) {
  TimingFixture fx(/*device_rows=*/5);  // marching cap (5+1)/2 = 3 → tiles
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  VerifyReport report;
  ASSERT_STATUS_OK(VerifyTiming(fx.txn, fx.env, fx.devices, &report));
  EXPECT_EQ(report.timing_steps, 1u);
  EXPECT_GT(report.tiles_checked, 1u);
  EXPECT_EQ(report.exit_samples, 4u * report.tiles_checked);
}

TEST(VerifyTiming, MutationWrongStaggerRejected) {
  TimingFixture fx(0);
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  StepSchedule schedule = fx.Derive();
  ASSERT_STATUS_OK(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr));
  schedule.spacing_a = 1;  // §3.2: marching must stagger both operands by 2
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "marching stagger", "§3.2"});
}

TEST(VerifyTiming, MutationWidthOverflowRejected) {
  TimingFixture fx(0);
  fx.devices.default_device.columns = 1;  // schema is 2 wide
  StepSchedule schedule = fx.Derive();
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "wire width 2", "partitions over tuples"});
}

TEST(VerifyTiming, MutationOverlappingTilesRejected) {
  TimingFixture fx(5);
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  StepSchedule schedule = fx.Derive();
  ASSERT_GT(schedule.tiles.size(), 1u);
  schedule.tiles.push_back(schedule.tiles.front());  // a pair compared twice
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "overlap"});
}

TEST(VerifyTiming, MutationCoverageGapRejected) {
  TimingFixture fx(5);
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  StepSchedule schedule = fx.Derive();
  ASSERT_GT(schedule.tiles.size(), 1u);
  schedule.tiles.pop_back();  // a block of pairs never compared
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "§8 coverage"});
}

TEST(VerifyTiming, MutationStrayTriangleInitRejected) {
  TimingFixture fx(0);  // intersect: no tile may carry the §5 triangle
  StepSchedule schedule = fx.Derive();
  ASSERT_EQ(schedule.tiles.size(), 1u);
  schedule.tiles[0].diagonal = true;
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "§5"});
}

TEST(VerifyTiming, MutationMissingTriangleInitRejected) {
  TimingFixture fx(0, OpKind::kRemoveDuplicates);
  StepSchedule schedule = fx.Derive();
  ASSERT_EQ(schedule.tiles.size(), 1u);
  ASSERT_TRUE(schedule.tiles[0].diagonal);
  schedule.tiles[0].diagonal = false;  // dedup diagonal without the triangle
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "lacks the §5 strict-lower-triangle"});
}

TEST(VerifyTiming, AcceptsFixedBStripsForTheDedupFamily) {
  // §8 strips: strip q preloads block q of A, the head of A's suffix from
  // q * rows, and streams the whole suffix past it. VerifyTiming audits
  // them beside the block-pair triangle on every fixed-B dedup-family step.
  for (const OpKind op :
       {OpKind::kRemoveDuplicates, OpKind::kUnion, OpKind::kProject}) {
    TimingFixture fx(/*device_rows=*/3, op);
    fx.devices.default_device.mode = arrays::FeedModePolicy::kFixedB;
    const StepSchedule strips = fx.Derive(arrays::FeedMode::kFixedB, true);
    const size_t n = strips.n_a;
    ASSERT_EQ(strips.tiles.size(), (n + 2) / 3) << machine::OpKindToString(op);
    for (size_t q = 0; q < strips.tiles.size(); ++q) {
      const TileModel& t = strips.tiles[q];
      EXPECT_TRUE(t.diagonal);
      EXPECT_EQ(t.a_start, 3 * q);
      EXPECT_EQ(t.a_count, n - 3 * q);
      EXPECT_EQ(t.b_start, 3 * q);
      EXPECT_EQ(t.b_count, std::min<size_t>(3, n - 3 * q));
    }
    VerifyReport clean;
    ASSERT_STATUS_OK(CheckStepSchedule(strips, fx.devices.default_device,
                                       &clean));
    const StepSchedule triangle = fx.Derive();
    EXPECT_EQ(triangle.tiles.size(), strips.tiles.size() *
                                         (strips.tiles.size() + 1) / 2);
    VerifyReport report;
    ASSERT_STATUS_OK(VerifyTiming(fx.txn, fx.env, fx.devices, &report));
    EXPECT_EQ(report.tiles_checked,
              triangle.tiles.size() + strips.tiles.size());
    EXPECT_EQ(clean.tiles_checked, strips.tiles.size());
  }
}

TEST(VerifyTiming, MutationStripHeadOffsetRejected) {
  TimingFixture fx(3, OpKind::kRemoveDuplicates);
  StepSchedule schedule = fx.Strips();
  schedule.tiles[1].b_start += 1;  // B no longer the head of its A slice
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "(3,4)", "wrongly carries the lower-triangle"});
}

TEST(VerifyTiming, MutationStripHeadLongerThanSliceRejected) {
  TimingFixture fx(3, OpKind::kUnion);
  StepSchedule schedule = fx.Strips();
  schedule.tiles[0].a_count = 2;  // a 3-tuple head over a 2-tuple slice
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "B block of 3 tuples", "2-tuple A slice"});
}

TEST(VerifyTiming, MutationOverlappingStripRejected) {
  TimingFixture fx(3, OpKind::kProject);
  StepSchedule schedule = fx.Strips();
  schedule.tiles.push_back(schedule.tiles[1]);  // block 1 preloaded twice
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "overlap"});
}

TEST(VerifyTiming, MutationDroppedStripRejected) {
  TimingFixture fx(3, OpKind::kRemoveDuplicates);
  StepSchedule schedule = fx.Strips();
  schedule.tiles.erase(schedule.tiles.begin() + 1);  // block 1 never preloaded
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "§8 coverage"});
}

TEST(VerifyTiming, MutationMarchingDiagonalHeadRejected) {
  // Only a preloaded block can be the head of a longer A slice: a marching
  // diagonal tile feeds both of its blocks whole.
  TimingFixture fx(5, OpKind::kRemoveDuplicates);
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  StepSchedule schedule = fx.Derive();
  ASSERT_STATUS_OK(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr));
  ASSERT_TRUE(schedule.tiles[0].diagonal);
  schedule.tiles[0].b_count -= 1;
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "marching diagonal tile", "unequal sizes"});
}

TEST(VerifyTiming, MutationBlockCapacityRejected) {
  TimingFixture fx(5);
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  StepSchedule schedule = fx.Derive();
  // Merge everything into one giant tile: coverage holds, §8 capacity not.
  schedule.tiles.clear();
  TileModel tile;
  tile.a_count = schedule.n_a;
  tile.b_count = schedule.n_b;
  schedule.tiles.push_back(tile);
  ExpectVerifyFailed(
      CheckStepSchedule(schedule, fx.devices.default_device, nullptr),
      {"[timing]", "'out'", "§8 block capacity"});
}

TEST(VerifyTiming, MarchingStepOnEvenRowsRejected) {
  // §3.2's marching pairs never meet on an even row count, where the engine
  // refuses the step: the device's explicit mode and a hint alike.
  TimingFixture fx(/*device_rows=*/4);
  fx.devices.default_device.mode = arrays::FeedModePolicy::kMarching;
  ExpectVerifyFailed(VerifyTiming(fx.txn, fx.env, fx.devices, nullptr),
                     {"[timing]", "'out'", "even row count (4)"});
  fx.devices.default_device.mode = arrays::FeedModePolicy::kAuto;
  ASSERT_STATUS_OK(VerifyTiming(fx.txn, fx.env, fx.devices, nullptr));
  fx.txn = Transaction();
  fx.txn.Intersect("a", "b", "out").HintFeedMode(arrays::FeedMode::kMarching);
  ExpectVerifyFailed(VerifyTiming(fx.txn, fx.env, fx.devices, nullptr),
                     {"[timing]", "'out'", "even row count (4)"});
}

TEST(VerifyTiming, MutationWrongFeedHintRejected) {
  TimingFixture fx(0);
  // Pin whichever mode the §8 pulse model would NOT pick.
  const double fixed = perf::FixedBMembershipPulses(7, 5, 2, 0);
  const double marching = perf::MarchingMembershipPulses(7, 5, 2, 0);
  const arrays::FeedMode worse = fixed <= marching
                                     ? arrays::FeedMode::kMarching
                                     : arrays::FeedMode::kFixedB;
  fx.txn = Transaction();
  fx.txn.Intersect("a", "b", "out").HintFeedMode(worse);
  ExpectVerifyFailed(VerifyTiming(fx.txn, fx.env, fx.devices, nullptr),
                     {"[timing]", "'out'", "feed hint pins"});
}

// ---------------------------------------------------------------------------
// Certificate re-proof
// ---------------------------------------------------------------------------

std::map<std::string, planner::InputInfo> TwoInputCatalog(const Schema& schema) {
  std::map<std::string, planner::InputInfo> catalog;
  catalog["a"] = {schema, 8, true};
  catalog["b"] = {schema, 3, false};
  return catalog;
}

TEST(VerifyCertificates, MutationTamperedProjectionCompositionRejected) {
  const Schema schema = rel::MakeIntSchema(3);
  RewriteCertificate cert;
  cert.kind = RewriteCertificate::Kind::kPruneProjection;
  cert.target = "narrow";
  cert.outer_columns = {1, 0};
  cert.inner_columns = {2, 0};
  cert.composed_columns = {0, 0};  // truth: inner[outer[0]] = inner[1] = 0,
                                   // inner[outer[1]] = inner[0] = 2
  VerifyReport report;
  ExpectVerifyFailed(
      VerifyCertificates({cert}, TwoInputCatalog(schema), &report),
      {"[certificates/prune-projection]", "'narrow'", "inner[outer["});
  EXPECT_EQ(report.certificates_checked, 0u);
}

TEST(VerifyCertificates, MutationBadPushRemapThroughProjectionRejected) {
  RewriteCertificate cert;
  cert.kind = RewriteCertificate::Kind::kPushSelection;
  cert.target = "filtered";
  cert.via_op = OpKind::kProject;
  cert.via_columns = {2, 0};
  cert.outer_predicates = {{1, rel::ComparisonOp::kEq, 7}};
  cert.remaps = {{1, 1, 0}};  // truth: column 1 above reads column 0 below
  ExpectVerifyFailed(VerifyCertificates({cert},
                                        TwoInputCatalog(rel::MakeIntSchema(3)),
                                        nullptr),
                     {"[certificates/push-selection]", "'filtered'",
                      "projection maps column 1 to 0"});
}

TEST(VerifyCertificates, MutationBogusDupFreeRuleRejected) {
  RewriteCertificate cert;
  cert.kind = RewriteCertificate::Kind::kElideDedup;
  cert.target = "clean";
  DupFreeFact fact;
  fact.node = "filtered";
  fact.reason = DupFreeFact::Reason::kOpGuarantee;
  fact.op = OpKind::kSelect;  // σ does NOT deduplicate by construction
  cert.dup_free_derivation = {fact};
  ExpectVerifyFailed(VerifyCertificates({cert},
                                        TwoInputCatalog(rel::MakeIntSchema(2)),
                                        nullptr),
                     {"[certificates/elide-dedup]", "'clean'",
                      "does not deduplicate by construction"});
}

TEST(VerifyCertificates, MutationCatalogFactContradictedRejected) {
  // The derivation cites catalog duplicate-freedom of 'b'; the catalog says
  // b was never proved duplicate-free.
  RewriteCertificate cert;
  cert.kind = RewriteCertificate::Kind::kElideDedup;
  cert.target = "clean";
  DupFreeFact fact;
  fact.node = "b";
  fact.reason = DupFreeFact::Reason::kCatalog;
  cert.dup_free_derivation = {fact};
  ExpectVerifyFailed(VerifyCertificates({cert},
                                        TwoInputCatalog(rel::MakeIntSchema(2)),
                                        nullptr),
                     {"[certificates/elide-dedup]",
                      "catalog never proved input 'b' duplicate-free"});
}

TEST(VerifyCertificates, MutationDroppedChainFilterRejected) {
  RewriteCertificate cert;
  cert.kind = RewriteCertificate::Kind::kReorderChain;
  cert.target = "chained";
  cert.chain_before = {{OpKind::kIntersect, "f1"},
                       {OpKind::kDifference, "f2"}};
  cert.chain_after = {{OpKind::kIntersect, "f1"},
                      {OpKind::kIntersect, "f1"}};  // f2 silently dropped
  cert.chain_nodes = {"mid", "chained"};
  ExpectVerifyFailed(VerifyCertificates({cert},
                                        TwoInputCatalog(rel::MakeIntSchema(2)),
                                        nullptr),
                     {"[certificates/reorder-chain]", "'chained'",
                      "drops or duplicates"});
}

TEST(VerifyCertificates, MutationMergedPredicateOrderRejected) {
  RewriteCertificate cert;
  cert.kind = RewriteCertificate::Kind::kMergeSelections;
  cert.target = "merged";
  cert.inner_predicates = {{0, rel::ComparisonOp::kEq, 1}};
  cert.outer_predicates = {{1, rel::ComparisonOp::kLt, 9}};
  // Outer-then-inner instead of inner-then-outer: wrong application order.
  cert.merged_predicates = {{1, rel::ComparisonOp::kLt, 9},
                            {0, rel::ComparisonOp::kEq, 1}};
  ExpectVerifyFailed(VerifyCertificates({cert},
                                        TwoInputCatalog(rel::MakeIntSchema(2)),
                                        nullptr),
                     {"[certificates/merge-selections]", "'merged'",
                      "inner-then-outer"});
}

// ---------------------------------------------------------------------------
// Script lint
// ---------------------------------------------------------------------------

TEST(ScriptLint, AcceptsWellFormedScript) {
  const auto report = LintScript(
      "# demo\n"
      "LOAD parts\n"
      "OPEN state_dir\n"
      "BEGIN\n"
      "JOIN a b ON x = y -> j\n"
      "EXPLAIN\n"
      "VERIFY\n"
      "COMMIT\n"
      "STORE j AS j_disk\n"
      "CHECKPOINT\n");
  ASSERT_OK(report);
  EXPECT_EQ(report->transactions, 1u);
}

TEST(ScriptLint, MutationStoreOfPendingSinkRejected) {
  ExpectVerifyFailed(LintScript("BEGIN\n"
                                "JOIN a b ON x = y -> j\n"
                                "STORE j AS j_disk\n"
                                "COMMIT\n")
                         .status(),
                     {"[script-lint]", "line 3",
                      "outside its atomic commit group"});
}

TEST(ScriptLint, MutationUnterminatedTransactionRejected) {
  ExpectVerifyFailed(LintScript("BEGIN\nJOIN a b ON x = y -> j\n").status(),
                     {"[script-lint]", "never commits or aborts"});
}

TEST(ScriptLint, MutationCheckpointWithoutOpenRejected) {
  ExpectVerifyFailed(LintScript("LOAD parts\nCHECKPOINT\n").status(),
                     {"[script-lint]", "line 2", "no prior OPEN"});
}

TEST(ScriptLint, MutationUnknownVerbRejected) {
  ExpectVerifyFailed(LintScript("FROBNICATE parts\n").status(),
                     {"[script-lint]", "unknown command 'FROBNICATE'"});
}

TEST(ScriptLint, MutationBareVerifyOutsideTransactionRejected) {
  ExpectVerifyFailed(LintScript("VERIFY\n").status(),
                     {"[script-lint]", "bare VERIFY"});
}

// ---------------------------------------------------------------------------
// The Machine gate
// ---------------------------------------------------------------------------

TEST(MachineGate, RejectsIllTypedTransactionBeforeExecution) {
  MachineConfig config;
  Machine m(config);
  // Distinct Domain objects per schema: the intersect is ill-typed.
  ASSERT_STATUS_OK(
      m.StoreBuffer("a", Rel(rel::MakeIntSchema(2), {{1, 2}, {3, 4}})));
  ASSERT_STATUS_OK(m.StoreBuffer("b", Rel(rel::MakeIntSchema(2), {{1, 2}})));
  Transaction txn;
  txn.Intersect("a", "b", "both");

  m.set_verify_enabled(true);
  const auto gated = m.Execute(txn);
  ExpectVerifyFailed(gated.status(), {"[typing]", "'both'", "§2.4"});
  // The gate fired before any device ran: no output buffer materialised.
  EXPECT_FALSE(m.Buffer("both").ok());
}

TEST(MachineGate, VerifyTransactionReportsWhatItChecked) {
  MachineConfig config;
  config.device.rows = 5;
  Machine m(config);
  const Schema schema = rel::MakeIntSchema(2);
  ASSERT_STATUS_OK(m.StoreBuffer(
      "a", Rel(schema, {{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}})));
  ASSERT_STATUS_OK(m.StoreBuffer("b", Rel(schema, {{1, 2}, {5, 6}})));
  Transaction txn;
  txn.Intersect("a", "b", "both");
  txn.RemoveDuplicates("both", "clean");

  const auto report = m.VerifyTransaction(txn);
  ASSERT_OK(report);
  EXPECT_EQ(report->steps_typed, 2u);
  EXPECT_EQ(report->timing_steps, 2u);
  EXPECT_GT(report->tiles_checked, 0u);
  EXPECT_NE(report->ToString().find("2 steps typed"), std::string::npos);

  // And the gated execution of the well-typed transaction still runs.
  m.set_verify_enabled(true);
  ASSERT_OK(m.Execute(txn));
  ASSERT_OK(m.Buffer("clean"));
}

// ---------------------------------------------------------------------------
// Fuzz lane: plans the planner emits — rewrites, certificates, feed hints,
// reordered chains — must verify clean across random relations, workload
// shapes and device geometries.
// ---------------------------------------------------------------------------

struct FuzzCase {
  uint64_t seed;
  size_t rows;     // device rows (0 = unbounded)
  size_t n_a;
  size_t n_b;
};

class PlannerPlansVerifyClean : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PlannerPlansVerifyClean, EndToEnd) {
  const FuzzCase& fuzz = GetParam();
  const Schema schema = rel::MakeIntSchema(3);
  const Schema divisor_schema({schema.column(2)});

  rel::GeneratorOptions gen;
  gen.num_tuples = fuzz.n_a;
  gen.domain_size = 6;
  gen.seed = fuzz.seed;
  const auto a = rel::GenerateRelation(schema, gen);
  ASSERT_OK(a);
  gen.num_tuples = fuzz.n_b;
  gen.seed = fuzz.seed + 1;
  const auto b = rel::GenerateRelation(schema, gen);
  ASSERT_OK(b);
  gen.num_tuples = 2;
  gen.seed = fuzz.seed + 2;
  const auto d = rel::GenerateRelation(divisor_schema, gen);
  ASSERT_OK(d);

  std::map<std::string, planner::InputInfo> catalog;
  catalog["a"] = {a->schema(), a->num_tuples(),
                  planner::ProvablyDuplicateFree(*a)};
  catalog["b"] = {b->schema(), b->num_tuples(),
                  planner::ProvablyDuplicateFree(*b)};
  catalog["d"] = {d->schema(), d->num_tuples(),
                  planner::ProvablyDuplicateFree(*d)};

  // A workload exercising every rewrite family: σ over π, σ over ⋈, dedup
  // chains, a membership chain, and a division.
  Transaction txn;
  txn.Join("a", "b", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq},
           "joined");
  txn.Select("joined", {{1, rel::ComparisonOp::kGe, 2}}, "heavy");
  txn.Project("heavy", {0, 1}, "narrow");
  txn.RemoveDuplicates("narrow", "distinct");
  txn.Project("a", {0, 1}, "distinct2");
  txn.Intersect("distinct", "distinct2", "chain1");
  txn.Difference("chain1", "distinct2", "chain2");
  txn.Divide("a", "d", rel::DivisionSpec{{2}, {0}}, "quotient");

  planner::PlannerOptions options;
  options.params.default_device.rows = fuzz.rows;
  const auto planned = planner::PlanTransaction(txn, catalog, options);
  ASSERT_OK(planned);

  DeviceTable devices;
  devices.default_device.rows = fuzz.rows;
  const auto report = VerifyPlannedTransaction(*planned, catalog, devices);
  ASSERT_OK(report) << "seed " << fuzz.seed << " rows " << fuzz.rows;
  EXPECT_EQ(report->steps_typed, planned->transaction.steps().size());
  EXPECT_EQ(report->certificates_checked,
            planned->rewrites.certificates.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerPlansVerifyClean,
    ::testing::Values(FuzzCase{11, 0, 9, 4}, FuzzCase{12, 5, 9, 4},
                      FuzzCase{13, 7, 16, 7}, FuzzCase{14, 3, 5, 5},
                      FuzzCase{15, 9, 23, 11}, FuzzCase{16, 0, 1, 1},
                      FuzzCase{17, 5, 12, 1}, FuzzCase{18, 4, 2, 13}));

}  // namespace
}  // namespace verify
}  // namespace systolic
