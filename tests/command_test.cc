#include "system/command.h"

#include <filesystem>
#include <sstream>

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/ops_reference.h"
#include "test_util.h"

namespace systolic {
namespace machine {
namespace {

using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

class CommandFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MachineConfig config;
    config.num_memories = 12;
    machine_ = std::make_unique<Machine>(config);
    schema_ = rel::MakeIntSchema(2);
    machine_->disk().Put("A", Rel(schema_, {{1, 10}, {2, 20}, {3, 30}}));
    machine_->disk().Put("B", Rel(schema_, {{2, 20}, {4, 40}}));
    interpreter_ = std::make_unique<CommandInterpreter>(machine_.get(), &out_);
  }

  Status Run(const std::string& script) {
    std::istringstream in(script);
    return interpreter_->ExecuteScript(in);
  }

  std::unique_ptr<Machine> machine_;
  Schema schema_;
  std::ostringstream out_;
  std::unique_ptr<CommandInterpreter> interpreter_;
};

TEST_F(CommandFixture, LoadIntersectPrint) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\nINTERSECT A B -> C\nPRINT C\n"));
  auto c = machine_->Buffer("C");
  ASSERT_OK(c);
  EXPECT_EQ((*c)->num_tuples(), 1u);
  EXPECT_NE(out_.str().find("intersect -> C: 1 tuples"), std::string::npos);
}

TEST_F(CommandFixture, StepLinesNameTheFeedDiscipline) {
  // The default device resolves kAuto: on one unbounded tile fixed-B wins
  // every counter. Intersect: |A| + m + R + 1 = 3 + 2 + 2 + 1 pulses; join
  // on one column: 3 + 1 + 2. The tuple count stays the number before the
  // first " tuples" and the compute pulses the number before the first
  // " pulses" — what a client parses.
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\nINTERSECT A B -> C\n"
                       "JOIN A B ON c0 = c0 -> J\n"
                       "SELECT A WHERE c0 >= 2 -> F\n"));
  EXPECT_NE(out_.str().find("-- intersect -> C: 1 tuples, 1 passes (fixed-B), "
                            "8 pulses, 11 dma pulses (0 overlapped)\n"),
            std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("-- join -> J: 1 tuples, 1 passes (fixed-B), "
                            "6 pulses, "),
            std::string::npos)
      << out_.str();
  // Selection has one discipline and names none.
  EXPECT_NE(out_.str().find("-- select -> F: 2 tuples, 1 passes, "),
            std::string::npos)
      << out_.str();

  // A device pinned to marching says so: m + R + max(2|A|, 2|B| - 1) =
  // 2 + 5 + 6 pulses on the 5-row auto-sized grid.
  MachineConfig config;
  config.num_memories = 12;
  config.device.mode = arrays::FeedModePolicy::kMarching;
  Machine marching(config);
  marching.disk().Put("A", Rel(schema_, {{1, 10}, {2, 20}, {3, 30}}));
  marching.disk().Put("B", Rel(schema_, {{2, 20}, {4, 40}}));
  std::ostringstream out;
  CommandInterpreter shell(&marching, &out);
  std::istringstream script("LOAD A\nLOAD B\nINTERSECT A B -> C\n");
  ASSERT_STATUS_OK(shell.ExecuteScript(script));
  EXPECT_NE(out.str().find("-- intersect -> C: 1 tuples, 1 passes (marching), "
                           "13 pulses, "),
            std::string::npos)
      << out.str();
}

TEST_F(CommandFixture, CommentsAndBlankLinesIgnored) {
  ASSERT_STATUS_OK(Run("# a comment\n\nLOAD A  # trailing comment\n"));
  EXPECT_TRUE(machine_->Buffer("A").ok());
}

TEST_F(CommandFixture, SelectWithConjunction) {
  ASSERT_STATUS_OK(
      Run("LOAD A\nSELECT A WHERE c0 >= 2 AND c1 < 30 -> F\n"));
  auto f = machine_->Buffer("F");
  ASSERT_OK(f);
  ASSERT_EQ((*f)->num_tuples(), 1u);
  EXPECT_EQ((*f)->tuple(0), (rel::Tuple{2, 20}));
}

TEST_F(CommandFixture, ProjectByColumnNames) {
  ASSERT_STATUS_OK(Run("LOAD A\nPROJECT A c1,c0 -> P\n"));
  auto p = machine_->Buffer("P");
  ASSERT_OK(p);
  EXPECT_EQ((*p)->arity(), 2u);
  EXPECT_EQ((*p)->tuple(0), (rel::Tuple{10, 1}));
}

TEST_F(CommandFixture, JoinOnNamedColumns) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\nJOIN A B ON c0 < c0 -> J\n"));
  auto j = machine_->Buffer("J");
  ASSERT_OK(j);
  // Pairs (a,b) with a.c0 < b.c0: (1,2),(1,4),(2,4),(3,4) = 4.
  EXPECT_EQ((*j)->num_tuples(), 4u);
}

TEST_F(CommandFixture, UnionDedupDifferenceChain) {
  ASSERT_STATUS_OK(
      Run("LOAD A\nLOAD B\nUNION A B -> U\nDIFFERENCE U B -> D\nDEDUP D -> "
          "DD\n"));
  auto dd = machine_->Buffer("DD");
  ASSERT_OK(dd);
  EXPECT_EQ((*dd)->num_tuples(), 2u);  // {1,3} rows of A
}

TEST_F(CommandFixture, DivideCommand) {
  auto dk = rel::Domain::Make("s", rel::ValueType::kInt64);
  auto dv = rel::Domain::Make("p", rel::ValueType::kInt64);
  Schema enrolled({{"s", dk}, {"p", dv}});
  Schema required({{"p", dv}});
  machine_->disk().Put("E",
                       Rel(enrolled, {{1, 7}, {1, 8}, {2, 7}}));
  machine_->disk().Put("R", Rel(required, {{7}, {8}}));
  ASSERT_STATUS_OK(Run("LOAD E\nLOAD R\nDIVIDE E R ON p = p -> Q\n"));
  auto q = machine_->Buffer("Q");
  ASSERT_OK(q);
  ASSERT_EQ((*q)->num_tuples(), 1u);
  EXPECT_EQ((*q)->tuple(0)[0], 1);
}

TEST_F(CommandFixture, StoreAndRelease) {
  ASSERT_STATUS_OK(Run("LOAD A\nSTORE A AS A_copy\nRELEASE A\n"));
  EXPECT_TRUE(machine_->Buffer("A").status().IsNotFound());
  EXPECT_TRUE(machine_->disk().Read("A_copy").ok());
}

TEST_F(CommandFixture, ErrorsCarryLineNumbers) {
  const Status status = Run("LOAD A\nFROBNICATE A -> X\n");
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST_F(CommandFixture, UsageErrors) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\n"));
  EXPECT_TRUE(Run("LOAD\n").IsInvalidArgument());
  EXPECT_TRUE(Run("INTERSECT A -> C\n").IsInvalidArgument());
  EXPECT_TRUE(Run("DIVIDE A B ON c0 < c0 -> Q\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SELECT A WHERE c0 -> F\n").IsInvalidArgument());
  EXPECT_TRUE(Run("PRINT nothing\n").IsNotFound());
}

TEST_F(CommandFixture, UnknownColumnRejected) {
  ASSERT_STATUS_OK(Run("LOAD A\n"));
  EXPECT_TRUE(Run("SELECT A WHERE ghost = 1 -> F\n").IsNotFound());
}

TEST_F(CommandFixture, BadIntLiteralRejected) {
  ASSERT_STATUS_OK(Run("LOAD A\n"));
  EXPECT_TRUE(Run("SELECT A WHERE c0 = banana -> F\n").IsInvalidArgument());
}

TEST_F(CommandFixture, StringDomainSelection) {
  auto dn = rel::Domain::Make("names", rel::ValueType::kString);
  Schema people({{"name", dn}});
  rel::RelationBuilder builder(people);
  ASSERT_STATUS_OK(builder.AddRow({rel::Value::String("ada")}));
  ASSERT_STATUS_OK(builder.AddRow({rel::Value::String("alan")}));
  machine_->disk().Put("P", builder.Finish());
  ASSERT_STATUS_OK(Run("LOAD P\nSELECT P WHERE name = ada -> F\n"));
  auto f = machine_->Buffer("F");
  ASSERT_OK(f);
  EXPECT_EQ((*f)->num_tuples(), 1u);
  // A string never encoded cannot be looked up.
  EXPECT_TRUE(Run("SELECT P WHERE name = ghost -> G\n").IsNotFound());
}

TEST_F(CommandFixture, TransactionBeginExplainCommit) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\n"));
  ASSERT_STATUS_OK(
      Run("BEGIN\nINTERSECT A B -> x\nDIFFERENCE A B -> y\nUNION x y -> "
          "z\nEXPLAIN\nCOMMIT\n"));
  auto z = machine_->Buffer("z");
  ASSERT_OK(z);
  EXPECT_EQ((*z)->num_tuples(), 3u);  // x ∪ y == A deduplicated
  EXPECT_NE(out_.str().find("plan: 3 steps in 2 levels"), std::string::npos);
  EXPECT_NE(out_.str().find("committed 3 steps"), std::string::npos);
}

TEST_F(CommandFixture, TransactionAbortDiscardsSteps) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\n"));
  ASSERT_STATUS_OK(Run("BEGIN\nINTERSECT A B -> x\nABORT\n"));
  EXPECT_TRUE(machine_->Buffer("x").status().IsNotFound());
  // After ABORT, immediate execution works again.
  ASSERT_STATUS_OK(Run("INTERSECT A B -> x\n"));
  EXPECT_TRUE(machine_->Buffer("x").ok());
}

TEST_F(CommandFixture, TransactionStateErrors) {
  EXPECT_TRUE(Run("COMMIT\n").IsInvalidArgument());
  EXPECT_TRUE(Run("ABORT\n").IsInvalidArgument());
  EXPECT_TRUE(Run("EXPLAIN\n").IsInvalidArgument());
  ASSERT_STATUS_OK(Run("BEGIN\n"));
  EXPECT_TRUE(Run("BEGIN\n").IsInvalidArgument());
  ASSERT_STATUS_OK(Run("ABORT\n"));
}

TEST_F(CommandFixture, HelpListsEveryVerbFamily) {
  ASSERT_STATUS_OK(Run("HELP\n"));
  const std::string help = out_.str();
  for (const char* verb :
       {"LOAD", "STORE", "PRINT", "RELEASE", "INTERSECT", "PROJECT", "SELECT",
        "JOIN", "DIVIDE", "BEGIN", "COMMIT", "EXPLAIN", "OPEN", "CHECKPOINT",
        "SET PLANNER", "SET DURABILITY", "SET FAULTS", "HELP"}) {
    EXPECT_NE(help.find(verb), std::string::npos) << "HELP omits " << verb;
  }
}

TEST_F(CommandFixture, UnknownSetKeyNamesTheValidKeys) {
  const Status unknown = Run("SET TURBO on\n");
  EXPECT_TRUE(unknown.IsInvalidArgument());
  EXPECT_NE(unknown.message().find("unknown SET key 'TURBO'"),
            std::string::npos);
  EXPECT_NE(unknown.message().find("valid keys: PLANNER, DURABILITY, FAULTS"),
            std::string::npos);
  const Status bare = Run("SET\n");
  EXPECT_TRUE(bare.IsInvalidArgument());
  EXPECT_NE(bare.message().find("valid keys"), std::string::npos);
}

TEST_F(CommandFixture, SetDurabilityRequiresAnOpenDirectory) {
  const Status toggled = Run("SET DURABILITY on\n");
  EXPECT_TRUE(toggled.IsNotFound());
  EXPECT_NE(toggled.message().find("OPEN <dir>"), std::string::npos);
}

TEST_F(CommandFixture, SetBackendFastStampsTheStepReport) {
  ASSERT_STATUS_OK(
      Run("SET BACKEND fast\nLOAD A\nLOAD B\nINTERSECT A B -> C\n"));
  EXPECT_NE(out_.str().find("-- backend fast"), std::string::npos);
  // The step ran on the fast path: same result, marker in the report line.
  EXPECT_NE(out_.str().find("intersect -> C: 1 tuples"), std::string::npos);
  EXPECT_NE(out_.str().find("(fast, analytic)"), std::string::npos);
  // Same pulses as the RTL run (analytic timing contract).
  std::ostringstream rtl_out;
  MachineConfig config;
  config.num_memories = 12;
  Machine rtl_machine(config);
  rtl_machine.disk().Put("A", Rel(schema_, {{1, 10}, {2, 20}, {3, 30}}));
  rtl_machine.disk().Put("B", Rel(schema_, {{2, 20}, {4, 40}}));
  CommandInterpreter rtl_shell(&rtl_machine, &rtl_out);
  ASSERT_STATUS_OK(rtl_shell.Execute("LOAD A"));
  ASSERT_STATUS_OK(rtl_shell.Execute("LOAD B"));
  ASSERT_STATUS_OK(rtl_shell.Execute("INTERSECT A B -> C"));
  const std::string rtl_line = rtl_out.str();
  const size_t pulses_at = rtl_line.find(" pulses");
  ASSERT_NE(pulses_at, std::string::npos);
  const size_t comma_at = rtl_line.rfind(", ", pulses_at);
  ASSERT_NE(comma_at, std::string::npos);
  // "<n> pulses" from the RTL run must appear verbatim in the fast run.
  EXPECT_NE(out_.str().find(rtl_line.substr(comma_at, pulses_at - comma_at)),
            std::string::npos)
      << "fast output: " << out_.str() << "\nrtl output: " << rtl_line;
}

TEST_F(CommandFixture, SetBackendUnknownValueNamesTheValidOnes) {
  for (const char* script : {"SET BACKEND turbo\n", "SET BACKEND auto\n",
                             "SET BACKEND\n"}) {
    const Status bad = Run(script);
    EXPECT_TRUE(bad.IsInvalidArgument()) << script;
    EXPECT_TRUE(bad.message().ends_with("valid values: rtl, fast"))
        << bad.message();
  }
}

TEST_F(CommandFixture, UnknownSetKeyNamesBackend) {
  const Status unknown = Run("SET TURBO on\n");
  EXPECT_NE(unknown.message().find("FAULTS, BACKEND"), std::string::npos);
}

TEST_F(CommandFixture, HelpListsSetBackend) {
  ASSERT_STATUS_OK(Run("HELP\n"));
  EXPECT_NE(out_.str().find("SET BACKEND rtl|fast  ("), std::string::npos);
}

TEST_F(CommandFixture, ExplainPrintsTheBackendPolicy) {
  ASSERT_STATUS_OK(
      Run("SET BACKEND fast\nLOAD A\nLOAD B\nEXPLAIN INTERSECT A B -> C\n"));
  EXPECT_NE(out_.str().find("-- backend: fast"), std::string::npos);
}

TEST_F(CommandFixture, FastBackendFallsBackToRtlUnderFaults) {
  ASSERT_STATUS_OK(
      Run("SET BACKEND fast\nSET FAULTS seed=3\nLOAD A\nLOAD B\n"
          "INTERSECT A B -> C\n"));
  // Fault injection needs pulse-level fidelity: no fast-path marker, and
  // the fault counters report as usual.
  EXPECT_EQ(out_.str().find("(fast, analytic)"), std::string::npos);
  EXPECT_NE(out_.str().find("intersect -> C: 1 tuples"), std::string::npos);
  EXPECT_NE(out_.str().find("faults"), std::string::npos);
  // EXPLAIN names the pending fallback while the policy stays fast.
  ASSERT_STATUS_OK(Run("EXPLAIN INTERSECT A B -> D\n"));
  EXPECT_NE(out_.str().find("falls back to rtl while faults are installed"),
            std::string::npos);
}

TEST_F(CommandFixture, PlannerAndFastBackendAgreeWithRtl) {
  ASSERT_STATUS_OK(
      Run("SET PLANNER on\nSET BACKEND fast\nLOAD A\nLOAD B\n"
          "BEGIN\nINTERSECT A B -> x\nUNION A B -> y\nCOMMIT\n"));
  EXPECT_EQ((*machine_->Buffer("x"))->num_tuples(), 1u);
  EXPECT_EQ((*machine_->Buffer("y"))->num_tuples(), 4u);
}

TEST_F(CommandFixture, RelationalParseErrors) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\n"));
  // Unknown comparison operator.
  EXPECT_TRUE(Run("SELECT A WHERE c0 ~ 5 -> X\n").IsInvalidArgument());
  // Predicate cut off mid-triple.
  EXPECT_TRUE(Run("SELECT A WHERE c0 =\n").IsInvalidArgument());
  // More than one output name after the arrow.
  EXPECT_TRUE(Run("SELECT A WHERE c0 = 1 -> X extra\n").IsInvalidArgument());
  // Arrow missing where one is required.
  EXPECT_TRUE(Run("DEDUP A to X\n").IsInvalidArgument());
  EXPECT_TRUE(Run("DEDUP A\n").IsInvalidArgument());
  EXPECT_TRUE(Run("PROJECT A\n").IsInvalidArgument());
  EXPECT_TRUE(Run("JOIN A B c0 = c0 -> J\n").IsInvalidArgument());
}

TEST_F(CommandFixture, SystemCommandUsageErrors) {
  ASSERT_STATUS_OK(Run("LOAD A\n"));
  EXPECT_TRUE(Run("PRINT\n").IsInvalidArgument());
  EXPECT_TRUE(Run("STORE A disk_a\n").IsInvalidArgument());
  EXPECT_TRUE(Run("RELEASE\n").IsInvalidArgument());
  EXPECT_TRUE(Run("CHECKPOINT now\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET PLANNER maybe\n").IsInvalidArgument());
}

TEST_F(CommandFixture, SetFaultsParsesEveryKnob) {
  ASSERT_STATUS_OK(Run("SET FAULTS seed=7 rate=0.25 shadow=0.5 strikes=2\n"));
  ASSERT_NE(machine_->config().device.faults, nullptr);
  // dead= marks the named chip dead (chip 0 is the only one here).
  ASSERT_STATUS_OK(Run("SET FAULTS seed=7 dead=0\n"));
  EXPECT_TRUE(machine_->config().device.faults->chip(0).dead);
  ASSERT_STATUS_OK(Run("SET FAULTS off\n"));
  EXPECT_EQ(machine_->config().device.faults, nullptr);
  EXPECT_NE(out_.str().find("-- faults off"), std::string::npos);
}

TEST(CommandFaults, SelectStepReportsEveryChip) {
  // A selection is a one-tile batch, yet its step line counts the whole
  // device like every other operator's.
  MachineConfig config;
  config.device.num_chips = 3;
  Machine machine(config);
  machine.disk().Put("A", Rel(rel::MakeIntSchema(2), {{1, 10}, {2, 20}}));
  std::ostringstream out;
  CommandInterpreter shell(&machine, &out);
  std::istringstream script(
      "SET FAULTS seed=7 rate=0\nLOAD A\nSELECT A WHERE c0 = 2 -> S\n");
  ASSERT_STATUS_OK(shell.ExecuteScript(script));
  EXPECT_NE(out.str().find("select -> S: 1 tuples"), std::string::npos);
  EXPECT_NE(out.str().find(", 0 faults, 0 retries, 3/3 chips\n"),
            std::string::npos)
      << out.str();
}

TEST(CommandEvenRows, PlannedCommitNeverPinsMarching) {
  // §3.2's marching pairs never meet on an even row count. The planner's
  // estimate favours marching for 1-tuple operands, but may pin only a
  // discipline the device allows, so the commit runs fixed-B instead of
  // reaching the RTL grid's odd-rows invariant.
  MachineConfig config;
  config.device.rows = 4;
  Machine machine(config);
  const Schema schema = rel::MakeIntSchema(1);
  machine.disk().Put("A", Rel(schema, {{5}}));
  machine.disk().Put("B", Rel(schema, {{5}}));
  std::ostringstream out;
  CommandInterpreter shell(&machine, &out);
  ASSERT_TRUE(shell.planner_enabled());
  std::istringstream script(
      "LOAD A\nLOAD B\nBEGIN\nINTERSECT A B -> C\nCOMMIT\nPRINT C\n");
  ASSERT_STATUS_OK(shell.ExecuteScript(script));
  auto oracle = rel::reference::Intersection(Rel(schema, {{5}}),
                                             Rel(schema, {{5}}));
  ASSERT_OK(oracle);
  auto c = machine.Buffer("C");
  ASSERT_OK(c);
  EXPECT_EQ((*c)->tuples(), oracle->tuples());
  EXPECT_NE(out.str().find(oracle->ToString()), std::string::npos)
      << out.str();
}

TEST_F(CommandFixture, SetFaultsRejectsBadValues) {
  EXPECT_TRUE(Run("SET FAULTS seed=banana\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS seed=1 rate=2\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS seed=1 shadow=nope\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS seed=1 strikes=0\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS seed=1 dead=x\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS seed=1 dead=9\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS seed=1 turbo=1\n").IsInvalidArgument());
  EXPECT_TRUE(Run("SET FAULTS rate=0.1\n").IsInvalidArgument());
}

TEST_F(CommandFixture, VerifyCommandAndTransactionForms) {
  ASSERT_STATUS_OK(Run("LOAD A\nLOAD B\n"));
  // Standalone VERIFY <command> plans and checks without executing.
  ASSERT_STATUS_OK(Run("VERIFY INTERSECT A B -> V\n"));
  EXPECT_FALSE(machine_->Buffer("V").ok()) << "VERIFY must not execute";
  EXPECT_NE(out_.str().find("verify:"), std::string::npos);
  // VERIFY of a non-relational verb and outside a transaction both fail.
  EXPECT_TRUE(Run("VERIFY PRINT A\n").IsInvalidArgument());
  EXPECT_TRUE(Run("VERIFY\n").IsInvalidArgument());
  EXPECT_TRUE(Run("EXPLAIN PRINT A\n").IsInvalidArgument());
  // In-transaction VERIFY checks the pending steps.
  ASSERT_STATUS_OK(
      Run("BEGIN\nINTERSECT A B -> I\nVERIFY\nABORT\n"));
  // An interior dedup over A is elided; its certificate rests on the
  // catalog's proof that A, which a step reads, is duplicate-free.
  ASSERT_STATUS_OK(
      Run("BEGIN\nDEDUP A -> D\nINTERSECT D B -> I\nVERIFY\nABORT\n"));
  EXPECT_NE(out_.str().find("1 rewrite certificates re-proved"),
            std::string::npos)
      << out_.str();
}

TEST_F(CommandFixture, CommitWithPlannerOffReportsFaultCounters) {
  ASSERT_STATUS_OK(
      Run("SET PLANNER off\nSET FAULTS seed=3\nLOAD A\nLOAD B\n"
          "BEGIN\nINTERSECT A B -> I\nCOMMIT\n"));
  EXPECT_EQ((*machine_->Buffer("I"))->num_tuples(), 1u);
  EXPECT_NE(out_.str().find("-- committed 1 steps"), std::string::npos);
  EXPECT_NE(out_.str().find("-- faults: 0 detected"), std::string::npos);
}

TEST_F(CommandFixture, PlannedCommitReleasesTempsAndReportsFaults) {
  // The planner pushes the selection below the join, introducing temp
  // buffers the commit must release; with a fault plan installed the
  // planner commit path prints the fault counters too.
  ASSERT_STATUS_OK(
      Run("SET PLANNER on\nSET FAULTS seed=3\nLOAD A\nLOAD B\n"
          "BEGIN\nJOIN A B ON c0 = c0 -> J\n"
          "SELECT J WHERE c1 >= 20 -> H\nCOMMIT\n"));
  auto h = machine_->Buffer("H");
  ASSERT_OK(h);
  EXPECT_EQ((*h)->num_tuples(), 1u);  // only (2,20)x(2,20) survives
  EXPECT_NE(out_.str().find("-- faults: 0 detected"), std::string::npos);
}

TEST_F(CommandFixture, PendingOutputNotFoundInsideTransaction) {
  ASSERT_STATUS_OK(Run("LOAD A\n"));
  // Inside a transaction, operand schemas resolve through the pending
  // plan; a name neither buffered nor pending is still NotFound.
  const Status status =
      Run("BEGIN\nSELECT ghost WHERE c0 = 1 -> X\n");
  EXPECT_TRUE(status.IsNotFound());
  ASSERT_STATUS_OK(Run("ABORT\n"));
}

/// CommandFixture plus a durable scratch directory.
class DurableCommandFixture : public CommandFixture {
 protected:
  void SetUp() override {
    CommandFixture::SetUp();
    dir_ = (std::filesystem::temp_directory_path() /
            ("systolic_command_durable_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DurableCommandFixture, OpenStoreCheckpointAndReopenRecover) {
  ASSERT_STATUS_OK(Run("OPEN " + dir_ + "\n"));
  EXPECT_NE(out_.str().find("-- opened " + dir_), std::string::npos);
  ASSERT_STATUS_OK(Run("LOAD A\nSTORE A AS saved_a\n"));
  ASSERT_STATUS_OK(Run("CHECKPOINT\n"));
  EXPECT_NE(out_.str().find("-- checkpoint chk-1"), std::string::npos);
  // A committed command's sink is durably persisted and announced.
  ASSERT_STATUS_OK(Run("LOAD B\nINTERSECT A B -> I\n"));
  EXPECT_NE(out_.str().find("-- durability: committed 1 relation"),
            std::string::npos);
  // Stats surfaced through the machine's durable session.
  ASSERT_NE(machine_->durable(), nullptr);
  EXPECT_EQ(machine_->durable()->stats().checkpoints, 1u);
  EXPECT_GE(machine_->durable()->stats().wal_records, 2u);

  // A second machine (the "restarted process") recovers everything.
  MachineConfig config;
  config.num_memories = 12;
  Machine restarted(config);
  std::ostringstream out;
  CommandInterpreter shell(&restarted, &out);
  ASSERT_STATUS_OK(shell.Execute("OPEN " + dir_));
  EXPECT_NE(out.str().find("recovered"), std::string::npos);
  ASSERT_STATUS_OK(shell.Execute("LOAD saved_a"));
  auto saved = restarted.Buffer("saved_a");
  ASSERT_OK(saved);
  EXPECT_EQ((*saved)->num_tuples(), 3u);
  ASSERT_STATUS_OK(shell.Execute("LOAD I"));
  auto i = restarted.Buffer("I");
  ASSERT_OK(i);
  EXPECT_EQ((*i)->num_tuples(), 1u);
}

TEST_F(DurableCommandFixture, ExplainPrintsTheDurabilityPolicy) {
  ASSERT_STATUS_OK(Run("OPEN " + dir_ + "\n"));
  ASSERT_STATUS_OK(Run("LOAD A\nEXPLAIN DEDUP A -> D\n"));
  EXPECT_NE(out_.str().find("-- durability: on, dir " + dir_),
            std::string::npos);
}

TEST_F(DurableCommandFixture, SetDurabilityOffSuspendsLogging) {
  ASSERT_STATUS_OK(Run("OPEN " + dir_ + "\nSET DURABILITY off\n"));
  const size_t before = machine_->durable()->stats().wal_records;
  ASSERT_STATUS_OK(Run("LOAD A\nSTORE A AS quiet\nDEDUP A -> D\n"));
  EXPECT_EQ(machine_->durable()->stats().wal_records, before)
      << "durability off must not log";
  EXPECT_EQ(out_.str().find("-- durability: committed"), std::string::npos);
  // Back on: logging resumes.
  ASSERT_STATUS_OK(Run("SET DURABILITY on\nSTORE D AS loud\n"));
  EXPECT_GT(machine_->durable()->stats().wal_records, before);
}

TEST_F(DurableCommandFixture, OpenTwiceFails) {
  ASSERT_STATUS_OK(Run("OPEN " + dir_ + "\n"));
  EXPECT_TRUE(Run("OPEN " + dir_ + "\n").IsAlreadyExists());
  EXPECT_TRUE(Run("OPEN\n").IsInvalidArgument());
}

TEST_F(DurableCommandFixture, CheckpointWithoutOpenFails) {
  EXPECT_TRUE(Run("CHECKPOINT\n").IsNotFound());
}

TEST_F(DurableCommandFixture, TransactionSinksCommitAsOneGroup) {
  ASSERT_STATUS_OK(Run("OPEN " + dir_ + "\nLOAD A\nLOAD B\n"));
  ASSERT_STATUS_OK(
      Run("BEGIN\nINTERSECT A B -> x\nUNION A B -> y\nCOMMIT\n"));
  // Both sinks of the transaction land in one durable commit.
  EXPECT_NE(out_.str().find("-- durability: committed 2 relation"),
            std::string::npos);
  MachineConfig config;
  config.num_memories = 12;
  Machine restarted(config);
  std::ostringstream out;
  CommandInterpreter shell(&restarted, &out);
  ASSERT_STATUS_OK(shell.Execute("OPEN " + dir_));
  ASSERT_STATUS_OK(shell.Execute("LOAD x"));
  ASSERT_STATUS_OK(shell.Execute("LOAD y"));
  EXPECT_EQ((*restarted.Buffer("x"))->num_tuples(), 1u);
  EXPECT_EQ((*restarted.Buffer("y"))->num_tuples(), 4u);
}

}  // namespace
}  // namespace machine
}  // namespace systolic
