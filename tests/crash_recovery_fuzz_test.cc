// Deterministic crash-recovery fuzzing for the S21 durability layer.
//
// The crash model (durability/crash_plan.h) counts every IO unit of the
// write path — one unit per data byte, one per metadata operation — so a
// probe run with no cut measures the path's total length U, and cutting at
// each unit in [0, U] visits every byte boundary of every write, both sides
// of every rename, and the torn tail of every log append. The contract under
// test, for each cut:
//
//   * the run fails (if it fails) with Io::kCrashMessage, never corruption;
//   * reopening the directory recovers a catalog whose SerializeCatalog
//     fingerprint equals the state before or after the first crashed
//     operation — NEVER a hybrid of the two;
//   * the same (seed, cut) reproduces a byte-identical directory tree, both
//     at the crash point and after recovery.
//
// Three layers: an exhaustive sweep of every cut on a small DurableCatalog
// workload, a seeded CrashPlan sweep on a larger randomized workload
// (SYSTOLIC_FUZZ_SEEDS sets its size; default 20 points), and a machine-level
// sweep driving the command interpreter through Machine::OpenDurable.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "durability/crash_plan.h"
#include "durability/durable_catalog.h"
#include "durability/io.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/storage.h"
#include "system/command.h"
#include "system/machine.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace durability {
namespace {

using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

/// One durable mutation; the workload is an ordered list of these.
using Op = std::function<Status(DurableCatalog*)>;

/// SerializeCatalog bytes as a single string — the bit-identity oracle.
std::string Fingerprint(const rel::Catalog& catalog) {
  auto files = rel::SerializeCatalog(catalog);
  SYSTOLIC_CHECK(files.ok()) << files.status().ToString();
  std::string fp;
  for (const rel::CatalogFile& file : *files) {
    fp += file.name;
    fp += '\0';
    fp += file.contents;
    fp += '\0';
  }
  return fp;
}

/// Relative path -> contents for every file under `root` (directories
/// contribute their path with a marker), for byte-for-byte determinism
/// comparisons of two crash runs.
std::map<std::string, std::string> TreeSnapshot(const std::string& root) {
  std::map<std::string, std::string> tree;
  if (!std::filesystem::exists(root)) return tree;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    const std::string rel_path =
        std::filesystem::relative(entry.path(), root).string();
    if (entry.is_directory()) {
      tree[rel_path] = "<dir>";
    } else {
      auto contents = Io::ReadFile(entry.path().string());
      SYSTOLIC_CHECK(contents.ok()) << contents.status().ToString();
      tree[rel_path] = *contents;
    }
  }
  return tree;
}

/// A per-test scratch root under the system temp dir, removed on teardown.
class CrashDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "systolic_crash_fuzz_" +
                       std::string(info->test_suite_name()) + "_" +
                       info->name();
    // Parameterized test names contain '/'; flatten them.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    root_ = (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string Sub(const std::string& name) const { return root_ + "/" + name; }

  std::string root_;
};

Relation TrickyStrings() {
  auto dom = rel::Domain::Make("labels", rel::ValueType::kString);
  rel::RelationBuilder builder(rel::Schema({{"label", dom}}));
  SYSTOLIC_CHECK(builder.AddRow({rel::Value::String("a,\"b\"\nc")}).ok());
  SYSTOLIC_CHECK(builder.AddRow({rel::Value::String("")}).ok());
  return builder.Finish();
}

/// F[0] = empty catalog; F[i] = fingerprint after ops[0..i-1] — computed
/// from a clean uninjected run.
std::vector<std::string> OracleFingerprints(const std::vector<Op>& ops,
                                            const std::string& dir) {
  auto durable = DurableCatalog::Open(dir);
  SYSTOLIC_CHECK(durable.ok()) << durable.status().ToString();
  std::vector<std::string> fingerprints;
  fingerprints.push_back(Fingerprint((*durable)->catalog()));
  for (const Op& op : ops) {
    const Status applied = op(durable->get());
    SYSTOLIC_CHECK(applied.ok()) << applied.ToString();
    fingerprints.push_back(Fingerprint((*durable)->catalog()));
  }
  return fingerprints;
}

/// Total IO units the workload consumes, via a no-cut probe run.
uint64_t ProbeUnits(const std::vector<Op>& ops, const std::string& dir) {
  CrashInjector probe(CrashInjector::kNoCrash);
  auto durable = DurableCatalog::Open(dir, Io(&probe));
  SYSTOLIC_CHECK(durable.ok()) << durable.status().ToString();
  for (const Op& op : ops) {
    const Status applied = op(durable->get());
    SYSTOLIC_CHECK(applied.ok()) << applied.ToString();
  }
  return probe.units_used();
}

/// Runs the workload against a fresh dir with the write path cut at `cut`
/// units. Returns the index of the first operation that failed: 0 for Open
/// itself, i for ops[i-1], ops.size()+1 if nothing failed. Any failure must
/// be the simulated crash, nothing else.
size_t RunWithCut(const std::vector<Op>& ops, const std::string& dir,
                  uint64_t cut) {
  CrashInjector injector(cut);
  auto durable = DurableCatalog::Open(dir, Io(&injector));
  if (!durable.ok()) {
    EXPECT_TRUE(Io::IsSimulatedCrash(durable.status()))
        << "cut " << cut << ": " << durable.status().ToString();
    return 0;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const Status applied = ops[i](durable->get());
    if (!applied.ok()) {
      EXPECT_TRUE(Io::IsSimulatedCrash(applied))
          << "cut " << cut << " op " << i << ": " << applied.ToString();
      return i + 1;
    }
  }
  return ops.size() + 1;
}

/// The invariant: recovery lands exactly on the pre- or post-state of the
/// first crashed operation.
void CheckRecovery(const std::vector<std::string>& fingerprints,
                   size_t first_failed, const std::string& dir, uint64_t cut) {
  auto recovered = DurableCatalog::Open(dir);
  ASSERT_OK(recovered) << "cut " << cut << " must recover";
  const std::string got = Fingerprint((*recovered)->catalog());
  if (first_failed == 0) {
    EXPECT_EQ(got, fingerprints[0]) << "cut " << cut << " (Open crashed)";
  } else if (first_failed > fingerprints.size() - 1) {
    EXPECT_EQ(got, fingerprints.back()) << "cut " << cut << " (no crash)";
  } else {
    EXPECT_TRUE(got == fingerprints[first_failed - 1] ||
                got == fingerprints[first_failed])
        << "cut " << cut << ": recovered state is a hybrid — op "
        << first_failed << " crashed but the catalog matches neither its "
        << "pre- nor post-state";
  }
}

std::vector<Op> SmallWorkload() {
  const Schema schema = rel::MakeIntSchema(1);
  std::vector<Op> ops;
  ops.push_back([schema](DurableCatalog* d) {
    return d->Put("r", Rel(schema, {{1}, {2}}));
  });
  ops.push_back([schema](DurableCatalog* d) {
    return d->Append("r", Rel(schema, {{3}}));
  });
  ops.push_back([](DurableCatalog* d) { return d->Checkpoint(); });
  ops.push_back([](DurableCatalog* d) { return d->Put("s", TrickyStrings()); });
  // A two-record atomic group: both land or neither.
  ops.push_back([schema](DurableCatalog* d) {
    SYSTOLIC_RETURN_NOT_OK(d->LogPut("t", Rel(schema, {{9}})));
    SYSTOLIC_RETURN_NOT_OK(d->LogDrop("r"));
    return d->Commit();
  });
  return ops;
}

TEST_F(CrashDirFixture, ExhaustiveCutSweepNeverYieldsHybridState) {
  const std::vector<Op> ops = SmallWorkload();
  const std::vector<std::string> fingerprints =
      OracleFingerprints(ops, Sub("oracle"));
  const uint64_t total = ProbeUnits(ops, Sub("probe"));
  ASSERT_GT(total, 100u) << "probe should count every byte of the path";

  for (uint64_t cut = 0; cut <= total; ++cut) {
    const std::string dir = Sub("cut");
    std::filesystem::remove_all(dir);
    const size_t first_failed = RunWithCut(ops, dir, cut);
    if (cut < total) {
      ASSERT_LE(first_failed, ops.size())
          << "cut " << cut << " of " << total << " must crash some op";
    }
    CheckRecovery(fingerprints, first_failed, dir, cut);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasFailure()) {
      FAIL() << "stopping sweep at first failing cut " << cut << " / "
             << total;
    }
  }
}

TEST_F(CrashDirFixture, SameCutReproducesByteIdenticalDirectories) {
  const std::vector<Op> ops = SmallWorkload();
  const uint64_t total = ProbeUnits(ops, Sub("probe"));
  // A spread of cuts including both endpoints; every one must reproduce.
  std::vector<uint64_t> cuts = {0, 1, total / 2, total - 1, total};
  for (uint64_t cut = 7; cut < total; cut += total / 11 + 1) {
    cuts.push_back(cut);
  }
  for (const uint64_t cut : cuts) {
    const std::string a = Sub("a");
    const std::string b = Sub("b");
    std::filesystem::remove_all(a);
    std::filesystem::remove_all(b);
    const size_t failed_a = RunWithCut(ops, a, cut);
    const size_t failed_b = RunWithCut(ops, b, cut);
    EXPECT_EQ(failed_a, failed_b) << "cut " << cut;
    EXPECT_EQ(TreeSnapshot(a), TreeSnapshot(b))
        << "cut " << cut << ": crash-point trees diverge";
    ASSERT_OK(DurableCatalog::Open(a));
    ASSERT_OK(DurableCatalog::Open(b));
    EXPECT_EQ(TreeSnapshot(a), TreeSnapshot(b))
        << "cut " << cut << ": post-recovery trees diverge";
  }
}

/// Seeded sweep point: a randomized workload and a CrashPlan choosing cuts.
struct CrashFuzzParam {
  uint64_t seed;
};

std::vector<CrashFuzzParam> SweepPoints() {
  const size_t count = systolic::testing::FuzzSeedCount(20);
  std::vector<CrashFuzzParam> points;
  points.reserve(count);
  for (size_t k = 0; k < count; ++k) points.push_back({500 + k});
  return points;
}

/// ~10 ops whose shapes (names, sizes, kinds, checkpoint placement) vary by
/// seed — deterministic for reproducibility.
std::vector<Op> SeededWorkload(uint64_t seed) {
  Rng rng(seed * 9173 + 11);
  const Schema narrow = rel::MakeIntSchema(1);
  const Schema wide = rel::MakeIntSchema(2);
  std::vector<Op> ops;
  std::vector<std::string> live;
  const size_t num_ops = 8 + static_cast<size_t>(rng.Uniform(0, 5));
  for (size_t i = 0; i < num_ops; ++i) {
    const int64_t roll = rng.Uniform(0, 10);
    if (roll < 4 || live.empty()) {
      const std::string name = "rel" + std::to_string(live.size());
      const Schema& schema = roll % 2 == 0 ? narrow : wide;
      std::vector<std::vector<int64_t>> rows;
      const size_t n = 1 + static_cast<size_t>(rng.Uniform(0, 6));
      for (size_t r = 0; r < n; ++r) {
        std::vector<int64_t> row;
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          row.push_back(rng.Uniform(-100, 100));
        }
        rows.push_back(row);
      }
      const Relation relation = Rel(schema, rows, rel::RelationKind::kMulti);
      ops.push_back(
          [name, relation](DurableCatalog* d) { return d->Put(name, relation); });
      // After a drop the name may still be live: the Put replaces it, and
      // the name stays listed once, so a later Drop leaves no stale entry.
      if (std::find(live.begin(), live.end(), name) == live.end()) {
        live.push_back(name);
      }
    } else if (roll < 7) {
      const std::string name = live[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1))];
      // The appended batch derives its schema from the live target at
      // execution time, so it always matches.
      ops.push_back([name,
                     this_row = rng.Uniform(-100, 100)](DurableCatalog* d) {
        auto existing = d->catalog().GetRelation(name);
        if (!existing.ok()) return existing.status();
        std::vector<int64_t> row((*existing)->arity(), this_row);
        rel::RelationBuilder builder((*existing)->schema(),
                                     (*existing)->kind());
        std::vector<rel::Value> values;
        for (int64_t v : row) values.push_back(rel::Value::Int64(v));
        SYSTOLIC_RETURN_NOT_OK(builder.AddRow(values));
        return d->Append(name, builder.Finish());
      });
    } else if (roll < 8 && live.size() > 1) {
      const size_t victim = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      const std::string name = live[victim];
      live.erase(live.begin() + victim);
      ops.push_back([name](DurableCatalog* d) { return d->Drop(name); });
    } else {
      ops.push_back([](DurableCatalog* d) { return d->Checkpoint(); });
    }
  }
  return ops;
}

class CrashRecoveryFuzz : public CrashDirFixture,
                          public ::testing::WithParamInterface<CrashFuzzParam> {
};

TEST_P(CrashRecoveryFuzz, SeededCutsRecoverToPreOrPostState) {
  const uint64_t seed = GetParam().seed;
  const std::vector<Op> ops = SeededWorkload(seed);
  const std::vector<std::string> fingerprints =
      OracleFingerprints(ops, Sub("oracle"));
  const uint64_t total = ProbeUnits(ops, Sub("probe"));
  const CrashPlan plan(seed);

  constexpr uint64_t kTrials = 24;
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    const uint64_t cut = plan.CutFor(trial, total);
    const std::string dir = Sub("trial");
    std::filesystem::remove_all(dir);
    const size_t first_failed = RunWithCut(ops, dir, cut);
    CheckRecovery(fingerprints, first_failed, dir, cut);
    // Reproducibility: the plan re-derives the same cut, and a second run at
    // that cut leaves a byte-identical tree.
    ASSERT_EQ(cut, plan.CutFor(trial, total));
    if (trial == 0) {
      const std::string twin = Sub("twin");
      std::filesystem::remove_all(twin);
      EXPECT_EQ(RunWithCut(ops, twin, cut), first_failed);
      // `dir` was recovered by CheckRecovery; recover the twin to compare.
      ASSERT_OK(DurableCatalog::Open(twin));
      EXPECT_EQ(TreeSnapshot(dir), TreeSnapshot(twin))
          << "seed " << seed << " cut " << cut;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << seed << " failed at trial " << trial << " cut "
             << cut << " / " << total;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashRecoveryFuzz,
                         ::testing::ValuesIn(SweepPoints()));

// ---------------------------------------------------------------------------
// Machine-level: the command interpreter's durable write path (STORE, sink
// persistence on every committed command, CHECKPOINT) under the same model.

const char* const kScriptLines[] = {
    "LOAD A",
    "LOAD B",
    "INTERSECT A B -> I",
    "STORE I AS saved_i",
    "CHECKPOINT",
    "UNION A B -> U",
    "STORE U AS saved_u",
};

std::unique_ptr<machine::Machine> FreshMachine() {
  machine::MachineConfig config;
  config.num_memories = 12;
  auto m = std::make_unique<machine::Machine>(config);
  const Schema schema = rel::MakeIntSchema(2);
  m->disk().Put("A", Rel(schema, {{1, 10}, {2, 20}, {3, 30}}));
  m->disk().Put("B", Rel(schema, {{2, 20}, {4, 40}}));
  return m;
}

TEST_F(CrashDirFixture, MachineScriptCrashesRecoverAtCommandBoundaries) {
  // Oracle: an uninjected run, fingerprinting the durable catalog after the
  // OPEN and after every script line.
  std::vector<std::string> fingerprints;
  {
    auto m = FreshMachine();
    ASSERT_STATUS_OK(m->OpenDurable(Sub("oracle")));
    std::ostringstream out;
    machine::CommandInterpreter interpreter(m.get(), &out);
    fingerprints.push_back(Fingerprint(m->durable()->catalog()));
    for (const char* line : kScriptLines) {
      ASSERT_STATUS_OK(interpreter.Execute(line));
      fingerprints.push_back(Fingerprint(m->durable()->catalog()));
    }
  }
  // Probe the write path's length.
  uint64_t total = 0;
  {
    CrashInjector probe(CrashInjector::kNoCrash);
    auto m = FreshMachine();
    ASSERT_STATUS_OK(m->OpenDurable(Sub("probe"), &probe));
    std::ostringstream out;
    machine::CommandInterpreter interpreter(m.get(), &out);
    for (const char* line : kScriptLines) {
      ASSERT_STATUS_OK(interpreter.Execute(line));
    }
    total = probe.units_used();
  }
  ASSERT_GT(total, 0u);

  // Sweep a deterministic spread of cuts (every unit would repeat the
  // DurableCatalog-level exhaustive test; the machine layer adds the verb
  // wiring, which a stride covers).
  for (uint64_t cut = 0; cut <= total; cut += total / 60 + 1) {
    const std::string dir = Sub("cut");
    std::filesystem::remove_all(dir);
    CrashInjector injector(cut);
    auto m = FreshMachine();
    size_t first_failed = 0;  // 0 = the OPEN itself crashed
    const Status opened = m->OpenDurable(dir, &injector);
    if (!opened.ok()) {
      ASSERT_TRUE(Io::IsSimulatedCrash(opened))
          << "cut " << cut << ": " << opened.ToString();
    } else {
      std::ostringstream out;
      machine::CommandInterpreter interpreter(m.get(), &out);
      size_t line_index = 0;
      for (; line_index < std::size(kScriptLines); ++line_index) {
        const Status executed = interpreter.Execute(kScriptLines[line_index]);
        if (!executed.ok()) {
          ASSERT_TRUE(Io::IsSimulatedCrash(executed))
              << "cut " << cut << " line " << line_index << ": "
              << executed.ToString();
          break;
        }
      }
      first_failed = line_index + 1;  // 1-based over script lines
      if (line_index == std::size(kScriptLines)) {
        first_failed = std::size(kScriptLines) + 1;  // nothing failed
      }
    }
    CheckRecovery(fingerprints, first_failed, dir, cut);
    if (::testing::Test::HasFailure()) {
      FAIL() << "machine sweep failed at cut " << cut << " / " << total;
    }
  }
}

// ---------------------------------------------------------------------------
// S24 cross-session group commit: N sessions' commit groups sealed, then
// durably committed by ONE batched WAL append + fsync (exactly the leader's
// write path in server::SharedCatalog). Cutting every write unit of that
// batch must recover to a GROUP-BOUNDARY prefix — never a torn group — and
// an acknowledged batch must survive in full.

/// Three sessions' write sets, disjoint on relation names (the server's
/// first-committer-wins check guarantees batches look like this).
std::vector<std::vector<Op>> MixedBatchGroups() {
  const Schema narrow = rel::MakeIntSchema(1);
  const Schema wide = rel::MakeIntSchema(2);
  std::vector<std::vector<Op>> groups(3);
  groups[0].push_back([narrow](DurableCatalog* d) {
    return d->LogPut("sess1_x", Rel(narrow, {{1}, {2}, {3}}));
  });
  groups[0].push_back([wide](DurableCatalog* d) {
    return d->LogPut("sess1_y", Rel(wide, {{4, 40}}));
  });
  groups[1].push_back([](DurableCatalog* d) { return d->LogDrop("base"); });
  groups[1].push_back(
      [](DurableCatalog* d) { return d->LogPut("sess2_x", TrickyStrings()); });
  groups[2].push_back([narrow](DurableCatalog* d) {
    return d->LogPut("sess3_x", Rel(narrow, {{7}, {8}}));
  });
  return groups;
}

TEST_F(CrashDirFixture, MixedSessionCommitGroupRecoversToGroupBoundaryPrefix) {
  const Schema narrow = rel::MakeIntSchema(1);
  const std::vector<std::vector<Op>> groups = MixedBatchGroups();

  // Valid recovery states: empty catalog, the pre-batch base, and every
  // group-boundary prefix of the batch. Each computed by a clean run that
  // commits the first k groups individually (same catalog state the batched
  // append reaches at that boundary).
  std::vector<std::string> states;
  for (size_t k = 0; k <= groups.size(); ++k) {
    const std::string dir = Sub("oracle" + std::to_string(k));
    auto durable = DurableCatalog::Open(dir);
    ASSERT_OK(durable);
    if (k == 0) states.push_back(Fingerprint((*durable)->catalog()));
    ASSERT_STATUS_OK((*durable)->Put("base", Rel(narrow, {{100}})));
    for (size_t g = 0; g < k; ++g) {
      for (const Op& op : groups[g]) ASSERT_STATUS_OK(op(durable->get()));
      ASSERT_STATUS_OK((*durable)->SealStagedGroup());
      ASSERT_STATUS_OK((*durable)->CommitSealedGroups());
    }
    states.push_back(Fingerprint((*durable)->catalog()));
  }

  // The injected run: seal ALL groups, then one batched commit.
  const auto run = [&groups, narrow](DurableCatalog* d) -> Status {
    SYSTOLIC_RETURN_NOT_OK(d->Put("base", Rel(narrow, {{100}})));
    for (const std::vector<Op>& group : groups) {
      for (const Op& op : group) SYSTOLIC_RETURN_NOT_OK(op(d));
      SYSTOLIC_RETURN_NOT_OK(d->SealStagedGroup());
    }
    return d->CommitSealedGroups();
  };

  uint64_t total = 0;
  {
    CrashInjector probe(CrashInjector::kNoCrash);
    auto durable = DurableCatalog::Open(Sub("probe"), Io(&probe));
    ASSERT_OK(durable);
    ASSERT_STATUS_OK(run(durable->get()));
    total = probe.units_used();
  }
  ASSERT_GT(total, 0u);

  for (uint64_t cut = 0; cut <= total; ++cut) {
    const std::string dir = Sub("cut");
    std::filesystem::remove_all(dir);
    bool acknowledged = false;
    {
      CrashInjector injector(cut);
      auto durable = DurableCatalog::Open(dir, Io(&injector));
      if (!durable.ok()) {
        ASSERT_TRUE(Io::IsSimulatedCrash(durable.status()))
            << "cut " << cut << ": " << durable.status().ToString();
      } else {
        const Status ran = run(durable->get());
        if (ran.ok()) {
          acknowledged = true;
        } else {
          ASSERT_TRUE(Io::IsSimulatedCrash(ran))
              << "cut " << cut << ": " << ran.ToString();
        }
      }
    }
    auto recovered = DurableCatalog::Open(dir);
    ASSERT_OK(recovered) << "cut " << cut << " must recover";
    const std::string got = Fingerprint((*recovered)->catalog());
    if (acknowledged) {
      // One fsync acknowledged all three sessions: every group survives.
      EXPECT_EQ(got, states.back()) << "cut " << cut
                                    << ": acknowledged batch lost a group";
    } else {
      bool is_prefix = false;
      for (const std::string& state : states) is_prefix |= (got == state);
      EXPECT_TRUE(is_prefix)
          << "cut " << cut << " / " << total
          << ": recovery landed inside a commit group (torn batch)";
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "group-commit sweep failed at cut " << cut << " / " << total;
    }
  }
}

}  // namespace
}  // namespace durability
}  // namespace systolic
