// Unit tests for src/durability: CRC framing, WAL record codec, the crash
// injector's unit accounting, injectable IO, and the DurableCatalog
// lifecycle (commit groups, checkpoints, recovery, torn tails, stale logs).
// The exhaustive crash sweeps live in crash_recovery_fuzz_test.cc.

#include "durability/durable_catalog.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "durability/crash_plan.h"
#include "durability/io.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/storage.h"
#include "test_util.h"

namespace systolic {
namespace durability {
namespace {

using systolic::testing::Rel;

TEST(Crc32Test, MatchesKnownVectors) {
  // The IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(WalFrameTest, RoundTripsAndDetectsEveryTornPrefix) {
  std::string wal;
  AppendFrame(&wal, "first payload");
  AppendFrame(&wal, "second");
  const WalFrame first = ParseFrame(wal, 0);
  ASSERT_TRUE(first.complete);
  EXPECT_EQ(first.payload, "first payload");
  const WalFrame second = ParseFrame(wal, first.end);
  ASSERT_TRUE(second.complete);
  EXPECT_EQ(second.payload, "second");
  EXPECT_EQ(second.end, wal.size());

  // Every strict prefix of a single frame is torn, never misparsed.
  std::string one;
  AppendFrame(&one, "payload");
  for (size_t cut = 0; cut < one.size(); ++cut) {
    EXPECT_FALSE(ParseFrame(std::string_view(one).substr(0, cut), 0).complete)
        << "prefix of " << cut << " bytes";
  }
}

TEST(WalFrameTest, CorruptedByteFailsCrc) {
  std::string wal;
  AppendFrame(&wal, "payload bytes");
  wal[10] ^= 0x40;  // flip a payload bit
  EXPECT_FALSE(ParseFrame(wal, 0).complete);
}

TEST(WalHeaderTest, RoundTripsAndRejectsGarbage) {
  const std::string header = WalHeader(42);
  auto parsed = ParseWalHeader(header + "trailing");
  ASSERT_OK(parsed);
  EXPECT_EQ(parsed->first, 42u);
  EXPECT_EQ(parsed->second, header.size());
  EXPECT_FALSE(ParseWalHeader("SYSWAL2 42").ok());     // no newline
  EXPECT_FALSE(ParseWalHeader("NOTWAL 42\n").ok());    // wrong magic
  EXPECT_FALSE(ParseWalHeader("SYSWAL1 42\n").ok());   // the CSV-era magic
  EXPECT_FALSE(ParseWalHeader("SYSWAL2 -1\n").ok());   // bad id
  EXPECT_FALSE(ParseWalHeader("SYSW").ok());           // torn
}

TEST(WalRecordTest, DomainDropCommitRoundTrip) {
  auto domain = DecodeWalRecord(
      EncodeCreateDomain("Weird Name!", rel::ValueType::kString));
  ASSERT_OK(domain);
  EXPECT_EQ(domain->kind, WalRecord::Kind::kCreateDomain);
  EXPECT_EQ(domain->name, "Weird Name!");
  EXPECT_EQ(domain->type, rel::ValueType::kString);

  auto drop = DecodeWalRecord(EncodeDrop("r/1"));
  ASSERT_OK(drop);
  EXPECT_EQ(drop->kind, WalRecord::Kind::kDrop);
  EXPECT_EQ(drop->name, "r/1");

  auto commit = DecodeWalRecord(EncodeCommit(7));
  ASSERT_OK(commit);
  EXPECT_EQ(commit->kind, WalRecord::Kind::kCommit);
  EXPECT_EQ(commit->group_size, 7u);

  EXPECT_FALSE(DecodeWalRecord("frobnicate x\n").ok());
  EXPECT_FALSE(DecodeWalRecord("commit -3\n").ok());
  EXPECT_FALSE(DecodeWalRecord("").ok());
  // A malformed identifier escape is corruption like any other bad field.
  EXPECT_TRUE(DecodeWalRecord("drop r%zz\n").status().IsDataCorruption());
  EXPECT_TRUE(DecodeWalRecord("put p set\ncolumns a%:d:int64\ndata\na\n")
                  .status()
                  .IsDataCorruption());
}

rel::Relation StringRelation() {
  auto names = rel::Domain::Make("names", rel::ValueType::kString);
  auto ids = rel::Domain::Make("ids", rel::ValueType::kInt64);
  rel::RelationBuilder builder(
      rel::Schema({{"name", names}, {"id", ids}}));
  EXPECT_TRUE(builder.AddRow({rel::Value::String("a,b \"quoted\""),
                              rel::Value::Int64(1)}).ok());
  EXPECT_TRUE(builder.AddRow({rel::Value::String("line\nbreak"),
                              rel::Value::Int64(2)}).ok());
  return builder.Finish();
}

TEST(WalRecordTest, PutRoundTripsValuesThroughApply) {
  const rel::Relation original = StringRelation();
  auto payload = EncodePut("people", original);
  ASSERT_OK(payload);
  auto record = DecodeWalRecord(*payload);
  ASSERT_OK(record);
  EXPECT_EQ(record->kind, WalRecord::Kind::kPut);
  EXPECT_EQ(record->name, "people");
  ASSERT_EQ(record->columns.size(), 2u);
  EXPECT_EQ(record->columns[0].domain, "names");

  rel::Catalog catalog;
  ASSERT_STATUS_OK(ApplyWalRecord(*record, &catalog));
  auto applied = catalog.GetRelation("people");
  ASSERT_OK(applied);
  ASSERT_EQ((*applied)->num_tuples(), 2u);
  auto decoded = (*applied)->schema().column(0).domain->Decode(
      (*applied)->tuple(0)[0]);
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded->ToString(), "a,b \"quoted\"");
}

TEST(WalRecordTest, AppendValidatesTargetSchema) {
  rel::Catalog catalog;
  auto put = DecodeWalRecord(*EncodePut("people", StringRelation()));
  ASSERT_OK(put);
  ASSERT_STATUS_OK(ApplyWalRecord(*put, &catalog));

  // Appending to a missing relation fails.
  auto orphan = DecodeWalRecord(*EncodeAppend("ghost", StringRelation()));
  ASSERT_OK(orphan);
  EXPECT_TRUE(ApplyWalRecord(*orphan, &catalog).IsNotFound());

  // A good append lands.
  auto batch = DecodeWalRecord(*EncodeAppend("people", StringRelation()));
  ASSERT_OK(batch);
  ASSERT_STATUS_OK(ApplyWalRecord(*batch, &catalog));
  EXPECT_EQ((*catalog.GetRelation("people"))->num_tuples(), 4u);
}

TEST(CrashInjectorTest, CountsUnitsAndTearsWrites) {
  CrashInjector injector(10);
  EXPECT_EQ(injector.AdmitBytes(4), 4u);
  EXPECT_TRUE(injector.AdmitOp());
  EXPECT_FALSE(injector.crashed());
  // 5 units remain; an 8-byte write tears after 5.
  EXPECT_EQ(injector.AdmitBytes(8), 5u);
  EXPECT_TRUE(injector.crashed());
  EXPECT_FALSE(injector.AdmitOp());
  EXPECT_EQ(injector.AdmitBytes(1), 0u);
  EXPECT_EQ(injector.units_used(), 10u);

  CrashInjector probe(CrashInjector::kNoCrash);
  EXPECT_EQ(probe.AdmitBytes(1000), 1000u);
  EXPECT_TRUE(probe.AdmitOp());
  EXPECT_EQ(probe.units_used(), 1001u);
  EXPECT_FALSE(probe.crashed());
}

TEST(CrashInjectorTest, TransientCutFailsOnceThenRecovers) {
  CrashInjector injector(3, /*transient=*/true);
  EXPECT_EQ(injector.AdmitBytes(8), 3u);  // torn at the cut...
  EXPECT_FALSE(injector.crashed());       // ...but the process survives
  EXPECT_TRUE(injector.AdmitOp());        // and later IO succeeds
  EXPECT_EQ(injector.AdmitBytes(8), 8u);

  CrashInjector op_cut(0, /*transient=*/true);
  EXPECT_FALSE(op_cut.AdmitOp());  // the cut operation itself fails
  EXPECT_FALSE(op_cut.crashed());
  EXPECT_TRUE(op_cut.AdmitOp());
}

TEST(CrashPlanTest, CutsAreDeterministicAndInRange) {
  const CrashPlan plan(1234);
  for (uint64_t trial = 0; trial < 50; ++trial) {
    const uint64_t cut = plan.CutFor(trial, 100);
    EXPECT_LE(cut, 100u);
    EXPECT_EQ(cut, plan.CutFor(trial, 100)) << "same inputs, same cut";
  }
  EXPECT_NE(plan.CutFor(0, 1000), CrashPlan(1235).CutFor(0, 1000));
}

class DurabilityDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("systolic_durability_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  std::filesystem::path dir_;
};

TEST_F(DurabilityDirFixture, TornWriteLeavesAdmittedPrefix) {
  CrashInjector injector(4);
  const Io io(&injector);
  const std::string path = Dir() + "/file";
  ASSERT_STATUS_OK(Io().Mkdirs(Dir()));
  const Status torn = io.WriteFile(path, "0123456789");
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(Io::IsSimulatedCrash(torn));
  auto contents = Io::ReadFile(path);
  ASSERT_OK(contents);
  EXPECT_EQ(*contents, "0123");
  // Everything after the cut fails, including metadata ops.
  EXPECT_TRUE(Io::IsSimulatedCrash(io.Fsync(path)));
  EXPECT_TRUE(Io::IsSimulatedCrash(io.Rename(path, path + "2")));
}

TEST_F(DurabilityDirFixture, OpenCommitReopenRecovers) {
  const rel::Schema schema = rel::MakeIntSchema(2);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    EXPECT_EQ((*durable)->checkpoint_id(), 0u);
    EXPECT_EQ((*durable)->stats().recovered_records, 0u);
    ASSERT_STATUS_OK((*durable)->Put("r", Rel(schema, {{1, 2}, {3, 4}})));
    ASSERT_STATUS_OK((*durable)->Append("r", Rel(schema, {{5, 6}})));
    EXPECT_EQ((*durable)->stats().wal_records, 2u);
    EXPECT_EQ((*durable)->wal_live_records(), 2u);
  }
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->stats().recovered_records, 2u);
  auto r = (*reopened)->catalog().GetRelation("r");
  ASSERT_OK(r);
  EXPECT_EQ((*r)->num_tuples(), 3u);
  EXPECT_EQ((*r)->tuple(2), (rel::Tuple{5, 6}));
}

TEST_F(DurabilityDirFixture, CheckpointResetsWalAndSurvivesReopen) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("a", Rel(schema, {{1}})));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
    EXPECT_EQ((*durable)->checkpoint_id(), 1u);
    EXPECT_EQ((*durable)->wal_live_records(), 0u);
    ASSERT_STATUS_OK((*durable)->Put("b", Rel(schema, {{2}})));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
    EXPECT_EQ((*durable)->checkpoint_id(), 2u);
    EXPECT_EQ((*durable)->stats().checkpoints, 2u);
  }
  // Only the live checkpoint directory remains.
  EXPECT_FALSE(Io::Exists(Dir() + "/chk-1"));
  EXPECT_TRUE(Io::Exists(Dir() + "/chk-2"));
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->checkpoint_id(), 2u);
  EXPECT_EQ((*reopened)->stats().recovered_records, 0u)
      << "checkpointed state must not replay";
  EXPECT_TRUE((*reopened)->catalog().GetRelation("a").ok());
  EXPECT_TRUE((*reopened)->catalog().GetRelation("b").ok());
}

TEST_F(DurabilityDirFixture, GroupCommitIsAtomicAndAbortable) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  auto durable = DurableCatalog::Open(Dir());
  ASSERT_OK(durable);
  ASSERT_STATUS_OK((*durable)->LogPut("x", Rel(schema, {{1}})));
  ASSERT_STATUS_OK((*durable)->LogPut("y", Rel(schema, {{2}})));
  EXPECT_EQ((*durable)->staged_records(), 2u);
  // Staged but uncommitted: not visible, conveniences refuse, checkpoint
  // refuses.
  EXPECT_FALSE((*durable)->catalog().GetRelation("x").ok());
  EXPECT_TRUE((*durable)->Put("z", Rel(schema, {{3}})).IsInvalidArgument());
  EXPECT_TRUE((*durable)->Checkpoint().IsInvalidArgument());
  (*durable)->Abort();
  EXPECT_EQ((*durable)->staged_records(), 0u);
  ASSERT_STATUS_OK((*durable)->LogPut("x", Rel(schema, {{1}})));
  ASSERT_STATUS_OK((*durable)->LogDrop("x"));
  ASSERT_STATUS_OK((*durable)->Commit());
  EXPECT_FALSE((*durable)->catalog().GetRelation("x").ok());
  EXPECT_EQ((*durable)->stats().wal_records, 2u);
}

TEST_F(DurabilityDirFixture, LogValidationCatchesBadMutations) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  auto durable = DurableCatalog::Open(Dir());
  ASSERT_OK(durable);
  EXPECT_TRUE((*durable)->LogDrop("ghost").IsNotFound());
  EXPECT_TRUE((*durable)->LogAppend("ghost", Rel(schema, {{1}})).IsNotFound());
  EXPECT_TRUE((*durable)->LogPut("", Rel(schema, {{1}})).IsInvalidArgument());
  ASSERT_STATUS_OK((*durable)->Put("r", Rel(schema, {{1}})));
  // Arity mismatch against the live relation.
  EXPECT_TRUE((*durable)
                  ->LogAppend("r", Rel(rel::MakeIntSchema(2), {{1, 2}}))
                  .IsIncompatible());
  // Within a group, a drop hides the relation from later appends.
  ASSERT_STATUS_OK((*durable)->LogDrop("r"));
  EXPECT_TRUE((*durable)->LogAppend("r", Rel(schema, {{2}})).IsNotFound());
  (*durable)->Abort();
  // Domain name reuse at a different type is rejected ("r" lives over
  // MakeIntSchema's int64 domain "dom0").
  auto clashing = rel::Domain::Make("dom0", rel::ValueType::kString);
  rel::RelationBuilder builder(rel::Schema({{"s", clashing}}));
  ASSERT_STATUS_OK(builder.AddRow({rel::Value::String("v")}));
  EXPECT_TRUE((*durable)->LogPut("s", builder.Finish()).IsIncompatible());
}

TEST_F(DurabilityDirFixture, TransientCommitFailureRollsBackTheTornTail) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("good", Rel(schema, {{1}})));
  }
  auto before = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(before);
  // A survivable mid-append failure (a passing ENOSPC): the open consumes
  // one unit (mkdir), the commit's append tears after 10 bytes, and every
  // later IO call succeeds again.
  CrashInjector injector(1 + 10, /*transient=*/true);
  auto durable = DurableCatalog::Open(Dir(), Io(&injector));
  ASSERT_OK(durable);
  ASSERT_FALSE((*durable)->Put("more", Rel(schema, {{2}})).ok());
  // The torn frames were truncated away, so the WAL holds exactly the
  // acknowledged groups...
  auto rolled_back = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(rolled_back);
  EXPECT_EQ(*rolled_back, *before) << "failed commit must not leave a tail";
  // ...and the still-staged group retries cleanly.
  EXPECT_EQ((*durable)->staged_records(), 1u);
  ASSERT_STATUS_OK((*durable)->Commit());
  EXPECT_TRUE((*durable)->catalog().GetRelation("more").ok());
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_TRUE((*reopened)->catalog().GetRelation("good").ok());
  EXPECT_TRUE((*reopened)->catalog().GetRelation("more").ok());
}

TEST_F(DurabilityDirFixture, UntruncatableTornTailPoisonsTheCommitPath) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("good", Rel(schema, {{1}})));
  }
  auto before = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(before);
  // A hard cut mid-append: the rollback truncate fails too, so the WAL is
  // poisoned and no further commit may append past the torn bytes.
  CrashInjector injector(1 + 10);
  auto durable = DurableCatalog::Open(Dir(), Io(&injector));
  ASSERT_OK(durable);
  ASSERT_FALSE((*durable)->Put("more", Rel(schema, {{2}})).ok());
  const Status retry = (*durable)->Commit();
  ASSERT_FALSE(retry.ok());
  EXPECT_NE(retry.message().find("CHECKPOINT"), std::string::npos)
      << "a poisoned WAL must say how to repair it: " << retry.message();
  auto after = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(after);
  EXPECT_EQ(after->size(), before->size() + 10)
      << "only the first attempt's torn bytes; the retry appended nothing";
  EXPECT_EQ(after->substr(0, before->size()), *before);
  // Recovery truncates the torn tail and sees only the acknowledged state.
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_TRUE((*reopened)->catalog().GetRelation("good").ok());
  EXPECT_FALSE((*reopened)->catalog().GetRelation("more").ok());
  auto wal = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(wal);
  EXPECT_EQ(*wal, *before);
}

TEST_F(DurabilityDirFixture, StagedDomainsConstrainLaterGroupRecords) {
  auto durable = DurableCatalog::Open(Dir());
  ASSERT_OK(durable);
  ASSERT_STATUS_OK((*durable)->LogCreateDomain("d", rel::ValueType::kInt64));
  // A put reusing staged domain 'd' at another type must be rejected at
  // staging time — sealed, it would fail to apply at Commit and recovery.
  auto clash = rel::Domain::Make("d", rel::ValueType::kString);
  rel::RelationBuilder bad(rel::Schema({{"c", clash}}));
  ASSERT_STATUS_OK(bad.AddRow({rel::Value::String("v")}));
  EXPECT_TRUE((*durable)->LogPut("r", bad.Finish()).IsIncompatible());
  // The matching type stages fine.
  auto fresh = rel::Domain::Make("d", rel::ValueType::kInt64);
  rel::RelationBuilder good(rel::Schema({{"c", fresh}}));
  ASSERT_STATUS_OK(good.AddRow({rel::Value::Int64(7)}));
  ASSERT_STATUS_OK((*durable)->LogPut("r", good.Finish()));
  // Re-creating a domain a staged put implicitly carries is a duplicate —
  // "names" comes in via StringRelation's columns, not via LogCreateDomain.
  ASSERT_STATUS_OK((*durable)->LogPut("people", StringRelation()));
  EXPECT_TRUE((*durable)
                  ->LogCreateDomain("names", rel::ValueType::kBool)
                  .IsAlreadyExists());
  ASSERT_STATUS_OK((*durable)->Commit());
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_TRUE((*reopened)->catalog().GetRelation("r").ok());
}

TEST_F(DurabilityDirFixture, IntraRelationDomainClashRejectedAtStaging) {
  // Two fresh Domain objects sharing a name at different types: sealed,
  // ApplyWalRecord would hit a type conflict, so staging must refuse.
  auto ints = rel::Domain::Make("dup", rel::ValueType::kInt64);
  auto strings = rel::Domain::Make("dup", rel::ValueType::kString);
  rel::RelationBuilder builder(rel::Schema({{"a", ints}, {"b", strings}}));
  ASSERT_STATUS_OK(
      builder.AddRow({rel::Value::Int64(1), rel::Value::String("x")}));
  auto durable = DurableCatalog::Open(Dir());
  ASSERT_OK(durable);
  EXPECT_TRUE((*durable)->LogPut("r", builder.Finish()).IsIncompatible());
  EXPECT_EQ((*durable)->staged_records(), 0u);
}

TEST_F(DurabilityDirFixture, CheckpointRetryReclaimsLeftoverTargetDir) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  auto durable = DurableCatalog::Open(Dir());
  ASSERT_OK(durable);
  ASSERT_STATUS_OK((*durable)->Put("r", Rel(schema, {{1}})));
  ASSERT_STATUS_OK((*durable)->Checkpoint());
  // A prior chk-2 attempt that failed after its rename but before the
  // CURRENT flip leaves a fully-renamed directory; the retry must reclaim
  // the slot instead of wedging on a rename onto a non-empty target.
  ASSERT_STATUS_OK(Io().Mkdirs(Dir() + "/chk-2"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/chk-2/MANIFEST", "#stale"));
  ASSERT_STATUS_OK((*durable)->Checkpoint());
  EXPECT_EQ((*durable)->checkpoint_id(), 2u);
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->checkpoint_id(), 2u);
  EXPECT_TRUE((*reopened)->catalog().GetRelation("r").ok());
}

TEST_F(DurabilityDirFixture, NonCanonicalCurrentKeepsLiveCheckpoint) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("r", Rel(schema, {{1}})));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
  }
  // Externally edited CURRENT with a parseable but non-canonical name: the
  // literal token must protect the directory from garbage collection.
  ASSERT_STATUS_OK(Io().Rename(Dir() + "/chk-1", Dir() + "/chk-001"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/CURRENT", "chk-001\n"));
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_TRUE(Io::Exists(Dir() + "/chk-001"))
      << "GC must not delete the checkpoint CURRENT points at";
  EXPECT_TRUE((*reopened)->catalog().GetRelation("r").ok());
  // The next checkpoint re-canonicalizes, and the odd directory is collected
  // on the following open.
  ASSERT_STATUS_OK((*reopened)->Checkpoint());
  auto again = DurableCatalog::Open(Dir());
  ASSERT_OK(again);
  EXPECT_FALSE(Io::Exists(Dir() + "/chk-001"));
  EXPECT_TRUE((*again)->catalog().GetRelation("r").ok());
}

TEST_F(DurabilityDirFixture, TornWalTailIsTruncatedNotReplayed) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("good", Rel(schema, {{1}})));
  }
  // Simulate a crash mid-append: half a frame of a never-sealed group.
  auto before = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(before);
  std::string torn;
  AppendFrame(&torn, *EncodePut("half", Rel(schema, {{9}})));
  ASSERT_STATUS_OK(
      Io().AppendFile(Dir() + "/WAL", torn.substr(0, torn.size() / 2)));

  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_TRUE((*reopened)->catalog().GetRelation("good").ok());
  EXPECT_FALSE((*reopened)->catalog().GetRelation("half").ok());
  EXPECT_EQ((*reopened)->stats().recovered_records, 1u);
  auto after = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(after);
  EXPECT_EQ(*after, *before) << "torn tail must be truncated away";
}

TEST_F(DurabilityDirFixture, UnsealedGroupIsInvisibleAfterReopen) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("committed", Rel(schema, {{1}})));
  }
  // A complete, CRC-valid record frame with no commit marker — the crash
  // landed between the group's records and its seal.
  std::string unsealed;
  AppendFrame(&unsealed, *EncodePut("phantom", Rel(schema, {{2}})));
  ASSERT_STATUS_OK(Io().AppendFile(Dir() + "/WAL", unsealed));
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_TRUE((*reopened)->catalog().GetRelation("committed").ok());
  EXPECT_FALSE((*reopened)->catalog().GetRelation("phantom").ok())
      << "an unsealed group must never apply";
}

TEST_F(DurabilityDirFixture, StaleWalFromBeforeCheckpointIsDiscarded) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("keep", Rel(schema, {{1}})));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
  }
  // Model the crash window between the CURRENT flip and the WAL reset: an
  // old-id log with a sealed record that is already inside the checkpoint.
  std::string stale = WalHeader(0);
  AppendFrame(&stale, *EncodePut("keep", Rel(schema, {{1}})));
  AppendFrame(&stale, EncodeCommit(1));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/WAL", stale));
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->stats().recovered_records, 0u)
      << "a pre-checkpoint log must be discarded wholesale";
  EXPECT_TRUE((*reopened)->catalog().GetRelation("keep").ok());
  auto wal = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(wal);
  EXPECT_EQ(*wal, WalHeader(1)) << "the stale log must be reset";
}

/// Relative path -> contents of every file under `root`.
std::map<std::string, std::string> Tree(const std::string& root) {
  std::map<std::string, std::string> tree;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    tree[std::filesystem::relative(entry.path(), root).string()] =
        *Io::ReadFile(entry.path().string());
  }
  return tree;
}

TEST_F(DurabilityDirFixture, UnparseableWalHeaderFailsOpenAndKeepsTheLog) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("acked", Rel(schema, {{1}})));
  }
  auto wal = Io::ReadFile(Dir() + "/WAL");
  ASSERT_OK(wal);
  const std::string header = WalHeader(0);
  ASSERT_EQ(wal->substr(0, header.size()), header);
  const std::string frames = wal->substr(header.size());
  // The CSV-era magic, an unknown one, a bad id, a lost newline, plain
  // garbage and no header at all: each is refused, and the log holding the
  // acknowledged Put stays byte for byte, as does every other file.
  for (const std::string& bad_header :
       {std::string("SYSWAL1 0\n"), std::string("SYSWAL9 0\n"),
        std::string("SYSWAL2 x\n"), std::string("SYSWAL2 0"),
        std::string("\x00\x01garbage\n", 10), std::string()}) {
    ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/WAL", bad_header + frames));
    const auto before = Tree(Dir());
    auto reopened = DurableCatalog::Open(Dir());
    EXPECT_TRUE(reopened.status().IsDataCorruption())
        << bad_header << ": " << reopened.status().ToString();
    EXPECT_EQ(Tree(Dir()), before) << bad_header;
  }
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/WAL", *wal));
  auto restored = DurableCatalog::Open(Dir());
  ASSERT_OK(restored);
  EXPECT_TRUE((*restored)->catalog().GetRelation("acked").ok());
}

TEST_F(DurabilityDirFixture, CheckpointWithoutFormatEntryFailsOpenUntouched) {
  // A directory as a CSV-era build left it: a checkpoint whose MANIFEST has
  // no `format 2` entry and whose data files are CSV, a SYSWAL1 log, and
  // the tmp debris recovery would otherwise collect.
  ASSERT_STATUS_OK(Io().Mkdirs(Dir() + "/chk-1"));
  ASSERT_STATUS_OK(Io().WriteFile(
      Dir() + "/chk-1/MANIFEST",
      "# systolic-rdb catalog manifest\ndomain dom0 int64\n"
      "relation r set c0:dom0\n"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/chk-1/r.csv", "c0\n1\n"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/CURRENT", "chk-1\n"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/WAL", "SYSWAL1 1\n"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/CURRENT.tmp", "chk-2\n"));
  const auto before = Tree(Dir());
  auto opened = DurableCatalog::Open(Dir());
  EXPECT_TRUE(opened.status().IsDataCorruption())
      << opened.status().ToString();
  EXPECT_EQ(Tree(Dir()), before);
}

TEST_F(DurabilityDirFixture, RecoveryCollectsTmpAndOrphanCheckpoints) {
  const rel::Schema schema = rel::MakeIntSchema(1);
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("r", Rel(schema, {{1}})));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
  }
  // Debris a crash could leave: a half-written next checkpoint (renamed but
  // CURRENT never flipped) and assorted tmp files.
  ASSERT_STATUS_OK(Io().Mkdirs(Dir() + "/chk-2"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/chk-2/MANIFEST", "#"));
  ASSERT_STATUS_OK(Io().Mkdirs(Dir() + "/chk-3.tmp"));
  ASSERT_STATUS_OK(Io().WriteFile(Dir() + "/CURRENT.tmp", "chk-9\n"));
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->checkpoint_id(), 1u);
  EXPECT_FALSE(Io::Exists(Dir() + "/chk-2"));
  EXPECT_FALSE(Io::Exists(Dir() + "/chk-3.tmp"));
  EXPECT_FALSE(Io::Exists(Dir() + "/CURRENT.tmp"));
  // And the next checkpoint reuses the collected slot cleanly.
  ASSERT_STATUS_OK((*reopened)->Checkpoint());
  EXPECT_EQ((*reopened)->checkpoint_id(), 2u);
}

TEST_F(DurabilityDirFixture, StringValuesSurviveRecoveryAndCheckpoint) {
  {
    auto durable = DurableCatalog::Open(Dir());
    ASSERT_OK(durable);
    ASSERT_STATUS_OK((*durable)->Put("people", StringRelation()));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
    ASSERT_STATUS_OK((*durable)->Append("people", StringRelation()));
  }
  auto reopened = DurableCatalog::Open(Dir());
  ASSERT_OK(reopened);
  auto people = (*reopened)->catalog().GetRelation("people");
  ASSERT_OK(people);
  ASSERT_EQ((*people)->num_tuples(), 4u);
  auto v = (*people)->schema().column(0).domain->Decode((*people)->tuple(1)[0]);
  ASSERT_OK(v);
  EXPECT_EQ(v->ToString(), "line\nbreak");
}

}  // namespace
}  // namespace durability
}  // namespace systolic
