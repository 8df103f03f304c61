// Unit tests for the S24 concurrent session layer: fair-share admission,
// snapshot isolation over immutable catalog images, first-committer-wins
// conflict detection, cross-session group commit, the command surface
// (SET SESSION, EXPLAIN session line), and the length-framed socket
// protocol v2.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durability/durable_catalog.h"
#include "durability/io.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "server/protocol.h"
#include "server/reliable_client.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/session.h"
#include "server/shared_catalog.h"
#include "test_util.h"

namespace systolic {
namespace server {
namespace {

using rel::Schema;
using systolic::testing::DirectoryTree;
using systolic::testing::Rel;

// ---- FairScheduler --------------------------------------------------------

TEST(FairSchedulerTest, AdmitsUpToLimitThenBounces) {
  FairScheduler scheduler(/*max_concurrent=*/2, /*max_queued=*/0);
  auto t1 = scheduler.Admit(1);
  auto t2 = scheduler.Admit(2);
  ASSERT_OK(t1);
  ASSERT_OK(t2);
  // Queue capacity is zero, so a third Admit cannot wait.
  const auto t3 = scheduler.Admit(3);
  EXPECT_TRUE(t3.status().IsCapacity()) << t3.status().ToString();
  EXPECT_EQ(scheduler.stats().admitted, 2u);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(FairSchedulerTest, ReleaseHandsSlotToWaiter) {
  FairScheduler scheduler(/*max_concurrent=*/1, /*max_queued=*/4);
  auto held = scheduler.Admit(1);
  ASSERT_OK(held);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto ticket = scheduler.Admit(2);
    ASSERT_OK(ticket);
    admitted = true;
  });
  while (scheduler.queue_depth() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  held = AdmissionTicket();  // release the slot
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(FairSchedulerTest, RoundRobinServesQuietSessionBeforeBacklog) {
  FairScheduler scheduler(/*max_concurrent=*/1, /*max_queued=*/8);
  auto held = scheduler.Admit(99);
  ASSERT_OK(held);

  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  // Enqueue chatty session 1 twice, then quiet session 2 once — waiting for
  // the queue depth between spawns pins the arrival order.
  const int arrivals[] = {1, 1, 2};
  for (size_t i = 0; i < 3; ++i) {
    const int tag = static_cast<int>(i);
    const uint64_t session = static_cast<uint64_t>(arrivals[i]);
    waiters.emplace_back([&, tag, session] {
      auto ticket = scheduler.Admit(session);
      ASSERT_OK(ticket);
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    });
    while (scheduler.queue_depth() < i + 1) std::this_thread::yield();
  }
  held = AdmissionTicket();  // start the cascade
  for (std::thread& thread : waiters) thread.join();
  // Fair share: session 1's first request, then session 2 (round-robin),
  // then session 1's backlog — NOT strict FIFO (1, 1, 2).
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

// ---- SharedCatalog --------------------------------------------------------

TEST(SharedCatalogTest, SnapshotsAreImmutableAndVersioned) {
  SharedCatalog catalog;
  const Schema schema = rel::MakeIntSchema(1);
  ASSERT_STATUS_OK(catalog.Seed("r", Rel(schema, {{1}})));
  const auto before = catalog.Snapshot();
  EXPECT_EQ(before->version, 1u) << "seeded image is version 1, like Open";

  const rel::Relation next = Rel(schema, {{2}});
  const auto committed =
      catalog.CommitGroup(before->version, {{"r", &next}});
  ASSERT_OK(committed);
  EXPECT_EQ(committed->version, 2u);

  // The old pin still sees the seeded value; a fresh pin sees the commit.
  EXPECT_EQ(before->relations.at("r").relation->num_tuples(), 1u);
  const auto after = catalog.Snapshot();
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(after->relations.at("r").writer_version, 2u);
}

TEST(SharedCatalogTest, FirstCommitterWinsAbortsStaleWriter) {
  SharedCatalog catalog;
  const Schema schema = rel::MakeIntSchema(1);
  ASSERT_STATUS_OK(catalog.Seed("r", Rel(schema, {{1}})));
  const uint64_t stale = catalog.Snapshot()->version;

  const rel::Relation winner = Rel(schema, {{2}});
  ASSERT_OK(catalog.CommitGroup(stale, {{"r", &winner}}));

  const rel::Relation loser = Rel(schema, {{3}});
  const auto aborted = catalog.CommitGroup(stale, {{"r", &loser}});
  EXPECT_TRUE(aborted.status().IsAborted()) << aborted.status().ToString();
  EXPECT_NE(aborted.status().ToString().find("first committer wins"),
            std::string::npos);

  // Writes to OTHER names from the same stale snapshot still land.
  const rel::Relation other = Rel(schema, {{4}});
  ASSERT_OK(catalog.CommitGroup(stale, {{"s", &other}}));

  const GroupCommitStats stats = catalog.stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_EQ(catalog.Snapshot()->relations.at("r").relation->num_tuples(), 1u);
}

TEST(SharedCatalogTest, ConcurrentCommitsBatchAndStayConsistent) {
  SharedCatalog catalog;
  const Schema schema = rel::MakeIntSchema(1);
  constexpr size_t kThreads = 8;
  std::vector<rel::Relation> payloads;
  for (size_t i = 0; i < kThreads; ++i) {
    payloads.push_back(Rel(schema, {{static_cast<int64_t>(i)}}));
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Disjoint names: every group must be acknowledged.
      const std::string name = "t" + std::to_string(i);
      const auto result =
          catalog.CommitGroup(catalog.Snapshot()->version,
                              {{name, &payloads[i]}});
      EXPECT_OK(result);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const GroupCommitStats stats = catalog.stats();
  EXPECT_EQ(stats.commits, kThreads);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, kThreads);
  // The histogram accounts for every commit.
  size_t histogram_commits = 0;
  for (const auto& [size, count] : stats.batch_size_histogram) {
    histogram_commits += size * count;
  }
  EXPECT_EQ(histogram_commits, kThreads);
  EXPECT_EQ(catalog.Snapshot()->relations.size(), kThreads);
}

TEST(SharedCatalogTest, DurableCatalogRecoversCommittedGroups) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "systolic_server_test_durable")
          .string();
  std::filesystem::remove_all(dir);
  const Schema schema = rel::MakeIntSchema(1);
  {
    auto opened = SharedCatalog::Open(dir);
    ASSERT_OK(opened);
    SharedCatalog& catalog = **opened;
    const rel::Relation a = Rel(schema, {{1}, {2}});
    const rel::Relation b = Rel(schema, {{3}});
    ASSERT_OK(catalog.CommitGroup(catalog.Snapshot()->version, {{"a", &a}}));
    ASSERT_OK(catalog.CommitGroup(catalog.Snapshot()->version, {{"b", &b}}));
    EXPECT_GT(catalog.durability_stats().wal_records, 0u);
  }
  {
    auto reopened = SharedCatalog::Open(dir);
    ASSERT_OK(reopened);
    const auto snapshot = (*reopened)->Snapshot();
    ASSERT_EQ(snapshot->relations.count("a"), 1u);
    ASSERT_EQ(snapshot->relations.count("b"), 1u);
    EXPECT_EQ(snapshot->relations.at("a").relation->num_tuples(), 2u);
    // Recovered relations belong to pre-history: they conflict with nobody.
    EXPECT_EQ(snapshot->relations.at("a").writer_version, 0u);
  }
  std::filesystem::remove_all(dir);
}

// ---- Sessions on a server -------------------------------------------------

ServerConfig TestConfig(size_t num_chips = 2) {
  ServerConfig config;
  config.machine.num_memories = 12;
  config.num_chips = num_chips;
  return config;
}

void SeedDemo(Server* server) {
  const Schema schema = rel::MakeIntSchema(2);
  ASSERT_STATUS_OK(server->catalog().Seed(
      "A", Rel(schema, {{1, 10}, {2, 20}, {3, 30}})));
  ASSERT_STATUS_OK(server->catalog().Seed("B", Rel(schema, {{2, 20}, {4, 40}})));
}

TEST(ServerTest, StoreInOneSessionVisibleToAnother) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);

  auto s1 = server.Connect();
  auto s2 = server.Connect();
  ASSERT_OK(s1);
  ASSERT_OK(s2);

  ASSERT_OK((*s1)->Execute("LOAD A"));
  ASSERT_OK((*s1)->Execute("LOAD B"));
  ASSERT_OK((*s1)->Execute("INTERSECT A B -> I"));
  ASSERT_OK((*s1)->Execute("STORE I AS shared_i"));

  // Session 2 re-pins the newest image on its next command.
  ASSERT_OK((*s2)->Execute("LOAD shared_i"));
  const auto printed = (*s2)->Execute("PRINT shared_i");
  ASSERT_OK(printed);
  EXPECT_NE(printed->find("(2, 20)"), std::string::npos) << *printed;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_admitted, 2u);
  EXPECT_GE(stats.group_commit.commits, 1u);
}

TEST(ServerTest, TransactionsReadFrozenSnapshotAndConflictOnCommit) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);

  auto s1 = server.Connect();
  auto s2 = server.Connect();
  ASSERT_OK(s1);
  ASSERT_OK(s2);

  // Both sessions open transactions against the same snapshot and produce a
  // sink named `result` (COMMIT persists sink outputs through the shared
  // pipeline); the second COMMIT must lose first-committer-wins.
  ASSERT_OK((*s1)->Execute("BEGIN"));
  ASSERT_OK((*s1)->Execute("LOAD A"));
  ASSERT_OK((*s1)->Execute("DEDUP A -> result"));

  ASSERT_OK((*s2)->Execute("BEGIN"));
  ASSERT_OK((*s2)->Execute("LOAD B"));
  ASSERT_OK((*s2)->Execute("DEDUP B -> result"));

  ASSERT_OK((*s1)->Execute("COMMIT"));
  const auto conflicted = (*s2)->Execute("COMMIT");
  EXPECT_TRUE(conflicted.status().IsAborted())
      << conflicted.status().ToString();

  // The winner's rows (relation A: 3 tuples) are what everyone reads now.
  auto s3 = server.Connect();
  ASSERT_OK(s3);
  ASSERT_OK((*s3)->Execute("LOAD result"));
  const auto printed = (*s3)->Execute("PRINT result");
  ASSERT_OK(printed);
  EXPECT_NE(printed->find("(1, 10)"), std::string::npos) << *printed;
  EXPECT_EQ(server.stats().group_commit.conflicts, 1u);
}

TEST(ServerTest, SnapshotReadsAreRepeatableInsideTransaction) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);

  auto reader = server.Connect();
  auto writer = server.Connect();
  ASSERT_OK(reader);
  ASSERT_OK(writer);

  ASSERT_OK((*reader)->Execute("BEGIN"));
  ASSERT_OK((*reader)->Execute("LOAD A"));
  const uint64_t pinned = (*reader)->snapshot_version();

  // A commits while the reader's transaction is open.
  ASSERT_OK((*writer)->Execute("LOAD B"));
  ASSERT_OK((*writer)->Execute("STORE B AS fresh"));

  // Still pinned: the reader's snapshot does not advance mid-transaction.
  ASSERT_OK((*reader)->Execute("DEDUP A -> D"));
  EXPECT_EQ((*reader)->snapshot_version(), pinned);
  ASSERT_OK((*reader)->Execute("COMMIT"));

  // After the transaction the next command re-pins and sees `fresh`.
  ASSERT_OK((*reader)->Execute("LOAD fresh"));
  EXPECT_GT((*reader)->snapshot_version(), pinned);
}

TEST(ServerTest, SessionCapacityBouncesConnections) {
  ServerConfig config = TestConfig(1);
  config.max_sessions = 1;
  auto created = Server::Create(std::move(config));
  ASSERT_OK(created);
  Server& server = **created;

  auto s1 = server.Connect();
  ASSERT_OK(s1);
  const auto s2 = server.Connect();
  EXPECT_TRUE(s2.status().IsCapacity()) << s2.status().ToString();
  EXPECT_EQ(server.stats().sessions_rejected, 1u);

  // Disconnect frees the slot.
  server.Disconnect((*s1)->id());
  EXPECT_OK(server.Connect());
}

// ---- Command surface ------------------------------------------------------

TEST(ServerTest, ExplainSurfacesSessionIdAndIsolation) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);

  auto session = server.Connect();
  ASSERT_OK(session);
  ASSERT_OK((*session)->Execute("LOAD A"));
  ASSERT_OK((*session)->Execute("LOAD B"));
  const auto explained = (*session)->Execute("EXPLAIN INTERSECT A B -> I");
  ASSERT_OK(explained);
  // Only the session's own state: a live admission-queue depth would make
  // the transcript depend on what other sessions are doing.
  EXPECT_NE(explained->find("-- session: id 1, isolation snapshot\n"),
            std::string::npos)
      << *explained;

  const auto help = (*session)->Execute("HELP");
  ASSERT_OK(help);
  EXPECT_NE(help->find("SET SESSION ISOLATION snapshot"), std::string::npos)
      << *help;
  EXPECT_NE(help->find("-- session: id 1"), std::string::npos) << *help;
}

TEST(ServerTest, SetSessionValidatesKeysAndValues) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;

  auto session = server.Connect();
  ASSERT_OK(session);
  EXPECT_OK((*session)->Execute("SET SESSION ISOLATION snapshot"));

  const auto unknown = (*session)->Execute("SET SESSION RETRIES 3");
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().ToString().find("valid keys: ISOLATION"),
            std::string::npos)
      << unknown.status().ToString();

  const auto bad_value = (*session)->Execute("SET SESSION ISOLATION dirty");
  EXPECT_TRUE(bad_value.status().IsInvalidArgument())
      << bad_value.status().ToString();
}

TEST(ServerTest, SessionSettingsAreScopedPerSession) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);

  auto s1 = server.Connect();
  auto s2 = server.Connect();
  ASSERT_OK(s1);
  ASSERT_OK(s2);

  ASSERT_OK((*s1)->Execute("SET BACKEND fast"));
  // Session 1's EXPLAIN reports its fast backend; session 2, untouched,
  // stays on the default rtl backend (whose EXPLAIN prints no backend line).
  ASSERT_OK((*s1)->Execute("LOAD A"));
  ASSERT_OK((*s1)->Execute("LOAD B"));
  const auto fast = (*s1)->Execute("EXPLAIN INTERSECT A B -> I");
  ASSERT_OK(fast);
  EXPECT_NE(fast->find("backend: fast"), std::string::npos) << *fast;

  ASSERT_OK((*s2)->Execute("LOAD A"));
  ASSERT_OK((*s2)->Execute("LOAD B"));
  const auto rtl = (*s2)->Execute("EXPLAIN INTERSECT A B -> I");
  ASSERT_OK(rtl);
  EXPECT_EQ(rtl->find("backend: fast"), std::string::npos) << *rtl;
}

// ---- One durable write path -----------------------------------------------

TEST(ServerTest, SessionCannotOpenOrCheckpointAHostDirectory) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "systolic_server_test_host")
          .string();
  std::filesystem::remove_all(dir);
  {
    // A durable directory on the server host: a relation of its own, and
    // debris that an OPEN's recovery would collect.
    auto durable = durability::DurableCatalog::Open(dir);
    ASSERT_OK(durable);
    ASSERT_STATUS_OK(
        (*durable)->Put("host_only", Rel(rel::MakeIntSchema(1), {{7}})));
    ASSERT_STATUS_OK((*durable)->Checkpoint());
  }
  ASSERT_STATUS_OK(durability::Io().WriteFile(dir + "/notes.tmp", "keep"));
  ASSERT_STATUS_OK(durability::Io().Mkdirs(dir + "/chk-7"));
  ASSERT_STATUS_OK(durability::Io().WriteFile(dir + "/chk-7/MANIFEST", "#"));
  const auto before = DirectoryTree(dir);

  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);
  auto session = server.Connect();
  ASSERT_OK(session);
  uint64_t id = 0;
  const auto run = [&](const std::string& line) -> std::string {
    auto outcome = (*session)->ExecuteRequest(++id, line);
    EXPECT_OK(outcome);
    return outcome.ok() ? outcome->payload : "";
  };
  EXPECT_EQ(run("OPEN " + dir).rfind("ERR ", 0), 0u);
  EXPECT_EQ(run("CHECKPOINT").rfind("ERR ", 0), 0u);
  EXPECT_EQ(DirectoryTree(dir), before)
      << "a session must leave the host's directory byte for byte";
  EXPECT_EQ((*session)->machine().durable(), nullptr);
  // The session's disk unit still holds only what its snapshot faults in.
  EXPECT_EQ(run("LOAD host_only").rfind("ERR ", 0), 0u);
  EXPECT_EQ(run("LOAD A").rfind("OK\n", 0), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, InProcessRetriesCountAsDedups) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "systolic_server_test_dedup")
          .string();
  std::filesystem::remove_all(dir);
  ServerConfig config = TestConfig();
  config.durable_dir = dir;
  std::string token;
  {
    auto created = Server::Create(config);
    ASSERT_OK(created);
    SeedDemo(created->get());
    auto session = (*created)->Connect();
    ASSERT_OK(session);
    token = (*session)->token();
    auto loaded = (*session)->ExecuteRequest(1, "LOAD A");
    ASSERT_OK(loaded);
    auto replayed = (*session)->ExecuteRequest(1, "LOAD A");
    ASSERT_OK(replayed);
    auto stored = (*session)->ExecuteRequest(2, "STORE A AS kept");
    ASSERT_OK(stored);
    ASSERT_EQ(stored->payload.rfind("OK\n", 0), 0u) << stored->payload;
    EXPECT_EQ((*created)->stats().replies_from_cache, 1u);
    EXPECT_EQ((*created)->stats().recovered_dedups, 0u);
  }
  // The next incarnation resumes the token from its WAL ack: the retried
  // STORE is answered "already committed", and counted, without a wire.
  config.boot_id = 2;
  auto created = Server::Create(config);
  ASSERT_OK(created);
  SeedDemo(created->get());
  auto resumed = (*created)->Resume(token);
  ASSERT_OK(resumed);
  auto retried = (*resumed)->ExecuteRequest(2, "STORE A AS kept");
  ASSERT_OK(retried);
  EXPECT_TRUE(retried->recovered_dedup) << retried->payload;
  const ServerStats stats = (*created)->stats();
  EXPECT_EQ(stats.recovered_dedups, 1u);
  EXPECT_EQ(stats.replies_from_cache, 0u);
  EXPECT_EQ(stats.sessions_resumed, 1u);
  EXPECT_EQ(stats.group_commit.commits, 0u);
  std::filesystem::remove_all(dir);
}

// ---- Zero-copy relation hand-offs -----------------------------------------

// Relations are copy-on-write, so a LOAD, a STORE and crash recovery hand a
// relation on without copying its tuples. These tests pin that by address:
// a deep copy on any of the paths fails here instead of silently doubling
// what every session holds.

const rel::Code* DataOf(const rel::Relation& r) { return r.codes().data(); }

const rel::Code* BufferData(Session& session, const std::string& name) {
  const auto buffer = session.machine().Buffer(name);
  EXPECT_OK(buffer);
  return buffer.ok() ? DataOf(**buffer) : nullptr;
}

const rel::Code* ImageData(Server& server, const std::string& name) {
  return DataOf(*server.catalog().Snapshot()->relations.at(name).relation);
}

TEST(ZeroCopyTest, LoadSharesThePinnedImage) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);
  auto s1 = server.Connect();
  auto s2 = server.Connect();
  ASSERT_OK(s1);
  ASSERT_OK(s2);
  ASSERT_OK((*s1)->Execute("LOAD A"));
  ASSERT_OK((*s2)->Execute("LOAD A"));
  EXPECT_EQ(BufferData(**s1, "A"), ImageData(server, "A"));
  EXPECT_EQ(BufferData(**s2, "A"), ImageData(server, "A"));
}

TEST(ZeroCopyTest, StoreSharesTheBufferWithTheNextImage) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);
  auto writer = server.Connect();
  auto reader = server.Connect();
  ASSERT_OK(writer);
  ASSERT_OK(reader);
  ASSERT_OK((*writer)->Execute("LOAD A"));
  ASSERT_OK((*writer)->Execute("LOAD B"));
  ASSERT_OK((*writer)->Execute("INTERSECT A B -> I"));
  ASSERT_OK((*writer)->Execute("STORE I AS shared_i"));
  EXPECT_EQ(ImageData(server, "shared_i"), BufferData(**writer, "I"));
  ASSERT_OK((*reader)->Execute("LOAD shared_i"));
  EXPECT_EQ(BufferData(**reader, "shared_i"), BufferData(**writer, "I"));
}

TEST(ZeroCopyTest, RecoveredCatalogIsSharedByImageAndSessions) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "systolic_server_zero_copy")
          .string();
  std::filesystem::remove_all(dir);
  {
    auto opened = SharedCatalog::Open(dir);
    ASSERT_OK(opened);
    const rel::Relation r = Rel(rel::MakeIntSchema(2), {{1, 2}, {3, 4}});
    ASSERT_OK((*opened)->CommitGroup((*opened)->Snapshot()->version,
                                     {{"r", &r}}));
  }
  {
    ServerConfig config = TestConfig();
    config.durable_dir = dir;
    auto created = Server::Create(std::move(config));
    ASSERT_OK(created);
    Server& server = **created;
    auto s1 = server.Connect();
    auto s2 = server.Connect();
    ASSERT_OK(s1);
    ASSERT_OK(s2);
    ASSERT_OK((*s1)->Execute("LOAD r"));
    ASSERT_OK((*s2)->Execute("LOAD r"));
    // Open built the image from the recovered catalog without copying.
    const auto recovered =
        server.catalog().durable_catalog()->catalog().GetRelation("r");
    ASSERT_OK(recovered);
    EXPECT_EQ((*recovered)->num_tuples(), 2u);
    EXPECT_EQ(ImageData(server, "r"), DataOf(**recovered));
    EXPECT_EQ(BufferData(**s1, "r"), ImageData(server, "r"));
    EXPECT_EQ(BufferData(**s2, "r"), ImageData(server, "r"));
  }
  std::filesystem::remove_all(dir);
}

TEST(ZeroCopyTest, DurableCommitSharesTheImageCodes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "systolic_server_one_copy")
          .string();
  std::filesystem::remove_all(dir);
  const rel::Relation ints = Rel(rel::MakeIntSchema(2), {{1, 2}, {3, 4}});
  // A dictionary column whose session codes differ from the durable
  // catalog's: "b" is code 1 here, and code 0 in the durable catalog's
  // fresh domain, which sees it first.
  const auto words = rel::Domain::Make("word", rel::ValueType::kString);
  ASSERT_OK(words->Encode(rel::Value::String("a")));
  rel::RelationBuilder builder(rel::Schema({{"w", words}}));
  ASSERT_STATUS_OK(builder.AddRow({rel::Value::String("b")}));
  const rel::Relation strings = builder.Finish();
  {
    auto opened = SharedCatalog::Open(dir);
    ASSERT_OK(opened);
    SharedCatalog& catalog = **opened;
    ASSERT_OK(catalog.CommitGroup(catalog.Snapshot()->version,
                                  {{"ints", &ints}, {"strings", &strings}}));
    const auto image = catalog.Snapshot();
    const rel::Catalog& durable = catalog.durable_catalog()->catalog();
    // The durable catalog decoded the put and kept the committed codes.
    const auto durable_ints = durable.GetRelation("ints");
    ASSERT_OK(durable_ints);
    EXPECT_EQ(DataOf(**durable_ints),
              DataOf(*image->relations.at("ints").relation));
    EXPECT_EQ(DataOf(**durable_ints), DataOf(ints));
    // Different codes for the same values: the decoded copy stays.
    const auto durable_strings = durable.GetRelation("strings");
    ASSERT_OK(durable_strings);
    EXPECT_NE(DataOf(**durable_strings), DataOf(strings));
    EXPECT_EQ((*durable_strings)->ToString(), strings.ToString());
  }
  auto reopened = SharedCatalog::Open(dir);
  ASSERT_OK(reopened);
  const rel::Catalog& recovered = (*reopened)->durable_catalog()->catalog();
  const auto recovered_ints = recovered.GetRelation("ints");
  ASSERT_OK(recovered_ints);
  EXPECT_EQ((*recovered_ints)->tuples(), ints.tuples());
  const auto recovered_strings = recovered.GetRelation("strings");
  ASSERT_OK(recovered_strings);
  EXPECT_EQ((*recovered_strings)->ToString(), strings.ToString());
  std::filesystem::remove_all(dir);
}

// ---- Socket protocol ------------------------------------------------------

// One frame out and its reply back, parsed: a bare protocol-v2 exchange with
// no retry in between, so the test sees exactly what the server answered.
Result<Client::Reply> Exchange(Wire& wire, const std::string& frame) {
  SYSTOLIC_RETURN_NOT_OK(WriteFrame(wire, frame, 5'000));
  bool clean_eof = false;
  SYSTOLIC_ASSIGN_OR_RETURN(const std::string payload,
                            ReadFrame(wire, &clean_eof, 5'000, 5'000));
  return ParseReplyPayload(payload);
}

// A ReliableClient that never retries, so a reconnect cannot hide a failure
// the test exists to see.
Result<ReliableClient> DialOnce(uint16_t port) {
  ReliableClientOptions options;
  options.port = port;
  options.io_timeout_ms = 5'000;
  options.max_attempts = 1;
  return ReliableClient::Connect(std::move(options));
}

TEST(ServerTest, SocketRoundTripAndShutdown) {
  auto created = Server::Create(TestConfig());
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);
  ASSERT_STATUS_OK(server.Listen(0));
  std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });

  {
    auto wire = PosixWire::Dial(server.port());
    ASSERT_OK(wire);
    auto hello = Exchange(**wire, EncodeHello(""));
    ASSERT_OK(hello);
    EXPECT_TRUE(hello->ok) << hello->error;
    auto loaded = Exchange(**wire, EncodeRequest(1, "LOAD A"));
    ASSERT_OK(loaded);
    EXPECT_TRUE(loaded->ok) << loaded->error;
    EXPECT_NE(loaded->output.find("loaded A"), std::string::npos)
        << loaded->output;

    // Errors relay the status text and any partial output.
    auto missing = Exchange(**wire, EncodeRequest(2, "PRINT nothing"));
    ASSERT_OK(missing);
    EXPECT_FALSE(missing->ok);
    EXPECT_NE(missing->error.find("not-found"), std::string::npos)
        << missing->error;

    auto stopped = Exchange(**wire, "SHUTDOWN");
    ASSERT_OK(stopped);
    EXPECT_TRUE(stopped->ok);
  }
  serving.join();
}

// ---- Protocol robustness (S26) --------------------------------------------
// Malformed frames, oversized replies, and stalled clients must never take
// the server down or hang the well-behaved peers.

void SendAll(Wire& wire, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    auto sent = wire.Send(bytes.data() + done, bytes.size() - done, 2'000);
    ASSERT_OK(sent);
    done += *sent;
  }
}

// A served Server on an ephemeral port, shut down on scope exit.
struct ServedServer {
  explicit ServedServer(ServerConfig config) {
    auto created = Server::Create(std::move(config));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    server = std::move(*created);
    SeedDemo(server.get());
    EXPECT_TRUE(server->Listen(0).ok());
    serving = std::thread([this] { EXPECT_TRUE(server->Serve().ok()); });
  }
  ~ServedServer() {
    server->RequestShutdown();
    serving.join();
  }
  std::unique_ptr<Server> server;
  std::thread serving;
};

TEST(ProtocolRobustness, OverLimitFrameLengthGetsCleanErrorNotServerDeath) {
  ServedServer served(TestConfig());

  // An HTTP request line read as a length header claims ~0.8 GB — far over
  // kMaxFrameBytes, and the stream cannot be resynchronised.
  auto wire = PosixWire::Dial(served.server->port());
  ASSERT_OK(wire);
  SendAll(**wire, "GET / HTTP/1.1\r\n\r\n");
  bool clean_eof = false;
  auto verdict = ReadFrame(**wire, &clean_eof, 5'000, 5'000);
  ASSERT_OK(verdict);
  EXPECT_EQ(verdict->rfind("ERR data-corruption", 0), 0u) << *verdict;
  EXPECT_NE(verdict->find("frame length"), std::string::npos) << *verdict;
  (*wire)->Close();

  // The offending connection died alone: a fresh client still gets service.
  auto client = DialOnce(served.server->port());
  ASSERT_OK(client);
  auto loaded = client->Execute("LOAD A");
  ASSERT_OK(loaded);
  EXPECT_TRUE(loaded->ok) << loaded->error;
}

/// Hands out `bytes` at most `chunk` per Recv, then a clean end of stream,
/// and records the largest read the caller asks for after the 4-byte
/// frame header: the most payload buffer it could be filling at once.
class ScriptedWire final : public Wire {
 public:
  ScriptedWire(std::string bytes, size_t chunk)
      : bytes_(std::move(bytes)), chunk_(chunk) {}

  Result<size_t> Send(const char*, size_t size, int) override { return size; }
  Result<size_t> Recv(char* data, size_t size, int) override {
    if (read_ >= 4) largest_payload_read = std::max(largest_payload_read, size);
    const size_t n = std::min({size, chunk_, bytes_.size() - read_});
    std::memcpy(data, bytes_.data() + read_, n);
    read_ += n;
    return n;
  }
  void ShutdownBoth() override {}
  void Close() override {}

  size_t largest_payload_read = 0;

 private:
  std::string bytes_;
  size_t chunk_;
  size_t read_ = 0;
};

std::string LengthHeader(uint32_t length) {
  std::string header(4, '\0');
  for (size_t i = 0; i < 4; ++i) {
    header[i] = static_cast<char>(length >> (8 * i) & 0xff);
  }
  return header;
}

TEST(ProtocolRobustness, HeaderAloneDoesNotPinTheClaimedPayload) {
  // A peer sends the header of a kMaxFrameBytes frame and nothing more:
  // the reader asks for the payload in chunks it grows as bytes arrive, so
  // the buffer it waits on stays under 1 MiB, and the torn frame is an
  // IOError, not a clean end of stream.
  ScriptedWire wire(LengthHeader(kMaxFrameBytes), 4);
  bool clean_eof = false;
  const Result<std::string> frame = ReadFrame(wire, &clean_eof);
  EXPECT_TRUE(frame.status().IsIOError()) << frame.status().ToString();
  EXPECT_FALSE(clean_eof);
  EXPECT_GT(wire.largest_payload_read, 0u);
  EXPECT_LT(wire.largest_payload_read, size_t{1} << 20);
}

TEST(ProtocolRobustness, FullSizeFrameReadsBackByteForByte) {
  std::string payload(kMaxFrameBytes, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + i / 65536);
  }
  ScriptedWire wire(LengthHeader(kMaxFrameBytes) + payload +
                        LengthHeader(kMaxFrameBytes + 1),
                    1 << 20);
  bool clean_eof = false;
  const Result<std::string> frame = ReadFrame(wire, &clean_eof);
  ASSERT_OK(frame);
  EXPECT_TRUE(*frame == payload);
  // An over-limit length is DataCorruption; then the stream ends cleanly.
  EXPECT_TRUE(ReadFrame(wire, &clean_eof).status().IsDataCorruption());
  EXPECT_FALSE(clean_eof);
  EXPECT_TRUE(ReadFrame(wire, &clean_eof).status().IsNotFound());
  EXPECT_TRUE(clean_eof);
}

TEST(ProtocolRobustness, TruncatedPayloadDropsConnectionNotServer) {
  ServedServer served(TestConfig());

  {
    // Header promises 64 payload bytes; the peer sends 8 and vanishes.
    auto wire = PosixWire::Dial(served.server->port());
    ASSERT_OK(wire);
    const uint32_t claimed = 64;
    std::string torn(reinterpret_cast<const char*>(&claimed), 4);
    torn += "LOAD A\n\n";
    SendAll(**wire, torn);
    (*wire)->Close();
  }

  auto client = DialOnce(served.server->port());
  ASSERT_OK(client);
  auto loaded = client->Execute("LOAD A");
  ASSERT_OK(loaded);
  EXPECT_TRUE(loaded->ok) << loaded->error;
}

TEST(ProtocolRobustness, NonHelloFirstFrameIsRefusedCleanly) {
  ServedServer served(TestConfig());
  const size_t admitted = served.server->stats().sessions_admitted;

  // A bare command and a bare control line as the first frame: each gets
  // one ERR frame and a close, and neither admits a session or stops the
  // server.
  for (const char* first : {"LOAD A", "SHUTDOWN"}) {
    SCOPED_TRACE(first);
    auto wire = PosixWire::Dial(served.server->port());
    ASSERT_OK(wire);
    auto refused = Exchange(**wire, first);
    ASSERT_OK(refused);
    EXPECT_FALSE(refused->ok);
    EXPECT_EQ(refused->error.rfind("invalid-argument", 0), 0u)
        << refused->error;
    EXPECT_EQ(refused->output, "");
    bool clean_eof = false;
    auto after = ReadFrame(**wire, &clean_eof, 5'000, 5'000);
    EXPECT_FALSE(after.ok());
    EXPECT_TRUE(clean_eof) << after.status().ToString();
    (*wire)->Close();
  }
  EXPECT_EQ(served.server->stats().sessions_admitted, admitted);

  auto client = DialOnce(served.server->port());
  ASSERT_OK(client);
  auto loaded = client->Execute("LOAD A");
  ASSERT_OK(loaded);
  EXPECT_TRUE(loaded->ok) << loaded->error;
}

TEST(ProtocolRobustness, MalformedReplyVerdictIsDataCorruptionNotHang) {
  // The parser itself.
  auto ok = ParseReplyPayload("OK\nout\n");
  ASSERT_OK(ok);
  EXPECT_TRUE(ok->ok);
  EXPECT_EQ(ok->output, "out\n");
  auto err = ParseReplyPayload("ERR capacity: full\npartial\n");
  ASSERT_OK(err);
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error, "capacity: full");
  auto bogus = ParseReplyPayload("WHAT\nnot a verdict\n");
  ASSERT_FALSE(bogus.ok());
  EXPECT_TRUE(bogus.status().IsDataCorruption()) << bogus.status().ToString();

  // End to end: a fake server that acks the HELLO and answers the request
  // with garbage must surface as DataCorruption from Execute, not a hang or
  // a crash.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  std::thread fake([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) {
      PosixWire wire(fd);
      bool clean_eof = false;
      (void)ReadFrame(wire, &clean_eof, 5'000, 5'000);  // HELLO v2
      (void)WriteFrame(wire, "OK\ntoken fake last 0\n", 5'000);
      (void)ReadFrame(wire, &clean_eof, 5'000, 5'000);  // REQ 1
      (void)WriteFrame(wire, "WHAT\nnot a verdict\n", 5'000);
      wire.Close();
    }
    ::close(listener);
  });
  auto client = DialOnce(port);
  ASSERT_OK(client);
  auto reply = client->Execute("LOAD A");
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsDataCorruption()) << reply.status().ToString();
  EXPECT_NE(reply.status().ToString().find("malformed reply verdict"),
            std::string::npos)
      << reply.status().ToString();
  fake.join();
}

TEST(ProtocolRobustness, SlowLorisSessionIsReapedNotServedForever) {
  ServerConfig config = TestConfig();
  config.idle_timeout_ms = 100;
  config.io_timeout_ms = 1'000;
  ServedServer served(config);

  // A v2 client that HELLOs and then goes silent forever.
  auto wire = PosixWire::Dial(served.server->port());
  ASSERT_OK(wire);
  ASSERT_STATUS_OK(WriteFrame(**wire, EncodeHello(""), 2'000));
  bool clean_eof = false;
  auto ack = ReadFrame(**wire, &clean_eof, 5'000, 5'000);
  ASSERT_OK(ack);
  EXPECT_EQ(ack->rfind("OK\ntoken ", 0), 0u) << *ack;

  // The idle deadline fires server-side: the connection is closed and the
  // session slot is reclaimed, so a slow loris cannot pin admission forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served.server->stats().sessions_reaped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(served.server->stats().sessions_reaped, 1u);

  // Our end of the wire sees the close (EOF or reset), not silence.
  char byte;
  auto got = (*wire)->Recv(&byte, 1, 5'000);
  if (got.ok()) {
    EXPECT_EQ(*got, 0u);
  }
  (*wire)->Close();

  // And the server still serves the polite.
  auto client = DialOnce(served.server->port());
  ASSERT_OK(client);
  auto loaded = client->Execute("LOAD A");
  ASSERT_OK(loaded);
  EXPECT_TRUE(loaded->ok) << loaded->error;
}

TEST(ProtocolRobustness, OversizeReplyIsTruncatedIntoWellFormedError) {
  ServerConfig config = TestConfig();
  config.max_reply_bytes = 200;  // keep the test cheap; wire limit is 16 MB
  auto created = Server::Create(config);
  ASSERT_OK(created);
  Server& server = **created;
  const Schema schema = rel::MakeIntSchema(2);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 64; ++i) rows.push_back({i, i * 10});
  ASSERT_STATUS_OK(server.catalog().Seed("big", Rel(schema, rows)));
  ASSERT_STATUS_OK(
      server.catalog().Seed("small", Rel(schema, {{1, 10}, {2, 20}})));
  ASSERT_STATUS_OK(server.Listen(0));
  std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });

  auto client = DialOnce(server.port());
  ASSERT_OK(client);
  auto loaded = client->Execute("LOAD big");
  ASSERT_OK(loaded);
  ASSERT_TRUE(loaded->ok) << loaded->error;

  // The PRINT would exceed the reply limit: the connection must survive and
  // carry a well-formed truncated ERR instead.
  auto printed = client->Execute("PRINT big");
  ASSERT_OK(printed);
  EXPECT_FALSE(printed->ok);
  EXPECT_NE(printed->error.find("capacity"), std::string::npos)
      << printed->error;
  EXPECT_NE(printed->error.find("output truncated"), std::string::npos)
      << printed->error;
  EXPECT_NE(printed->output.find("-- output truncated to the first"),
            std::string::npos)
      << printed->output;

  // Same connection, next command still works.
  auto again = client->Execute("LOAD small");
  ASSERT_OK(again);
  EXPECT_TRUE(again->ok) << again->error;
  EXPECT_EQ(client->stats().dials, 1u);
  EXPECT_EQ(server.stats().oversize_replies, 1u);

  server.RequestShutdown();
  serving.join();
}

// ---- Lock discipline (S27 / DESIGN §2.10) ---------------------------------
// Regression coverage for the condition-variable audit and the ranked-mutex
// refactor: the v2 steal wait, the reaper's pacing wait, and the full
// DRAIN × idle-reaper × group-commit-leader interleaving. server_test runs
// in the CI TSan lane, so these double as data-race probes over the
// annotated concurrent core.

TEST(LockDiscipline, V2TokenStealWaitsOutOldHandlerAndHandsOver) {
  ServedServer served(TestConfig());

  // Wire A: fresh v2 session, one completed request.
  auto wire_a = PosixWire::Dial(served.server->port());
  ASSERT_OK(wire_a);
  ASSERT_STATUS_OK(WriteFrame(**wire_a, EncodeHello(""), 2'000));
  bool clean_eof = false;
  auto ack_a = ReadFrame(**wire_a, &clean_eof, 5'000, 5'000);
  ASSERT_OK(ack_a);
  ASSERT_EQ(ack_a->rfind("OK\ntoken ", 0), 0u) << *ack_a;
  const size_t tok_begin = ack_a->find("token ") + 6;
  const size_t tok_end = ack_a->find(" last", tok_begin);
  ASSERT_NE(tok_end, std::string::npos) << *ack_a;
  const std::string token = ack_a->substr(tok_begin, tok_end - tok_begin);

  ASSERT_STATUS_OK(WriteFrame(**wire_a, EncodeRequest(1, "LOAD A"), 2'000));
  auto reply_a = ReadFrame(**wire_a, &clean_eof, 5'000, 5'000);
  ASSERT_OK(reply_a);
  EXPECT_EQ(reply_a->rfind("OK", 0), 0u) << *reply_a;

  // Wire B HELLOs with A's token while A is still attached (parked reading
  // its next frame). AttachV2 must tear A's attachment down and sleep on the
  // predicate-guarded steal wait until A's handler detaches — not spin, not
  // race A for the slot, not hang on a missed notify.
  auto wire_b = PosixWire::Dial(served.server->port());
  ASSERT_OK(wire_b);
  ASSERT_STATUS_OK(WriteFrame(**wire_b, EncodeHello(token), 2'000));
  auto ack_b = ReadFrame(**wire_b, &clean_eof, 10'000, 5'000);
  ASSERT_OK(ack_b);
  EXPECT_EQ(*ack_b, "OK\ntoken " + token + " last 1\n");

  // A's side of the wire is dead (EOF or reset), not silently half-open.
  char byte;
  auto got = (*wire_a)->Recv(&byte, 1, 5'000);
  if (got.ok()) {
    EXPECT_EQ(*got, 0u);
  }
  (*wire_a)->Close();

  // The stolen session carried its state across: A's LOAD is visible and
  // the request-id sequence continues from A's high-water mark.
  ASSERT_STATUS_OK(WriteFrame(**wire_b, EncodeRequest(2, "PRINT A"), 2'000));
  auto reply_b = ReadFrame(**wire_b, &clean_eof, 5'000, 5'000);
  ASSERT_OK(reply_b);
  EXPECT_EQ(reply_b->rfind("OK", 0), 0u) << *reply_b;
  EXPECT_NE(reply_b->find("(1, 10)"), std::string::npos) << *reply_b;
  (*wire_b)->Close();
  EXPECT_EQ(served.server->stats().sessions_resumed, 1u);
}

TEST(LockDiscipline, ReaperShutdownIsPromptDespiteLongTick) {
  // With a 2-minute idle budget the reaper's pacing sleep is 30 s per tick.
  // Shutdown must interrupt that sleep via the notify, not wait it out: the
  // stop flag is re-checked under the mutex before and after every WaitFor,
  // so a RequestShutdown can never slip between the check and the sleep.
  ServerConfig config = TestConfig();
  config.idle_timeout_ms = 120'000;
  auto created = Server::Create(std::move(config));
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);
  ASSERT_STATUS_OK(server.Listen(0));
  std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });

  // Prove the server (and its reaper) is actually up before stopping it.
  auto client = DialOnce(server.port());
  ASSERT_OK(client);
  auto loaded = client->Execute("LOAD A");
  ASSERT_OK(loaded);
  EXPECT_TRUE(loaded->ok) << loaded->error;

  const auto start = std::chrono::steady_clock::now();
  server.RequestShutdown();
  serving.join();  // Serve joins the reaper thread before returning
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "shutdown waited out the reaper tick instead of waking it";
}

TEST(LockDiscipline, DrainRacesReaperRacesGroupCommitLeader) {
  // The three-way interleaving the lock hierarchy exists for: writer
  // handlers committing through the group-commit leader handoff (scheduler →
  // shared catalog → WAL) while the idle reaper sweeps detached slots under
  // the server mutex and a DRAIN tears the accept loop down mid-traffic.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "systolic_server_test_drain3")
          .string();
  std::filesystem::remove_all(dir);
  constexpr size_t kWriters = 3;
  constexpr size_t kLoris = 2;
  constexpr size_t kStoresPerWriter = 64;

  ServerConfig config = TestConfig();
  config.durable_dir = dir;  // commits go through the WAL (rank sink)
  config.idle_timeout_ms = 50;  // aggressive reaper: ~12 ms tick
  config.io_timeout_ms = 5'000;
  auto created = Server::Create(std::move(config));
  ASSERT_OK(created);
  Server& server = **created;
  SeedDemo(&server);
  ASSERT_STATUS_OK(server.Listen(0));
  std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });
  const uint16_t port = server.port();

  // Reaper prey: v2 sessions whose connections die right after the HELLO.
  // A clean EOF detaches (the session stays resumable), so the slot sits
  // idle until the reaper collects it — concurrent with the writers below.
  for (size_t i = 0; i < kLoris; ++i) {
    auto wire = PosixWire::Dial(port);
    ASSERT_OK(wire);
    ASSERT_STATUS_OK(WriteFrame(**wire, EncodeHello(""), 2'000));
    bool clean_eof = false;
    auto ack = ReadFrame(**wire, &clean_eof, 5'000, 5'000);
    ASSERT_OK(ack);
    ASSERT_EQ(ack->rfind("OK\ntoken ", 0), 0u) << *ack;
    (*wire)->Close();
  }

  // Writers hammer unique STOREs; every ack rode a group-commit batch whose
  // leader dropped the catalog lock to write the WAL.
  std::atomic<size_t> progress{0};
  std::vector<std::vector<std::string>> acked(kWriters);
  std::vector<std::thread> writers;
  for (size_t i = 0; i < kWriters; ++i) {
    writers.emplace_back([&, i] {
      auto client = DialOnce(port);
      if (!client.ok()) return;  // drain beat the dial
      auto loaded = client->Execute("LOAD A");
      if (!loaded.ok() || !loaded->ok) return;
      const std::string buf = "buf" + std::to_string(i);
      auto made = client->Execute("DEDUP A -> " + buf);
      if (!made.ok() || !made->ok) return;
      for (size_t j = 0; j < kStoresPerWriter; ++j) {
        const std::string name =
            "w" + std::to_string(i) + "_" + std::to_string(j);
        auto stored = client->Execute("STORE " + buf + " AS " + name);
        if (!stored.ok() || !stored->ok) break;  // drain cut the session
        acked[i].push_back(name);
        progress.fetch_add(1);
      }
    });
  }

  // Fire the drain only once the contention is real: commits have landed
  // AND the reaper has swept the idle slots.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((progress.load() < kWriters * 2 ||
          server.stats().sessions_reaped < kLoris) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server.stats().sessions_reaped, kLoris);
  server.RequestDrain();
  serving.join();  // drain barrier: in-flight replies + group-commit quiesce
  for (std::thread& thread : writers) thread.join();

  // Acked ⊆ applied, and nothing acknowledged went missing in the drain.
  const ServerStats stats = server.stats();
  size_t total_acked = 0;
  for (const auto& names : acked) total_acked += names.size();
  EXPECT_GE(total_acked, kWriters * 2);
  EXPECT_GE(stats.group_commit.commits, total_acked);
  const auto snapshot = server.catalog().Snapshot();
  for (size_t i = 0; i < kWriters; ++i) {
    for (const std::string& name : acked[i]) {
      EXPECT_EQ(snapshot->relations.count(name), 1u)
          << "acked STORE " << name << " missing after drain";
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace systolic
