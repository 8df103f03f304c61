// Chaos fuzzing for the S26 request-reliability layer, in three lanes:
//
//   1. Socket chaos sweep: N ReliableClients replay seeded, conflict-free
//      scripts against one socket server while a seeded ChaosWire (the
//      network analogue of the S21 CrashInjector's ordered-prefix cut) tears
//      their connections at arbitrary byte boundaries — mid-length,
//      mid-header, mid-payload, mid-reply. The clients reconnect, resume
//      their sessions by token, and resend the in-flight request id; the
//      per-session reply cache answers retries without re-execution. Gate:
//      every client's reply transcript is BIT-IDENTICAL to a serial
//      no-network oracle, and the group-commit counter equals the script's
//      commit count exactly (a double-applied retry would overshoot it).
//
//   2. Crash-recovery cut sweep: the durable write path of a v2 session is
//      cut mid-STORE (CrashInjector through ServerConfig::durable_io); the
//      server is reopened on the same directory and the client resumes by
//      token and retries the in-flight id. The WAL-recovered ack — sealed in
//      the SAME group as the commit — must answer the retry as a dedup when
//      the commit survived, and re-execution must be required when it did
//      not; commit accounting across both incarnations must total exactly
//      one application per block.
//
//   3. Drain under load: clients hammer unique STOREs while the server is
//      asked to DRAIN; Serve returns after in-flight commands are replied
//      and group commit quiesces, every acknowledged STORE is durable, and
//      no client hangs.
//
// SYSTOLIC_FUZZ_SEEDS sets the sweep size (default 4 per shape); the TSan and
// nightly CI lanes run this binary.

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/crash_plan.h"
#include "durability/durable_catalog.h"
#include "durability/io.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/storage.h"
#include "server/chaos.h"
#include "server/protocol.h"
#include "server/reliable_client.h"
#include "server/server.h"
#include "server/session.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace server {
namespace {

using rel::Schema;
using systolic::testing::FuzzSeedCount;
using systolic::testing::Rel;

ServerConfig ChaosConfig() {
  ServerConfig config;
  config.machine.num_memories = 16;
  config.num_chips = 4;
  config.max_queued_plans = 256;
  config.max_sessions = 128;  // torn HELLOs orphan sessions; leave headroom
  config.io_timeout_ms = 5'000;
  config.idle_timeout_ms = 5'000;
  return config;
}

void SeedShared(Server* server) {
  const Schema schema = rel::MakeIntSchema(2);
  ASSERT_STATUS_OK(server->catalog().Seed(
      "A", Rel(schema, {{1, 10}, {2, 20}, {3, 30}, {5, 50}})));
  ASSERT_STATUS_OK(
      server->catalog().Seed("B", Rel(schema, {{2, 20}, {4, 40}, {5, 50}})));
}

/// A conflict-free per-client script (session-prefixed names), with STOREs
/// so retries cross the commit path.
std::vector<std::string> SeededScript(uint64_t seed, size_t client_index) {
  Rng rng(seed * 6151 + client_index * 257 + 29);
  const std::string prefix = "c" + std::to_string(client_index) + "_";
  std::vector<std::string> script = {"LOAD A", "LOAD B"};
  const size_t num_ops = 4 + static_cast<size_t>(rng.Uniform(0, 3));
  for (size_t i = 0; i < num_ops; ++i) {
    const std::string out = prefix + "b" + std::to_string(i);
    switch (rng.Uniform(0, 3)) {
      case 0:
        script.push_back("INTERSECT A B -> " + out);
        break;
      case 1:
        script.push_back("UNION A B -> " + out);
        break;
      case 2:
        script.push_back("DIFFERENCE A B -> " + out);
        break;
      default:
        script.push_back("DEDUP B -> " + out);
        break;
    }
    if (rng.Uniform(0, 2) == 0) script.push_back("PRINT " + out);
    if (rng.Uniform(0, 2) == 0) {
      script.push_back("STORE " + out + " AS " + prefix + "d" +
                       std::to_string(i));
    }
  }
  script.push_back("BEGIN");
  script.push_back("INTERSECT A B -> " + prefix + "tx");
  script.push_back("COMMIT");
  script.push_back("PRINT " + prefix + "tx");
  return script;
}

/// Wire that counts admitted bytes into *total — the chaos probe leg, sizing
/// the cut horizon from a clean run's actual traffic.
class CountingWire final : public Wire {
 public:
  CountingWire(std::unique_ptr<Wire> inner, uint64_t* total)
      : inner_(std::move(inner)), total_(total) {}

  Result<size_t> Send(const char* data, size_t size, int timeout_ms) override {
    auto sent = inner_->Send(data, size, timeout_ms);
    if (sent.ok()) *total_ += *sent;
    return sent;
  }
  Result<size_t> Recv(char* data, size_t size, int timeout_ms) override {
    auto received = inner_->Recv(data, size, timeout_ms);
    if (received.ok()) *total_ += *received;
    return received;
  }
  void ShutdownBoth() override { inner_->ShutdownBoth(); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Wire> inner_;
  uint64_t* total_;
};

/// Replays `script` through `client`, concatenating reply outputs. Every
/// command must be acknowledged OK (scripts are conflict-free).
std::string ReplayReliable(ReliableClient* client,
                           const std::vector<std::string>& script) {
  std::string transcript;
  for (const std::string& line : script) {
    const auto reply = client->Execute(line);
    EXPECT_OK(reply) << "line: " << line;
    if (!reply.ok()) return transcript;
    EXPECT_TRUE(reply->ok) << "line: " << line << " -> " << reply->error;
    transcript += reply->output;
  }
  return transcript;
}

struct ChaosParam {
  size_t num_clients;
  uint64_t seed;
};

std::vector<ChaosParam> ChaosSweepPoints() {
  const size_t seeds = FuzzSeedCount(4);
  std::vector<ChaosParam> points;
  for (const size_t n : {2u, 4u, 8u}) {
    for (uint64_t k = 0; k < seeds; ++k) points.push_back({n, 7100 + k});
  }
  return points;
}

class ServerChaosFuzz : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ServerChaosFuzz, TornConnectionsReplayBitIdenticallyAndCommitOnce) {
  const size_t n = GetParam().num_clients;
  const uint64_t seed = GetParam().seed;

  std::vector<std::vector<std::string>> scripts;
  for (size_t i = 0; i < n; ++i) scripts.push_back(SeededScript(seed, i));

  // Serial oracle: embedded sessions, no network at all. Its commit counter
  // is the exactly-once ground truth (every sink-producing command commits a
  // group; counting them by hand would re-implement the interpreter).
  std::vector<std::string> expected(n);
  size_t expected_commits = 0;
  {
    auto created = Server::Create(ChaosConfig());
    ASSERT_OK(created);
    SeedShared(created->get());
    for (size_t i = 0; i < n; ++i) {
      auto session = (*created)->Connect();
      ASSERT_OK(session);
      for (const std::string& line : scripts[i]) {
        const auto output = (*session)->Execute(line);
        ASSERT_OK(output) << "line: " << line;
        expected[i] += *output;
      }
    }
    expected_commits = (*created)->stats().group_commit.commits;
  }
  ASSERT_GT(expected_commits, 0u);

  // Probe leg: the socket path with no chaos, measuring each client's clean
  // traffic volume (the cut horizon) and double-checking the v2 protocol
  // itself reproduces the oracle.
  std::vector<uint64_t> horizon(n, 0);
  {
    auto created = Server::Create(ChaosConfig());
    ASSERT_OK(created);
    SeedShared(created->get());
    Server& server = **created;
    ASSERT_STATUS_OK(server.Listen(0));
    std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });
    const uint16_t port = server.port();
    std::vector<std::string> probe(n);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        ReliableClientOptions options;
        options.io_timeout_ms = 5'000;
        options.sleep_ms = [](uint64_t) {};
        options.dial = [&horizon, i, port]() -> Result<std::unique_ptr<Wire>> {
          SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixWire> wire,
                                    PosixWire::Dial(port));
          return std::unique_ptr<Wire>(
              std::make_unique<CountingWire>(std::move(wire), &horizon[i]));
        };
        auto client = ReliableClient::Connect(std::move(options));
        ASSERT_OK(client);
        probe[i] = ReplayReliable(&*client, scripts[i]);
        client->Close();
      });
    }
    for (std::thread& thread : threads) thread.join();
    server.RequestShutdown();
    serving.join();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(probe[i], expected[i])
          << "client " << i << ": clean v2 socket run diverged from oracle";
      ASSERT_GT(horizon[i], 0u);
    }
    EXPECT_EQ(server.stats().group_commit.commits, expected_commits);
  }

  // Chaos leg: every client's connections are torn at seeded byte budgets;
  // retries + resume + the reply cache must reproduce the oracle bits.
  {
    auto created = Server::Create(ChaosConfig());
    ASSERT_OK(created);
    SeedShared(created->get());
    Server& server = **created;
    ASSERT_STATUS_OK(server.Listen(0));
    std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });
    const uint16_t port = server.port();
    std::vector<std::string> actual(n);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        const ChaosPlan plan(seed * 31 + i, horizon[i]);
        auto attempt = std::make_shared<uint64_t>(0);
        ReliableClientOptions options;
        options.io_timeout_ms = 5'000;
        options.max_attempts = 12;
        options.backoff_seed = seed + i;
        options.sleep_ms = [](uint64_t) {};
        options.dial = [plan, attempt,
                        port]() -> Result<std::unique_ptr<Wire>> {
          SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixWire> wire,
                                    PosixWire::Dial(port));
          const uint64_t budget = plan.CutFor((*attempt)++);
          return std::unique_ptr<Wire>(
              std::make_unique<ChaosWire>(std::move(wire), budget));
        };
        auto client = ReliableClient::Connect(std::move(options));
        ASSERT_OK(client);
        actual[i] = ReplayReliable(&*client, scripts[i]);
        client->Close();
      });
    }
    for (std::thread& thread : threads) thread.join();
    server.RequestShutdown();
    serving.join();

    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(actual[i], expected[i])
          << "client " << i << " of " << n << " (seed " << seed
          << ") diverged from the oracle under chaos";
    }
    // Exactly-once: retried commits must be answered from the reply cache,
    // never re-applied — the commit counter is the ground truth.
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.group_commit.commits, expected_commits)
        << "a retried commit was re-applied (or lost)";
    EXPECT_EQ(stats.group_commit.conflicts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ServerChaosFuzz,
                         ::testing::ValuesIn(ChaosSweepPoints()));

// ---- Lane 2: exactly-once across a crash-recovery cut ----------------------

class ChaosDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "systolic_server_chaos_" +
                       std::string(info->test_suite_name()) + "_" +
                       info->name();
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

std::string Fingerprint(const std::string& dir) {
  auto durable = durability::DurableCatalog::Open(dir);
  SYSTOLIC_CHECK(durable.ok()) << durable.status().ToString();
  auto files = rel::SerializeCatalog((*durable)->catalog());
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

constexpr size_t kCrashBlocks = 4;

/// The v2 script: one LOAD (no commit), then one sink-producing command per
/// block — each commits exactly one group through the shared pipeline, so
/// request id k+2 is block k's only durable write.
std::vector<std::string> CrashLaneLines() {
  std::vector<std::string> lines = {"LOAD A"};
  for (size_t k = 0; k < kCrashBlocks; ++k) {
    lines.push_back("DEDUP A -> d" + std::to_string(k));
  }
  return lines;
}

ServerConfig CrashLaneConfig(const std::string& dir, uint64_t boot_id,
                             durability::CrashInjector* injector) {
  ServerConfig config;
  config.machine.num_memories = 12;
  config.num_chips = 1;
  config.durable_dir = dir;
  config.boot_id = boot_id;
  if (injector != nullptr) config.durable_io = durability::Io(injector);
  return config;
}

void SeedA(Server* server) {
  const Schema schema = rel::MakeIntSchema(2);
  ASSERT_STATUS_OK(server->catalog().Seed(
      "A", Rel(schema, {{1, 10}, {2, 20}, {2, 20}, {3, 30}})));
}

TEST_F(ChaosDirFixture, CrashCutSweepDeduplicatesExactlyOnce) {
  const std::vector<std::string> lines = CrashLaneLines();

  // Oracle: a clean run; its directory fingerprint is the final-state gate.
  {
    auto created = Server::Create(CrashLaneConfig(Sub("oracle"), 1, nullptr));
    ASSERT_OK(created);
    SeedA(created->get());
    auto session = (*created)->Connect();
    ASSERT_OK(session);
    uint64_t id = 0;
    for (const std::string& line : lines) {
      auto outcome = (*session)->ExecuteRequest(++id, line);
      ASSERT_OK(outcome);
      ASSERT_EQ(outcome->payload.rfind("OK", 0), 0u) << outcome->payload;
    }
    EXPECT_EQ((*created)->stats().group_commit.commits, kCrashBlocks);
  }
  const std::string oracle_fp = Fingerprint(Sub("oracle"));

  // Probe: total write-path units of the clean run.
  uint64_t total = 0;
  {
    durability::CrashInjector probe(durability::CrashInjector::kNoCrash);
    auto created = Server::Create(CrashLaneConfig(Sub("probe"), 1, &probe));
    ASSERT_OK(created);
    SeedA(created->get());
    auto session = (*created)->Connect();
    ASSERT_OK(session);
    uint64_t id = 0;
    for (const std::string& line : lines) {
      auto outcome = (*session)->ExecuteRequest(++id, line);
      ASSERT_OK(outcome);
      ASSERT_EQ(outcome->payload.rfind("OK", 0), 0u) << outcome->payload;
    }
    total = probe.units_used();
  }
  ASSERT_GT(total, 0u);

  const size_t seeds = FuzzSeedCount(4);
  const size_t kTrialsPerSeed = 6;
  for (uint64_t s = 0; s < seeds; ++s) {
    const uint64_t seed = 8200 + s;
    const durability::CrashPlan plan(seed);
    for (uint64_t trial = 0; trial < kTrialsPerSeed; ++trial) {
      const uint64_t cut = plan.CutFor(trial, total);
      const std::string dir = Sub("trial");
      std::filesystem::remove_all(dir);

      durability::CrashInjector injector(cut);
      size_t commits1 = 0;
      std::string token;
      bool crashed = false;
      size_t crashed_block = 0;   // block index of the torn STORE
      uint64_t in_flight_id = 0;  // its request id
      {
        auto created =
            Server::Create(CrashLaneConfig(dir, 1, &injector));
        if (!created.ok()) {
          // The cut landed in the initial open; everything replays fresh.
          ASSERT_TRUE(durability::Io::IsSimulatedCrash(created.status()))
              << "cut " << cut << ": " << created.status().ToString();
          crashed = true;
          in_flight_id = 0;
        } else {
          SeedA(created->get());
          auto session = (*created)->Connect();
          ASSERT_OK(session);
          token = (*session)->token();
          uint64_t id = 0;
          for (const std::string& line : lines) {
            auto outcome = (*session)->ExecuteRequest(++id, line);
            ASSERT_OK(outcome);
            if (outcome->payload.rfind("ERR ", 0) == 0) {
              ASSERT_NE(
                  outcome->payload.find(durability::Io::kCrashMessage),
                  std::string::npos)
                  << "cut " << cut
                  << ": non-crash failure: " << outcome->payload;
              crashed = true;
              in_flight_id = id;
              crashed_block = id - 2;  // ids 2..5 are the block commands
              break;
            }
          }
          commits1 = (*created)->stats().group_commit.commits;
        }
      }

      if (!crashed) {
        EXPECT_EQ(commits1, kCrashBlocks) << "cut " << cut;
        EXPECT_EQ(Fingerprint(dir), oracle_fp) << "cut " << cut;
        continue;
      }

      // Incarnation 2: clean Io, new boot id, same directory. Resume by
      // token and retry the in-flight id; the WAL ack decides dedup vs
      // re-execution.
      size_t expected_commits2 = 0;
      bool deduped = false;
      {
        auto created = Server::Create(CrashLaneConfig(dir, 2, nullptr));
        ASSERT_OK(created);
        SeedA(created->get());
        std::shared_ptr<Session> session;
        uint64_t id = in_flight_id;
        size_t next_block = crashed_block;
        if (in_flight_id == 0) {
          // Create itself crashed: fresh session, full replay.
          auto connected = (*created)->Connect();
          ASSERT_OK(connected);
          session = *connected;
          id = 0;
        } else {
          auto resumed = (*created)->Resume(token);
          if (resumed.ok()) {
            session = *resumed;
          } else {
            // No commit of this session ever reached the WAL.
            ASSERT_TRUE(resumed.status().IsNotFound())
                << resumed.status().ToString();
            EXPECT_EQ(commits1, 0u) << "cut " << cut
                                    << ": acked commits lost the token";
            auto connected = (*created)->Connect();
            ASSERT_OK(connected);
            session = *connected;
          }
          // Retry the torn command verbatim, same id.
          auto retried =
              session->ExecuteRequest(id, lines[1 + crashed_block]);
          ASSERT_OK(retried);
          if (retried->recovered_dedup) {
            // The commit survived the crash; the retry must NOT re-apply.
            deduped = true;
            EXPECT_NE(retried->payload.find("already committed"),
                      std::string::npos)
                << retried->payload;
            next_block = crashed_block + 1;
          } else {
            // The commit was torn away — and with it the session's machine
            // state, so the re-executed command fails on the missing LOAD.
            // The client replays the block with fresh ids.
            EXPECT_EQ(retried->payload.rfind("ERR ", 0), 0u)
                << retried->payload;
            next_block = crashed_block;
          }
        }
        // Replay: reload A, then every remaining block, continuing the id
        // sequence.
        auto load = session->ExecuteRequest(++id, "LOAD A");
        ASSERT_OK(load);
        ASSERT_EQ(load->payload.rfind("OK", 0), 0u) << load->payload;
        for (size_t k = next_block; k < kCrashBlocks; ++k) {
          const std::string line = "DEDUP A -> d" + std::to_string(k);
          auto outcome = session->ExecuteRequest(++id, line);
          ASSERT_OK(outcome);
          ASSERT_EQ(outcome->payload.rfind("OK", 0), 0u)
              << "cut " << cut << " line '" << line
              << "': " << outcome->payload;
          ++expected_commits2;
        }
        const ServerStats stats = (*created)->stats();
        EXPECT_EQ(stats.group_commit.commits, expected_commits2)
            << "cut " << cut;
        if (deduped) {
          EXPECT_EQ(stats.recovered_dedups, 1u);
        }
      }

      // Exactly-once accounting: every block's STORE is applied by exactly
      // one incarnation — counted commits plus the one the WAL carried
      // across the crash must equal the block count.
      EXPECT_EQ(commits1 + expected_commits2 + (deduped ? 1u : 0u),
                kCrashBlocks)
          << "cut " << cut << " (crashed block " << crashed_block << ")";
      EXPECT_EQ(Fingerprint(dir), oracle_fp)
          << "seed " << seed << " cut " << cut
          << ": recovered state diverged from the oracle";
      if (::testing::Test::HasFailure()) {
        FAIL() << "crash lane failed at seed " << seed << " trial " << trial
               << " cut " << cut << " / " << total;
      }
    }
  }
}

// ---- Lane 3: graceful drain under load -------------------------------------

TEST_F(ChaosDirFixture, DrainUnderLoadKeepsEveryAckedCommit) {
  constexpr size_t kClients = 4;
  constexpr size_t kStoresPerClient = 24;

  auto created = Server::Create(CrashLaneConfig(Sub("drain"), 1, nullptr));
  ASSERT_OK(created);
  Server& server = **created;
  SeedA(&server);
  ASSERT_STATUS_OK(server.Listen(0));
  std::thread serving([&server] { EXPECT_TRUE(server.Serve().ok()); });
  const uint16_t port = server.port();

  std::atomic<size_t> progress{0};
  std::vector<std::vector<std::string>> acked(kClients);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ReliableClientOptions options;
      options.port = port;
      options.io_timeout_ms = 5'000;
      options.max_attempts = 4;
      options.sleep_ms = [](uint64_t) {};
      auto client = ReliableClient::Connect(std::move(options));
      if (!client.ok()) {  // drain won the race with the first HELLO
        fprintf(stderr, "client %zu connect: %s\n", i,
                client.status().ToString().c_str());
        return;
      }
      const std::string prefix = "dr" + std::to_string(i) + "_";
      // One session-private buffer, stored under a fresh name per round so
      // every acknowledged commit is individually checkable afterwards.
      auto loaded = client->Execute("LOAD A");
      if (!loaded.ok() || !loaded->ok) return;
      auto made = client->Execute("DEDUP A -> buf" + std::to_string(i));
      if (!made.ok() || !made->ok) {
        fprintf(stderr, "client %zu dedup: %s / %s\n", i,
                made.ok() ? "ok" : made.status().ToString().c_str(),
                made.ok() ? made->error.c_str() : "");
        return;
      }
      for (size_t j = 0; j < kStoresPerClient; ++j) {
        const std::string name = prefix + std::to_string(j);
        auto stored =
            client->Execute("STORE buf" + std::to_string(i) + " AS " + name);
        if (!stored.ok()) break;  // server drained mid-retry
        if (stored->ok) {
          acked[i].push_back(name);
          progress.fetch_add(1);
        } else {
          break;
        }
      }
    });
  }
  // Let the fleet make some progress, then drain while they are mid-flight.
  while (progress.load() < kClients * 2) std::this_thread::yield();
  server.RequestDrain();
  serving.join();  // Serve returns only after in-flight replies + quiesce
  for (std::thread& thread : threads) thread.join();

  const ServerStats stats = server.stats();
  size_t total_acked = 0;
  for (const auto& names : acked) total_acked += names.size();
  EXPECT_GE(total_acked, kClients * 2);
  // Acked commits can only be a subset of applied ones (a commit whose reply
  // was cut off by the drain is applied but unacked).
  EXPECT_GE(stats.group_commit.commits, total_acked);

  // Every acknowledged STORE must have survived the drain durably.
  auto durable = durability::DurableCatalog::Open(Sub("drain"));
  ASSERT_OK(durable);
  for (size_t i = 0; i < kClients; ++i) {
    for (const std::string& name : acked[i]) {
      EXPECT_OK((*durable)->catalog().GetRelation(name))
          << "acked STORE " << name << " lost by drain";
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace systolic
