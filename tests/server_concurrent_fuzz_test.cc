// Concurrent differential fuzzing for the S24 server (the tentpole gate):
// N client threads each replay a seeded command script against their own
// session of ONE shared server, writing only into a session-prefixed
// namespace. The oracle is a serial replay of the same scripts, session by
// session, on an identically configured server. Per-session output must be
// BIT-IDENTICAL between the two runs: the shared chip pool's interleaving,
// the fair-share scheduler, snapshot re-pinning, and cross-session group
// commit may change timing, never results.
//
// A second suite hammers one relation name from every thread and checks the
// first-committer-wins accounting instead (bit-identity is not defined when
// sessions race on purpose).
//
// SYSTOLIC_FUZZ_SEEDS sets the sweep size (default 4 seeds per thread count);
// the TSan CI lane runs this binary to certify the locking.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "server/server.h"
#include "server/session.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace server {
namespace {

using rel::Schema;
using systolic::testing::Rel;

ServerConfig FuzzConfig() {
  ServerConfig config;
  config.machine.num_memories = 16;
  config.num_chips = 4;
  config.max_queued_plans = 256;  // fuzz scripts should queue, not bounce
  return config;
}

void SeedShared(Server* server) {
  const Schema schema = rel::MakeIntSchema(2);
  ASSERT_STATUS_OK(server->catalog().Seed(
      "A", Rel(schema, {{1, 10}, {2, 20}, {3, 30}, {5, 50}})));
  ASSERT_STATUS_OK(server->catalog().Seed(
      "B", Rel(schema, {{2, 20}, {4, 40}, {5, 50}})));
}

/// A deterministic per-session script: reads of the shared seed relations,
/// systolic ops into buffers, PRINTs, and STOREs confined to the session's
/// own namespace prefix. `salt` varies shapes across (seed, session).
std::vector<std::string> SeededScript(uint64_t seed, size_t session_index) {
  Rng rng(seed * 7919 + session_index * 131 + 17);
  const std::string prefix = "s" + std::to_string(session_index) + "_";
  std::vector<std::string> script = {"LOAD A", "LOAD B"};
  std::vector<std::string> buffers;
  const size_t num_ops = 6 + static_cast<size_t>(rng.Uniform(0, 6));
  for (size_t i = 0; i < num_ops; ++i) {
    const std::string out = prefix + "b" + std::to_string(i);
    switch (rng.Uniform(0, 5)) {
      case 0:
        script.push_back("INTERSECT A B -> " + out);
        break;
      case 1:
        script.push_back("UNION A B -> " + out);
        break;
      case 2:
        script.push_back("DIFFERENCE A B -> " + out);
        break;
      case 3:
        script.push_back("SELECT A WHERE c0 >= " +
                         std::to_string(rng.Uniform(0, 4)) + " -> " + out);
        break;
      case 4:
        script.push_back("JOIN A B ON c0 = c0 -> " + out);
        break;
      default:
        script.push_back("DEDUP B -> " + out);
        break;
    }
    buffers.push_back(out);
    if (rng.Uniform(0, 3) == 0) {
      script.push_back("PRINT " + out);
    }
    if (rng.Uniform(0, 3) == 0) {
      // Session-prefixed durable name: no cross-session conflicts by
      // construction, so every COMMIT must be acknowledged.
      script.push_back("STORE " + out + " AS " + prefix + "d" +
                       std::to_string(i));
    }
  }
  // One transaction per script exercises the frozen-snapshot path; COMMIT
  // persists the sink (a session-prefixed name) through group commit.
  script.push_back("BEGIN");
  script.push_back("INTERSECT A B -> " + prefix + "tx");
  script.push_back("COMMIT");
  script.push_back("PRINT " + prefix + "tx");
  return script;
}

/// Replays `script` on `session`, concatenating every command's output.
/// Commands must all succeed (scripts are conflict-free by construction).
std::string Replay(Session* session, const std::vector<std::string>& script) {
  std::string transcript;
  for (const std::string& line : script) {
    const auto output = session->Execute(line);
    EXPECT_OK(output) << "line: " << line;
    if (!output.ok()) return transcript;
    transcript += *output;
  }
  return transcript;
}

struct FuzzParam {
  size_t num_sessions;
  uint64_t seed;
};

std::vector<FuzzParam> SweepPoints() {
  const size_t seeds = systolic::testing::FuzzSeedCount(4);
  std::vector<FuzzParam> points;
  for (const size_t n : {2u, 4u, 8u}) {
    for (uint64_t k = 0; k < seeds; ++k) {
      points.push_back({n, 900 + k});
    }
  }
  return points;
}

class ServerConcurrentFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(ServerConcurrentFuzz, ConcurrentReplayMatchesSerialOracleBitExactly) {
  const size_t n = GetParam().num_sessions;
  const uint64_t seed = GetParam().seed;

  std::vector<std::vector<std::string>> scripts;
  for (size_t i = 0; i < n; ++i) scripts.push_back(SeededScript(seed, i));

  // Serial oracle: same server shape, same session ids, scripts replayed one
  // after another on one thread.
  std::vector<std::string> expected(n);
  {
    auto created = Server::Create(FuzzConfig());
    ASSERT_OK(created);
    SeedShared(created->get());
    for (size_t i = 0; i < n; ++i) {
      auto session = (*created)->Connect();
      ASSERT_OK(session);
      expected[i] = Replay(session->get(), scripts[i]);
    }
  }

  // Concurrent run: every session replays on its own thread.
  std::vector<std::string> actual(n);
  {
    auto created = Server::Create(FuzzConfig());
    ASSERT_OK(created);
    SeedShared(created->get());
    std::vector<std::shared_ptr<Session>> sessions;
    for (size_t i = 0; i < n; ++i) {
      auto session = (*created)->Connect();
      ASSERT_OK(session);
      sessions.push_back(*session);
    }
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back(
          [&, i] { actual[i] = Replay(sessions[i].get(), scripts[i]); });
    }
    for (std::thread& thread : threads) thread.join();

    const ServerStats stats = (*created)->stats();
    EXPECT_EQ(stats.group_commit.conflicts, 0u)
        << "prefixed namespaces must never conflict";
  }

  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "session " << i << " of " << n << " (seed " << seed
        << ") diverged from the serial oracle";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ServerConcurrentFuzz,
                         ::testing::ValuesIn(SweepPoints()));

// ---- Contended writes: first-committer-wins accounting --------------------

TEST(ServerContendedFuzz, RacingWritersAccountEveryCommitOrConflict) {
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 6;
  auto created = Server::Create(FuzzConfig());
  ASSERT_OK(created);
  Server& server = **created;
  {
    const Schema schema = rel::MakeIntSchema(2);
    ASSERT_STATUS_OK(
        server.catalog().Seed("A", Rel(schema, {{1, 10}, {2, 20}})));
  }

  std::vector<std::shared_ptr<Session>> sessions;
  for (size_t i = 0; i < kThreads; ++i) {
    auto session = server.Connect();
    ASSERT_OK(session);
    sessions.push_back(*session);
  }

  std::atomic<size_t> acked{0};
  std::atomic<size_t> aborted{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Session& session = *sessions[i];
      for (size_t round = 0; round < kRounds; ++round) {
        ASSERT_OK(session.Execute("BEGIN"));
        ASSERT_OK(session.Execute("LOAD A"));
        // Everybody's transaction produces a sink named `hot`, persisted at
        // COMMIT: at most one session per catalog version wins; the rest
        // must surface Aborted, nothing else.
        ASSERT_OK(session.Execute("DEDUP A -> hot"));
        const auto committed = session.Execute("COMMIT");
        if (committed.ok()) {
          acked.fetch_add(1);
        } else {
          ASSERT_TRUE(committed.status().IsAborted())
              << committed.status().ToString();
          aborted.fetch_add(1);
        }
        ASSERT_OK(session.Execute("RELEASE hot"));
        ASSERT_OK(session.Execute("RELEASE A"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(acked.load() + aborted.load(), kThreads * kRounds);
  EXPECT_GE(acked.load(), 1u);
  const GroupCommitStats stats = server.stats().group_commit;
  EXPECT_EQ(stats.commits, acked.load());
  EXPECT_EQ(stats.conflicts, aborted.load());
  // The survivor is a committed value, present and intact.
  const auto snapshot = server.catalog().Snapshot();
  ASSERT_EQ(snapshot->relations.count("hot"), 1u);
  EXPECT_EQ(snapshot->relations.at("hot").relation->num_tuples(), 2u);
}

}  // namespace
}  // namespace server
}  // namespace systolic
