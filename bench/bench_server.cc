// Experiment E25 — concurrent serving: cross-session group-commit
// amortization and multi-client script throughput (DESIGN S24).
//
// One durable server, two measured legs of the same commit script (a
// durable STORE: snapshot pin, admission, WAL append, fsync, ack):
//
//   1. Serial leg: ONE client replays the script; every COMMIT pays a full
//      WAL append + fsync of its own.
//   2. Concurrent leg: 8 clients replay the same script concurrently; the
//      group-commit leader drains every queued COMMIT into one append +
//      fsync.
//
// The legs run in 5 rounds, the serial leg first in every other round.
// Asserted, in --smoke too:
//
//   * mean group-commit batch size on the concurrent legs > 1.5 — the fsync
//     must actually be amortized across sessions, and
//   * the median round's concurrent-leg script throughput >= 2x its serial
//     leg's. On a single-core box this speedup can ONLY come from commit
//     batching (compute does not parallelize), which is exactly the
//     property worth gating: N clients, one disk synchronization.
//
// `--smoke` shrinks repetition counts for CI; both bars stay asserted.
//
// Experiment E27 — reliability-layer overhead (DESIGN S26): the same
// command stream through the embedded Session::Execute and the protocol-v2
// request path (Session::ExecuteRequest: request-id admission + reply
// cache), no chaos, no network — the happy-path cost of exactly-once
// bookkeeping. Each trial runs at least ~20 ms of commands, sized from a
// warm-up timing. A pair's embedded and v2 trials alternate in blocks of
// 64 commands (which path leads alternates from pair to pair), so host
// noise lasting a few milliseconds lands on both; the median of the
// per-pair v2/embedded ratios is asserted <= 1.10x, in --smoke too.
//
// Experiment E28 — session memory over a shared catalog: eight in-process
// sessions each LOAD every relation of a catalog of 4000-tuple relations.
// Relations are copy-on-write, so a LOAD shares the pinned image's tuples
// instead of copying them onto the session's disk unit and memory module.
// Asserted, in --smoke too: the process's VmRSS growth per session stays
// under one flat copy of the catalog (machine::RelationBytes: 8 bytes per
// element). A deep copy costs at least one flat copy, so any per-session
// copy fails the bar. The leg runs before E25 and E27, whose freed memory
// could otherwise absorb the growth it measures.
//
// Experiment E28b — resident cost of relation storage: after a warm-up, a
// catalog of 4 × 4000-tuple, 2-column relations is built by Append, the
// way the tuple codec and the engine build relations, from codes drawn
// before the baseline VmRSS reading. Asserted, in --smoke too: VmRSS grows
// by less than 2.0× the relations' flat bytes (machine::RelationBytes). A
// relation keeps its tuples in one row-major code array, which append
// growth leaves at most about twice its flat size (this leg reads about
// 1.02×); with a heap vector per tuple (a 24-byte header plus a heap block
// for 16 bytes of codes) the same leg read 3.54×.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/server.h"
#include "server/session.h"
#include "system/scratchpad/memory.h"
#include "util/logging.h"

namespace {

using namespace systolic;
using systolic::bench::MakePair;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

void MustRun(server::Session* session, const std::string& line) {
  const auto output = session->Execute(line);
  SYSTOLIC_CHECK(output.ok())
      << "'" << line << "': " << output.status().ToString();
}

/// One commit script: a STORE durably persisted through the shared
/// group-commit pipeline (WAL append + fsync before the acknowledgement).
/// Disk names are per session, so concurrent replays never conflict.
void RunScript(server::Session* session, size_t session_index) {
  MustRun(session, "STORE A AS w" + std::to_string(session_index));
}

/// Scripts/second for `num_clients` sessions replaying the script `reps`
/// times each, all concurrently.
double MeasureThroughput(server::Server* srv, size_t num_clients,
                         size_t reps) {
  std::vector<std::shared_ptr<server::Session>> sessions;
  for (size_t i = 0; i < num_clients; ++i) {
    auto session = srv->Connect();
    SYSTOLIC_CHECK(session.ok()) << session.status().ToString();
    sessions.push_back(*session);
    // Fast backend: the leg compares commit pipelines, and the script's
    // compute must stay small next to one fsync for the comparison to see
    // them.
    MustRun(sessions.back().get(), "SET BACKEND fast");
    MustRun(sessions.back().get(), "LOAD A");
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t i = 0; i < num_clients; ++i) {
    clients.emplace_back([&sessions, i, reps] {
      for (size_t r = 0; r < reps; ++r) RunScript(sessions[i].get(), i);
    });
  }
  for (std::thread& thread : clients) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const auto& session : sessions) srv->Disconnect(session->id());
  return static_cast<double>(num_clients * reps) / seconds;
}

/// Seconds for `reps` replays of a cheap read command through one session,
/// via the embedded Execute or the v2 reliability path (ExecuteRequest).
double MeasureRequestPath(server::Session* session, size_t reps, bool v2,
                          uint64_t* next_id) {
  const std::string line = "PRINT A";
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) {
    if (v2) {
      const auto outcome = session->ExecuteRequest((*next_id)++, line);
      SYSTOLIC_CHECK(outcome.ok()) << outcome.status().ToString();
      SYSTOLIC_CHECK(outcome->payload.rfind("OK\n", 0) == 0)
          << outcome->payload;
    } else {
      MustRun(session, line);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The median of `samples` (an odd count).
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// This process's resident set size in bytes (VmRSS of /proc/self/status).
double ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return 1024.0 * std::stod(line.substr(6));  // reported in kB
    }
  }
  SYSTOLIC_CHECK(false) << "no VmRSS line in /proc/self/status";
  return 0;
}

/// E28: VmRSS growth per session, over the catalog's flat bytes, when
/// `num_sessions` sessions each LOAD every relation in `names`.
double SessionRssPerCatalog(server::Server* srv,
                            const std::vector<std::string>& names,
                            double catalog_bytes, size_t num_sessions) {
  const auto load_all = [&names](server::Session* session) {
    for (const std::string& name : names) MustRun(session, "LOAD " + name);
  };
  // Warm-up: the first LOAD faults in code and allocator state once.
  auto warm = srv->Connect();
  SYSTOLIC_CHECK(warm.ok()) << warm.status().ToString();
  load_all(warm->get());
  srv->Disconnect((*warm)->id());

  const double before = ResidentBytes();
  std::vector<std::shared_ptr<server::Session>> sessions;
  for (size_t i = 0; i < num_sessions; ++i) {
    auto session = srv->Connect();
    SYSTOLIC_CHECK(session.ok()) << session.status().ToString();
    sessions.push_back(*session);
    load_all(session->get());
  }
  const double growth = ResidentBytes() - before;
  for (const auto& session : sessions) srv->Disconnect(session->id());
  return growth / static_cast<double>(num_sessions) / catalog_bytes;
}

/// E28b: VmRSS growth, over their flat bytes, of `num_relations`
/// 2-column relations of `num_tuples` tuples each, built by Append.
double AppendedRssPerFlat(size_t num_relations, size_t num_tuples) {
  const rel::Schema schema = rel::MakeIntSchema(2);
  // The codes are drawn up front: the reading sees only the relations.
  std::vector<std::vector<rel::Code>> codes(num_relations);
  uint64_t state = 28;
  for (std::vector<rel::Code>& drawn : codes) {
    drawn.resize(2 * num_tuples);
    for (rel::Code& code : drawn) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      code = static_cast<rel::Code>(state >> 44);
    }
  }
  const auto build = [&schema,
                       num_tuples](const std::vector<rel::Code>& from) {
    rel::Relation relation(schema, rel::RelationKind::kMulti);
    for (size_t i = 0; i < num_tuples; ++i) {
      SYSTOLIC_CHECK(relation.Append({from[2 * i], from[2 * i + 1]}).ok());
    }
    return relation;
  };
  // Warm-up: the first build faults in code and allocator state once. It
  // stays alive, so its memory cannot absorb the growth measured below.
  const rel::Relation warm = build(codes.front());

  const double before = ResidentBytes();
  std::vector<rel::Relation> catalog;
  catalog.reserve(num_relations);
  double flat_bytes = 0;
  for (const std::vector<rel::Code>& drawn : codes) {
    catalog.push_back(build(drawn));
    flat_bytes += machine::RelationBytes(catalog.back());
  }
  const double growth = ResidentBytes() - before;
  SYSTOLIC_CHECK(warm.num_tuples() == num_tuples);
  return growth / flat_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t reps = smoke ? 16 : 64;
  constexpr size_t kClients = 8;

  const rel::Schema schema = rel::MakeIntSchema(2);
  // Small relation: the script's compute must stay comparable to one fsync,
  // or the commit path (the thing under test) vanishes into the noise.
  const auto pair = MakePair(schema, 16, 8, 0.4, 25);

  systolic::bench::JsonWriter json("bench_server");

  const std::string dir = FreshDir("systolic_bench_server");
  server::ServerConfig config;
  config.machine.num_memories = 8;
  config.num_chips = 1;
  // Single-chip sessions with a lifted admission limit: COMMITs must be
  // able to overlap for the leader to batch them.
  config.max_concurrent_plans = kClients;
  config.max_queued_plans = 4 * kClients;
  config.durable_dir = dir;
  auto created = server::Server::Create(std::move(config));
  SYSTOLIC_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<server::Server> srv = std::move(*created);
  SYSTOLIC_CHECK(srv->catalog().Seed("A", pair.a).ok());

  // ---- E28: session memory over a shared catalog --------------------------
  std::printf("=== E28: session memory over a shared catalog ===\n");
  constexpr size_t kCatalogRelations = 4;
  constexpr size_t kCatalogTuples = 4000;
  std::vector<std::string> names;
  double catalog_bytes = 0;
  for (size_t r = 0; r < kCatalogRelations; ++r) {
    const auto big = MakePair(schema, kCatalogTuples, 1, 0.0, 101 + r);
    names.push_back("C" + std::to_string(r));
    catalog_bytes += machine::RelationBytes(big.a);
    SYSTOLIC_CHECK(srv->catalog().Seed(names.back(), big.a).ok());
  }
  const double rss_ratio =
      SessionRssPerCatalog(srv.get(), names, catalog_bytes, kClients);
  std::printf("%-26s %zu x %zu tuples, %.0f flat bytes\n", "catalog",
              kCatalogRelations, kCatalogTuples, catalog_bytes);
  std::printf("VmRSS growth per session %.3f x the flat catalog "
              "(< 1 asserted)\n", rss_ratio);
  SYSTOLIC_CHECK(rss_ratio < 1.0)
      << "each session grew VmRSS by " << rss_ratio
      << "x the catalog's flat bytes: a LOAD is copying tuples again";
  json.Case("session_rss_per_catalog_x1000", 0, rss_ratio * 1000.0);

  std::printf("\n=== E28b: resident cost of relation storage ===\n");
  const double flat_ratio =
      AppendedRssPerFlat(kCatalogRelations, kCatalogTuples);
  std::printf("%zu x %zu 2-column tuples built by Append: VmRSS growth "
              "%.3f x their flat bytes (< 2.0 asserted)\n",
              kCatalogRelations, kCatalogTuples, flat_ratio);
  SYSTOLIC_CHECK(flat_ratio < 2.0)
      << "relations built by Append grew VmRSS by " << flat_ratio
      << "x their flat bytes: tuples are no longer stored flat";
  json.Case("relation_rss_per_flat_x1000", 0, flat_ratio * 1000.0);

  std::printf("\n=== E25: concurrent serving — group commit and throughput "
              "===\n");
  // Warm-up (allocators, file growth), then kRounds rounds of the two
  // legs, the serial leg first in even rounds. Where fsync is cheap a leg
  // lasts milliseconds, so one round's speedup is at the mercy of host
  // noise; the bar holds the median round.
  MeasureThroughput(srv.get(), 1, 4);
  constexpr size_t kRounds = 5;
  std::vector<double> serial_rates, concurrent_rates, speedups;
  size_t serial_batches = 0;
  size_t commits = 0;
  size_t batches = 0;
  for (size_t r = 0; r < kRounds; ++r) {
    double serial = 0;
    double concurrent = 0;
    for (const bool serial_leg : {r % 2 == 0, r % 2 != 0}) {
      const server::GroupCommitStats before = srv->stats().group_commit;
      const double rate =
          MeasureThroughput(srv.get(), serial_leg ? 1 : kClients, reps);
      const server::GroupCommitStats after = srv->stats().group_commit;
      // Batching on the concurrent leg only (the serial leg batches at 1
      // by construction).
      if (serial_leg) {
        serial = rate;
        serial_batches += after.batches - before.batches;
      } else {
        concurrent = rate;
        commits += after.commits - before.commits;
        batches += after.batches - before.batches;
      }
    }
    serial_rates.push_back(serial);
    concurrent_rates.push_back(concurrent);
    speedups.push_back(concurrent / serial);
  }
  const server::GroupCommitStats after = srv->stats().group_commit;
  const double mean_batch =
      batches == 0 ? 0.0
                   : static_cast<double>(commits) /
                         static_cast<double>(batches);
  const double serial_rate = Median(serial_rates);
  const double concurrent_rate = Median(concurrent_rates);
  const double speedup = Median(speedups);

  std::printf("\n-- serial leg: 1 client x %zu commit scripts, %zu rounds "
              "--\n", reps, kRounds);
  std::printf("%-26s %-14.1f\n", "scripts/s (median)", serial_rate);
  std::printf("%-26s %zu\n", "fsync batches", serial_batches);

  std::printf("\n-- concurrent leg: %zu clients x %zu commit scripts, %zu "
              "rounds --\n", kClients, reps, kRounds);
  std::printf("%-26s %-14.1f\n", "scripts/s (median)", concurrent_rate);
  std::printf("%-26s %zu\n", "commits acked", commits);
  std::printf("%-26s %zu\n", "fsync batches", batches);
  std::printf("%-26s %zu\n", "conflicts", after.conflicts);
  std::printf("batch size histogram:");
  for (const auto& [size, count] : after.batch_size_histogram) {
    std::printf(" %zux%zu", size, count);
  }
  std::sort(speedups.begin(), speedups.end());
  std::printf("\n\nmean batch size %.2f (> 1.5 asserted)\n", mean_batch);
  std::printf("round speedups %.2f..%.2fx, median %.2fx (>= 2x asserted)\n",
              speedups.front(), speedups.back(), speedup);

  SYSTOLIC_CHECK(commits == kClients * reps * kRounds);
  SYSTOLIC_CHECK(after.conflicts == 0u);
  SYSTOLIC_CHECK(mean_batch > 1.5)
      << "mean group-commit batch " << mean_batch << " at " << kClients
      << " writers: the fsync is not being amortized";
  SYSTOLIC_CHECK(speedup >= 2.0)
      << "concurrent throughput only " << speedup
      << "x of serial: group commit is not paying for itself";

  json.Case("group_commit_mean_batch_x100", 0, mean_batch * 100.0);
  json.Case("throughput_serial", 0, 1e9 / serial_rate);
  json.Case("throughput_8_clients", 0, 1e9 / concurrent_rate);

  // ---- E27: reliability-layer overhead on the happy path ------------------
  // Same session, same command stream; the v2 path adds the request-id
  // admission check and the reply-cache copy to the embedded Execute. A
  // trial of ~0.1 ms would measure host noise, so each runs at least
  // kTrialSeconds of commands, interleaved block by block with the other
  // path's trial, and the bar (1.10x) holds the median of the pairs'
  // ratios.
  std::printf("\n=== E27: reliability-layer overhead (v2 request path) "
              "===\n");
  constexpr double kTrialSeconds = 0.020;
  constexpr size_t kBlockReps = 64;
  const size_t overhead_pairs = smoke ? 9 : 25;
  auto overhead_session = srv->Connect();
  SYSTOLIC_CHECK(overhead_session.ok())
      << overhead_session.status().ToString();
  server::Session* probe = overhead_session->get();
  MustRun(probe, "SET BACKEND fast");
  MustRun(probe, "LOAD A");
  const double warmup_s =
      MeasureRequestPath(probe, kBlockReps, /*v2=*/false, nullptr);
  const size_t blocks =
      static_cast<size_t>(kTrialSeconds / warmup_s) + 1;
  const size_t overhead_reps = blocks * kBlockReps;
  uint64_t next_id = probe->last_request_id() + 1;
  std::vector<double> ratios;
  double embedded_s = 0;
  double v2_s = 0;
  for (size_t i = 0; i < overhead_pairs; ++i) {
    double embedded = 0;
    double v2 = 0;
    for (size_t b = 0; b < blocks; ++b) {
      if (i % 2 == 0) {
        embedded += MeasureRequestPath(probe, kBlockReps, false, nullptr);
        v2 += MeasureRequestPath(probe, kBlockReps, true, &next_id);
      } else {
        v2 += MeasureRequestPath(probe, kBlockReps, true, &next_id);
        embedded += MeasureRequestPath(probe, kBlockReps, false, nullptr);
      }
    }
    ratios.push_back(v2 / embedded);
    embedded_s += embedded;
    v2_s += v2;
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2];
  const double total_reps = static_cast<double>(overhead_reps * overhead_pairs);
  std::printf("%-26s %zu pairs x %zu commands per trial\n", "trials",
              overhead_pairs, overhead_reps);
  std::printf("%-26s %-14.1f\n", "embedded commands/s",
              total_reps / embedded_s);
  std::printf("%-26s %-14.1f\n", "v2 commands/s", total_reps / v2_s);
  std::printf("v2/embedded pair ratios %.3f..%.3f, median %.3fx "
              "(<= 1.10x asserted)\n",
              ratios.front(), ratios.back(), overhead);
  SYSTOLIC_CHECK(overhead <= 1.10)
      << "reliability layer costs " << overhead
      << "x on the happy path: the id check / reply cache got expensive";
  srv->Disconnect(probe->id());

  json.Case("reliability_overhead_x1000", 0, overhead * 1000.0);

  std::filesystem::remove_all(dir);
  std::printf("\nall serving bars held: one fsync now carries %.1f "
              "sessions' commits; v2 ids cost %.3fx; a session costs "
              "%.3fx the catalog\n", mean_batch, overhead, rss_ratio);
  return 0;
}
