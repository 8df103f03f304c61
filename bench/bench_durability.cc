// Experiment E22 — durability: durable-commit overhead, recovery replay
// throughput and bytes on disk.
//
// Four reports:
//
//   1. Durable COMMIT overhead. The same relational command (a DEDUP whose
//      sink is persisted) with durability off vs on. The durable path adds
//      one WAL group append + fsync per command on top of the systolic
//      execution; the median wall-clock ratio is asserted <= 2.5x — the log
//      write must stay small next to the work it makes durable.
//
//   2. Recovery replay throughput. A WAL of many committed groups is
//      replayed by Open; the rate is asserted >= 10k records/s, so crash
//      restart cost stays proportional to the un-checkpointed tail, not to
//      database size.
//
//   3. Hot-path neutrality. With a durable directory open but SET
//      DURABILITY off, the command path must match the never-opened machine
//      (reported, not asserted — the expected ratio is 1.0 and wall clock
//      on shared CI is noisy).
//
//   4. Storage. A checkpointed catalog of MakePair int64 relations: the
//      durable directory's bytes over the catalog's user bytes (8 per
//      element, machine::RelationBytes) are asserted <= 0.50, and the
//      median time Open takes to recover the catalog is reported. The
//      binary tuple codec reads 0.27 (smoke) and 0.35 here; CSV data files,
//      the format before it, read 0.63 and 0.71.
//
// `--smoke` shrinks the workload for CI; every bar stays asserted.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "durability/durable_catalog.h"
#include "system/command.h"
#include "system/machine.h"
#include "system/scratchpad/memory.h"
#include "util/logging.h"

namespace {

using namespace systolic;
using systolic::bench::MakePair;

/// Median wall microseconds of `body` over `reps` runs.
template <typename Body>
double MedianWallUs(size_t reps, Body body) {
  std::vector<double> times;
  times.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    times.push_back(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Shell {
  explicit Shell(const rel::Relation& a) {
    machine::MachineConfig config;
    config.num_memories = 8;
    m = std::make_unique<machine::Machine>(config);
    m->disk().Put("A", a);
    interpreter = std::make_unique<machine::CommandInterpreter>(m.get(), &out);
    Run("LOAD A");
  }
  void Run(const std::string& line) {
    const Status executed = interpreter->Execute(line);
    SYSTOLIC_CHECK(executed.ok()) << executed.ToString();
  }
  /// One timed unit of work: a command whose sink is durably persisted when
  /// durability is on, then released so reps don't accumulate buffers.
  void Step() {
    Run("DEDUP A -> t");
    Run("RELEASE t");
  }

  std::unique_ptr<machine::Machine> m;
  std::ostringstream out;
  std::unique_ptr<machine::CommandInterpreter> interpreter;
};

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Bytes in every file under `dir`.
double DirectoryBytes(const std::string& dir) {
  double bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 64 : 256;
  const size_t reps = smoke ? 7 : 15;
  const size_t replay_records = smoke ? 2048 : 12288;

  const rel::Schema schema = rel::MakeIntSchema(2);
  const rel::Relation a = MakePair(schema, n, n, 0.5, 22).a;

  systolic::bench::JsonWriter json("bench_durability");
  std::printf("=== E22: durability — commit overhead and recovery replay "
              "===\n");

  // 1. Durable COMMIT overhead.
  Shell plain(a);
  const double plain_us = MedianWallUs(reps, [&] { plain.Step(); });

  const std::string commit_dir = FreshDir("systolic_bench_durability_commit");
  Shell durable(a);
  durable.Run("OPEN " + commit_dir);
  const double durable_us = MedianWallUs(reps, [&] { durable.Step(); });
  const double overhead = durable_us / plain_us;

  std::printf("\n-- durable COMMIT overhead (n=%zu, median of %zu) --\n", n,
              reps);
  std::printf("%-22s %-12s\n", "config", "wall_us");
  std::printf("%-22s %-12.0f\n", "durability off", plain_us);
  std::printf("%-22s %-12.0f\n", "durability on", durable_us);
  std::printf("overhead %.2fx (<= 2.5x asserted)\n", overhead);
  SYSTOLIC_CHECK(overhead <= 2.5)
      << "durable COMMIT overhead " << overhead << "x exceeds the 2.5x bar";
  json.Case("commit_plain", 0, plain_us * 1e3);
  json.Case("commit_durable", 0, durable_us * 1e3);

  // 2. Recovery replay throughput. Many committed groups of small puts: the
  // WAL tail a crashed session would replay on restart.
  const std::string replay_dir = FreshDir("systolic_bench_durability_replay");
  {
    auto session = durability::DurableCatalog::Open(replay_dir);
    SYSTOLIC_CHECK(session.ok()) << session.status().ToString();
    const rel::Relation row = MakePair(schema, 4, 4, 0.5, 23).a;
    size_t logged = 0;
    while (logged < replay_records) {
      for (size_t i = 0; i < 64 && logged < replay_records; ++i, ++logged) {
        const Status staged = (*session)->LogPut(
            "rel_" + std::to_string(logged % 64), row);
        SYSTOLIC_CHECK(staged.ok()) << staged.ToString();
      }
      const Status committed = (*session)->Commit();
      SYSTOLIC_CHECK(committed.ok()) << committed.ToString();
    }
  }
  const uintmax_t wal_bytes =
      std::filesystem::file_size(replay_dir + "/WAL");
  double replay_us = 0;
  size_t recovered = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    auto reopened = durability::DurableCatalog::Open(replay_dir);
    replay_us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    SYSTOLIC_CHECK(reopened.ok()) << reopened.status().ToString();
    recovered = (*reopened)->stats().recovered_records;
  }
  SYSTOLIC_CHECK(recovered == replay_records);
  const double rate = recovered / (replay_us / 1e6);
  std::printf("\n-- recovery replay (%zu records, %ju wal bytes) --\n",
              recovered, wal_bytes);
  std::printf("replay %.0f us, %.0f records/s (>= 10000 asserted)\n",
              replay_us, rate);
  SYSTOLIC_CHECK(rate >= 10000.0)
      << "recovery replay " << rate << " records/s is below the 10k bar";
  json.Case("replay", 0, replay_us * 1e3);

  // 3. Hot-path neutrality with durability suspended.
  const std::string off_dir = FreshDir("systolic_bench_durability_off");
  Shell suspended(a);
  suspended.Run("OPEN " + off_dir);
  suspended.Run("SET DURABILITY off");
  const double off_us = MedianWallUs(reps, [&] { suspended.Step(); });
  std::printf("\n-- hot path with durability suspended --\n");
  std::printf("%-22s %-12s\n", "config", "wall_us");
  std::printf("%-22s %-12.0f\n", "never opened", plain_us);
  std::printf("%-22s %-12.0f\n", "open, SET off", off_us);
  std::printf("ratio %.2fx (expected ~1.0, reported only)\n",
              off_us / plain_us);

  // 4. Storage: bytes on disk per user byte of a checkpointed catalog, and
  // the time Open takes to load it back.
  const size_t storage_tuples = smoke ? 1000 : 4000;
  constexpr size_t kStoragePairs = 4;
  constexpr double kStorageBar = 0.50;
  const std::string storage_dir =
      FreshDir("systolic_bench_durability_storage");
  double user_bytes = 0;
  size_t stored_tuples = 0;
  {
    auto session = durability::DurableCatalog::Open(storage_dir);
    SYSTOLIC_CHECK(session.ok()) << session.status().ToString();
    for (size_t p = 0; p < kStoragePairs; ++p) {
      const rel::RelationPair pair =
          MakePair(schema, storage_tuples, storage_tuples, 0.5, 40 + p);
      for (const auto& [name, relation] :
           {std::pair{"a", &pair.a}, std::pair{"b", &pair.b}}) {
        const Status put =
            (*session)->Put(name + std::to_string(p), *relation);
        SYSTOLIC_CHECK(put.ok()) << put.ToString();
        user_bytes += machine::RelationBytes(*relation);
        stored_tuples += relation->num_tuples();
      }
    }
    const Status checkpointed = (*session)->Checkpoint();
    SYSTOLIC_CHECK(checkpointed.ok()) << checkpointed.ToString();
  }
  const double disk_bytes = DirectoryBytes(storage_dir);
  const double bytes_per_user_byte = disk_bytes / user_bytes;
  const double recover_us = MedianWallUs(reps, [&] {
    auto reopened = durability::DurableCatalog::Open(storage_dir);
    SYSTOLIC_CHECK(reopened.ok()) << reopened.status().ToString();
    SYSTOLIC_CHECK((*reopened)->catalog().RelationNames().size() ==
                   2 * kStoragePairs);
  });
  std::printf("\n-- checkpointed storage (%zu int64 relations, %zu tuples, "
              "median of %zu opens) --\n",
              2 * kStoragePairs, stored_tuples, reps);
  std::printf("%-22s %-12.0f\n", "user bytes", user_bytes);
  std::printf("%-22s %-12.0f\n", "directory bytes", disk_bytes);
  std::printf("bytes per user byte %.3f (<= %.2f asserted)\n",
              bytes_per_user_byte, kStorageBar);
  std::printf("recover %.0f us, %.0f tuples/s (reported only)\n", recover_us,
              stored_tuples / (recover_us / 1e6));
  SYSTOLIC_CHECK(bytes_per_user_byte <= kStorageBar)
      << "a checkpoint takes " << bytes_per_user_byte
      << " bytes per user byte, above the " << kStorageBar << " bar";
  json.Case("durable_bytes_per_user_byte_x1000", 0,
            bytes_per_user_byte * 1000.0);
  json.Case("checkpoint_recover", 0, recover_us * 1e3);

  std::filesystem::remove_all(commit_dir);
  std::filesystem::remove_all(replay_dir);
  std::filesystem::remove_all(off_dir);
  std::filesystem::remove_all(storage_dir);
  std::printf("\nall durability bars held: commit overhead, replay rate and "
              "storage bytes within bounds\n");
  return 0;
}
