// Experiment E10 — §8's problem decomposition: "one can simply partition
// this matrix into sub-problems small enough to fit on the array".
//
// Fixes one intersection problem (n x n) and sweeps the physical device's
// row count. Reports passes (which must match ceil(n/cap)^2), total pulses
// across passes, and verifies the result is identical to the single-pass
// run. The shape to hold: smaller devices need quadratically more passes
// but each pass is proportionally shorter, so total pulses grow only
// mildly (per-pass pipeline fill/drain overhead).
//
// E10b — multi-chip parallel execution: the sub-problems are mutually
// independent, so a pool of chips runs them concurrently. Sweeps the chip
// count on a fixed >= 16-tile workload and reports device-time speedup
// (modeled from the critical-path pulses) and host wall-clock speedup
// (bounded by the machine's real cores).
//
// E10c — §8's fixed-relation discipline on the paper's own case: a 10^4 x
// 10^4 intersection and a 10^4-tuple remove-duplicates (4000 under
// `--smoke`) on 4 chips of 63 rows and on one chip of 1000 rows (the
// paper's ~1000 comparators per chip), on the fast backend. Fixed-B dedup
// runs one strip per preloaded block over A's suffix where that is no worse
// than the block-pair triangle. Explicit marching, explicit fixed-B and the
// default (kAuto, whose guard schedules both tilings and keeps fixed-B only
// where it is no worse on cycles, makespan and memory makespan) each report
// passes, cycles, makespan, memory makespan and host wall time; the
// 1000-row chip has no marching leg, since marching pairs meet only on odd
// row counts. Asserted, per operation:
// the default is no worse than marching on the three counters, its cycles
// are strictly fewer, and its host time stays within 2x of explicit
// fixed-B's — the guard's look at the rejected marching grid must stay
// cheap.
//
// E10 and E10b describe the marching tiling ((rows+1)/2 capacity) and pin
// it. `--smoke` shrinks all three experiments to a CI-sized instant run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "bench_util.h"
#include "core/engine.h"
#include "perfmodel/estimates.h"
#include "relational/ops_reference.h"

namespace {

using namespace systolic;
using systolic::bench::MakePair;
using systolic::bench::Unwrap;

double WallMs(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  systolic::bench::JsonWriter json("bench_decomposition");
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 32 : 96;
  const rel::Schema schema = rel::MakeIntSchema(3);
  const rel::RelationPair pair = MakePair(schema, n, n, 0.4, 19);
  const rel::Relation oracle =
      Unwrap(rel::reference::Intersection(pair.a, pair.b));

  std::printf("=== E10: §8 decomposition — intersection of two %zux%zu-tuple "
              "relations on shrinking devices ===\n",
              n, n);
  std::printf("%-12s %-10s %-8s %-12s %-12s %-10s %-8s\n", "device_rows",
              "capacity", "passes", "exp_passes", "total_pulses", "device_ms",
              "correct");

  const perf::Technology tech = perf::Technology::Conservative1980();
  for (size_t rows : {size_t{0}, size_t{191}, size_t{95}, size_t{63},
                      size_t{31}, size_t{15}, size_t{7}}) {
    db::DeviceConfig device;
    device.rows = rows;
    device.mode = arrays::FeedModePolicy::kMarching;
    db::Engine engine(device);
    const auto result = Unwrap(engine.Intersect(pair.a, pair.b));
    const size_t cap = rows == 0 ? n : (rows + 1) / 2;
    const size_t blocks = (n + cap - 1) / cap;
    const bool correct = result.relation.tuples() == oracle.tuples();
    std::printf("%-12zu %-10zu %-8zu %-12zu %-12zu %-10.3f %-8s\n", rows, cap,
                result.stats.passes, blocks * blocks, result.stats.cycles,
                perf::SecondsForCycles(tech, result.stats.cycles) * 1e3,
                correct ? "yes" : "NO");
    json.Case("tiled_rows" + std::to_string(rows),
              static_cast<double>(result.stats.cycles), 0);
  }

  std::printf("\n(expected passes = ceil(n/capacity)^2, capacity = "
              "(rows+1)/2 for the marching array)\n");

  // --- E10b: the sub-problems run in parallel on a pool of chips. ---
  const size_t np = smoke ? 48 : 192;
  const size_t rows_p = smoke ? 23 : 95;  // capacity np/4: 4x4 = 16 tiles
  const size_t reps = smoke ? 1 : 3;
  const rel::RelationPair pair_p = MakePair(rel::MakeIntSchema(3), np, np,
                                            0.4, 23);
  std::printf("\n=== E10b: multi-chip parallel tiled execution — "
              "intersection of two %zu-tuple relations, %zu-row device "
              "(16 tiles) ===\n",
              np, rows_p);
  std::printf("%-6s %-8s %-14s %-16s %-12s %-12s %-10s %-8s\n", "chips",
              "passes", "sum_pulses", "makespan_pulses", "device_ms",
              "device_spdup", "host_ms", "correct");

  double serial_device_ms = 0;
  double serial_host_ms = 0;
  double host_ms_at_4 = 0;
  std::vector<rel::Tuple> serial_tuples;
  for (size_t chips : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    db::DeviceConfig device;
    device.rows = rows_p;
    device.mode = arrays::FeedModePolicy::kMarching;
    device.num_chips = chips;
    db::Engine engine(device);
    // Warm once (thread spawn, allocator), then time.
    (void)Unwrap(engine.Intersect(pair_p.a, pair_p.b));
    const auto start = std::chrono::steady_clock::now();
    db::EngineResult result = Unwrap(engine.Intersect(pair_p.a, pair_p.b));
    for (size_t r = 1; r < reps; ++r) {
      result = Unwrap(engine.Intersect(pair_p.a, pair_p.b));
    }
    const double host_ms = WallMs(start) / static_cast<double>(reps);
    const double device_ms =
        perf::SecondsForCycles(tech, result.stats.makespan_cycles) * 1e3;
    if (chips == 1) {
      serial_device_ms = device_ms;
      serial_host_ms = host_ms;
      serial_tuples = result.relation.tuples();
    }
    if (chips == 4) host_ms_at_4 = host_ms;
    std::printf("%-6zu %-8zu %-14zu %-16zu %-12.3f %-12.2f %-10.2f %-8s\n",
                chips, result.stats.passes, result.stats.cycles,
                result.stats.makespan_cycles, device_ms,
                serial_device_ms / device_ms, host_ms,
                result.relation.tuples() == serial_tuples ? "yes" : "NO");
    json.Case("parallel_chips" + std::to_string(chips),
              static_cast<double>(result.stats.makespan_cycles),
              host_ms * 1e6);
  }
  std::printf("\n(device_ms models the multi-chip hardware: critical-path "
              "pulses at the §8 clock. host wall speedup at 4 chips: %.2fx "
              "— bounded by this machine's available cores)\n",
              host_ms_at_4 > 0 ? serial_host_ms / host_ms_at_4 : 0.0);

  // --- E10c: §8's fixed-relation discipline, chosen per operation. ---
  const size_t n8 = smoke ? 4000 : 10000;
  const rel::RelationPair pair8 =
      MakePair(rel::MakeIntSchema(2), n8, n8, 0.3, 8);
  using Body = std::function<Result<db::EngineResult>(const db::Engine&)>;
  const auto e10c = [&](const char* op, const rel::Relation& oracle8,
                        const Body& body) {
    std::printf("\n=== E10c: §8 fixed-B vs marching — %s of %zu-tuple "
                "relations, fast backend ===\n",
                op, n8);
    std::printf("%-12s %-9s %-8s %-12s %-12s %-14s %-10s %-8s\n", "device",
                "mode", "passes", "cycles", "makespan", "mem_makespan",
                "host_ms", "correct");
    for (const auto& [chips, rows] : {std::pair<size_t, size_t>{4, 63},
                                      std::pair<size_t, size_t>{1, 1000}}) {
      const std::string shape =
          std::to_string(chips) + "x" + std::to_string(rows);
      const auto run = [&](arrays::FeedModePolicy mode, const char* name) {
        db::DeviceConfig device;
        device.rows = rows;
        device.num_chips = chips;
        device.mode = mode;
        device.backend = fastpath::Backend::kFast;
        const db::Engine engine(device);
        // Best of five: the fixed-B legs last about a millisecond.
        db::EngineResult result = Unwrap(body(engine));
        double best_ms = 0;
        for (int rep = 0; rep < 5; ++rep) {
          const auto start = std::chrono::steady_clock::now();
          result = Unwrap(body(engine));
          const double ms = WallMs(start);
          best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        }
        const db::ExecStats& st = result.stats;
        const bool correct = result.relation.tuples() == oracle8.tuples();
        std::printf("%-12s %-9s %-8zu %-12zu %-12zu %-14zu %-10.2f %-8s\n",
                    shape.c_str(), name, st.passes, st.cycles,
                    st.makespan_cycles, st.memory_makespan_cycles, best_ms,
                    correct ? "yes" : "NO");
        SYSTOLIC_CHECK(correct) << shape << " " << name << ": wrong result";
        json.Case(std::string("s8_") + op + "_" + std::to_string(n8) + "_" +
                      shape + "_" + name,
                  static_cast<double>(st.cycles), best_ms * 1e6, "fast");
        return std::make_pair(st, best_ms);
      };
      // §3.2's marching pairs never meet on an even row count, where
      // explicit marching is a usage error and the default runs fixed-B.
      std::optional<db::ExecStats> marching;
      if (rows % 2 == 1) {
        marching = run(arrays::FeedModePolicy::kMarching, "marching").first;
      }
      const auto [fixed, fixed_ms] =
          run(arrays::FeedModePolicy::kFixedB, "fixed-B");
      const auto [chosen, chosen_ms] =
          run(arrays::FeedModePolicy::kAuto, "default");
      SYSTOLIC_CHECK(!marching.has_value() ||
                     (chosen.cycles < marching->cycles &&
                      chosen.makespan_cycles <= marching->makespan_cycles &&
                      chosen.memory_makespan_cycles <=
                          marching->memory_makespan_cycles))
          << op << " " << shape << ": the default is worse than marching";
      SYSTOLIC_CHECK(chosen_ms <= 2.0 * fixed_ms)
          << op << " " << shape << ": the default took " << chosen_ms
          << " ms, over 2x explicit fixed-B's " << fixed_ms << " ms";
    }
  };
  e10c("intersect", Unwrap(rel::reference::Intersection(pair8.a, pair8.b)),
       [&](const db::Engine& engine) {
         return engine.Intersect(pair8.a, pair8.b);
       });
  // Remove-duplicates: fixed-B streams A's suffix past each preloaded block
  // (one strip per block) where that is no worse than the block-pair
  // triangle.
  e10c("dedup", Unwrap(rel::reference::RemoveDuplicates(pair8.a)),
       [&](const db::Engine& engine) {
         return engine.RemoveDuplicates(pair8.a);
       });
  std::printf("\n(default: no worse than marching on cycles, makespan and "
              "memory makespan, strictly fewer cycles, host time within 2x "
              "of explicit fixed-B — asserted)\n");
  return 0;
}
