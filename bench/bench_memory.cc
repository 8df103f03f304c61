// Experiment E26 — the S25 scratchpad/DMA memory hierarchy: double-buffered
// tile feeds (SET MEMORY overlap=on) vs strict load→compute→drain
// serialisation (overlap=off).
//
// Runs multi-tile relational operations on two RTL engines over an
// identical bounded device shape — the only difference is the overlap
// policy — and reports, per operation:
//
//   * the compute-only pulse count (asserted identical: overlap is a
//     memory-timing model, never a semantics or compute-timing change),
//   * DMA transfer pulses (asserted identical: the same feeds move),
//   * the memory-inclusive makespan under both policies, the pulses the
//     double-buffering hid, and the improvement ratio,
//   * bit-identical result relations (asserted).
//
// The acceptance bar: the aggregate makespan improvement across the sweep
// must be >= 1.25x — the §9 "high capacity for data transfer" requirement
// realised by overlapping tile N+1's mvin with tile N's compute. Every case
// lands in BENCH_bench_memory.json twice — backend "overlap_off" and
// "overlap_on", cycles = memory-inclusive makespan — which is what
// scripts/check_bench_regression.py uses to hold the off/on makespan ratio.
//
// A schedule-scaling case then queues 1k and 64k tiles on one chip's
// DmaQueue and schedules them: the wall time per tile at 64k must stay
// within 2x of that at 1k, so bank bookkeeping stays O(1) per command. Both
// land in the JSON with cycles = the queue's makespan.
//
// `--smoke` shrinks the sweep for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.h"
#include "core/engine.h"
#include "system/scratchpad/scratchpad.h"

namespace {

using namespace systolic;
using systolic::bench::MakePair;
using systolic::bench::Unwrap;
using db::DeviceConfig;
using db::Engine;
using db::EngineResult;

double WallNs(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  systolic::bench::JsonWriter json("bench_memory");
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 64 : 256;
  const size_t join_n = smoke ? 48 : 160;

  const rel::Schema schema = rel::MakeIntSchema(3);
  const rel::RelationPair pair = MakePair(schema, n, n, 0.3, 71);
  const rel::RelationPair join_pair =
      MakePair(rel::MakeIntSchema(2), join_n, join_n, 0.3, 72);
  const rel::Relation divisor = Unwrap(join_pair.b.ProjectColumns({1}));

  // A bounded grid so every operation decomposes into many §8 tiles — the
  // regime where inter-tile load/drain bubbles exist to hide. RTL backend:
  // the makespan being improved is the simulated machine's.
  DeviceConfig device;
  device.rows = 5;
  device.mode = arrays::FeedModePolicy::kMarching;
  device.num_chips = 2;
  device.overlap = spad::OverlapPolicy::kOff;
  Engine off(device);
  device.overlap = spad::OverlapPolicy::kOn;
  Engine on(device);

  std::printf("=== E26: scratchpad double-buffering, overlap=on vs off "
              "(n=%zu, join n=%zu, rows=%zu, chips=%zu) ===\n",
              n, join_n, device.rows, device.num_chips);
  std::printf("%-12s %-10s %-8s %-12s %-12s %-8s %-8s\n", "op", "compute",
              "dma", "mem_off", "mem_on", "hidden", "ratio");

  size_t off_total = 0;
  size_t on_total = 0;
  const auto run_case =
      [&](const char* name,
          const std::function<Result<EngineResult>(Engine&)>& body) {
        const auto off_start = std::chrono::steady_clock::now();
        const EngineResult off_run = Unwrap(body(off));
        const double off_ns = WallNs(off_start);
        const auto on_start = std::chrono::steady_clock::now();
        const EngineResult on_run = Unwrap(body(on));
        const double on_ns = WallNs(on_start);
        SYSTOLIC_CHECK(off_run.relation.tuples() == on_run.relation.tuples())
            << name << ": overlap changed the result relation";
        SYSTOLIC_CHECK(off_run.stats.cycles == on_run.stats.cycles)
            << name << ": overlap changed the compute pulse count";
        SYSTOLIC_CHECK(off_run.stats.dma_cycles == on_run.stats.dma_cycles)
            << name << ": overlap changed the transfer total";
        SYSTOLIC_CHECK(on_run.stats.memory_makespan_cycles <=
                       off_run.stats.memory_makespan_cycles)
            << name << ": double-buffering lengthened the memory makespan";
        off_total += off_run.stats.memory_makespan_cycles;
        on_total += on_run.stats.memory_makespan_cycles;
        const double ratio =
            static_cast<double>(off_run.stats.memory_makespan_cycles) /
            static_cast<double>(on_run.stats.memory_makespan_cycles);
        std::printf("%-12s %-10zu %-8zu %-12zu %-12zu %-8zu %-8.2f\n", name,
                    off_run.stats.cycles, off_run.stats.dma_cycles,
                    off_run.stats.memory_makespan_cycles,
                    on_run.stats.memory_makespan_cycles,
                    on_run.stats.overlap_cycles, ratio);
        json.Case(name,
                  static_cast<double>(off_run.stats.memory_makespan_cycles),
                  off_ns, "overlap_off");
        json.Case(name,
                  static_cast<double>(on_run.stats.memory_makespan_cycles),
                  on_ns, "overlap_on");
      };

  run_case("intersect", [&](Engine& e) {
    return e.Intersect(pair.a, pair.b);
  });
  run_case("subtract", [&](Engine& e) { return e.Subtract(pair.a, pair.b); });
  run_case("dedup", [&](Engine& e) { return e.RemoveDuplicates(pair.a); });
  run_case("join_eq", [&](Engine& e) {
    return e.Join(join_pair.a, join_pair.b,
                  rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq});
  });
  run_case("divide", [&](Engine& e) {
    return e.Divide(join_pair.a, divisor, rel::DivisionSpec{{1}, {0}});
  });

  const double improvement =
      static_cast<double>(off_total) / static_cast<double>(on_total);
  std::printf("\naggregate memory-makespan improvement %.2fx "
              "(>= 1.25x asserted)\n",
              improvement);
  SYSTOLIC_CHECK(improvement >= 1.25)
      << "scratchpad double-buffering improvement " << improvement
      << "x fell below the 1.25x bar";
  std::printf("all cases bit-identical with identical compute and transfer "
              "pulse totals\n");

  // Best of several runs per size: a 1k-tile schedule lasts ~0.1 ms.
  const auto schedule_ns_per_tile = [&](size_t tiles, const char* name) {
    double best_ns = 0;
    size_t makespan = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      spad::DmaQueue queue(/*overlap=*/true);
      for (size_t t = 0; t < tiles; ++t) {
        queue.Mvin(t, 512);
        queue.Preload(t, 512);
        queue.Compute(t, 130);
        queue.Mvout(t, 8);
      }
      makespan = queue.Makespan();
      const double ns = WallNs(start);
      best_ns = rep == 0 ? ns : std::min(best_ns, ns);
    }
    json.Case(name, static_cast<double>(makespan), best_ns, "overlap_on");
    return best_ns / static_cast<double>(tiles);
  };
  const double small_ns = schedule_ns_per_tile(1024, "schedule_1k");
  const double large_ns = schedule_ns_per_tile(65536, "schedule_64k");
  std::printf("DMA schedule: %.1f ns/tile at 1k tiles, %.1f ns/tile at 64k "
              "(<= 2x asserted)\n",
              small_ns, large_ns);
  SYSTOLIC_CHECK(large_ns <= 2.0 * small_ns)
      << "DMA schedule cost per tile grew " << large_ns / small_ns
      << "x from 1k to 64k tiles";
  return 0;
}
