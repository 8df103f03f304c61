// Experiment E24 — the vectorized fast-path executor (src/fastpath) vs the
// pulse-level RTL simulator.
//
// Runs the same large relational operations on two engines over an
// identical device shape — backend rtl (cycle-accurate simulation) and
// backend fast (packed bitwise kernels with analytic pulse counts) — and
// reports, per operation:
//
//   * wall-clock time for both backends and the speedup ratio,
//   * the pulse count from both (asserted identical: the analytic-timing
//     contract),
//   * bit-identical result relations (asserted).
//
// The acceptance bar: the aggregate wall-clock speedup across the sweep
// must be >= 5x (>= 2x in `--smoke`, where the shrunken operands leave
// less simulation to skip). Every case lands in BENCH_bench_fastpath.json
// twice — backend "rtl" and backend "fast" — which is what
// scripts/check_bench_regression.py uses to hold the fast/rtl wall ratio.
//
// E24b then runs the §8 tiled regime on the fast backend alone: 4 chips of
// 63 rows, where a 10^4-tuple intersection is 313² = 97,969 tiles (4000
// tuples under `--smoke`). The fast path computes each operator once over
// whole operands and gives every tile a closed-form pass record, so host
// time per tile must not grow with the tile count: ns/tile at the large
// size is asserted within 2x of n = 1000. Division and selection run at
// the large size only, and the default (kAuto) dedup, whose fixed-B
// strips stream A's suffix past each preloaded block, runs beside the
// pinned-marching rows at both sizes. These cases land in the JSON as
// backend "fast" with no rtl twin, so only their cycles are gated.
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
#include "fastpath/backend.h"

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
  systolic::bench::JsonWriter json("bench_fastpath");
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 192 : 1024;
  const size_t join_n = smoke ? 96 : 384;

  const rel::Schema schema = rel::MakeIntSchema(3);
  const rel::RelationPair pair = MakePair(schema, n, n, 0.3, 61);
  const rel::RelationPair join_pair =
      MakePair(rel::MakeIntSchema(2), join_n, join_n, 0.3, 62);
  const rel::Relation divisor = Unwrap(join_pair.b.ProjectColumns({1}));

  DeviceConfig device;  // unbounded grid: one tile, maximal simulation
  Engine rtl(device);
  device.backend = fastpath::Backend::kFast;
  Engine fast(device);

  std::printf("=== E24: fast-path executor vs RTL simulation (n=%zu, "
              "join n=%zu) ===\n",
              n, join_n);
  std::printf("%-12s %-12s %-12s %-12s %-10s\n", "op", "pulses", "rtl_ms",
              "fast_ms", "speedup");

  double rtl_total_ns = 0;
  double fast_total_ns = 0;
  const auto run_case =
      [&](const char* name,
          const std::function<Result<EngineResult>(Engine&)>& body) {
        const auto rtl_start = std::chrono::steady_clock::now();
        const EngineResult rtl_run = Unwrap(body(rtl));
        const double rtl_ns = WallNs(rtl_start);
        const auto fast_start = std::chrono::steady_clock::now();
        const EngineResult fast_run = Unwrap(body(fast));
        const double fast_ns = WallNs(fast_start);
        SYSTOLIC_CHECK(rtl_run.relation.tuples() == fast_run.relation.tuples())
            << name << ": fast path diverged from the RTL simulation";
        SYSTOLIC_CHECK(rtl_run.stats.cycles == fast_run.stats.cycles)
            << name << ": analytic pulse count " << fast_run.stats.cycles
            << " != simulated " << rtl_run.stats.cycles;
        rtl_total_ns += rtl_ns;
        fast_total_ns += fast_ns;
        std::printf("%-12s %-12zu %-12.3f %-12.3f %-10.1f\n", name,
                    rtl_run.stats.cycles, rtl_ns / 1e6, fast_ns / 1e6,
                    rtl_ns / fast_ns);
        json.Case(name, static_cast<double>(rtl_run.stats.cycles), rtl_ns,
                  "rtl");
        json.Case(name, static_cast<double>(fast_run.stats.cycles), fast_ns,
                  "fast");
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
  run_case("join_lt", [&](Engine& e) {
    return e.Join(join_pair.a, join_pair.b,
                  rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kLt});
  });
  run_case("divide", [&](Engine& e) {
    return e.Divide(join_pair.a, divisor, rel::DivisionSpec{{1}, {0}});
  });
  run_case("select", [&](Engine& e) {
    return e.Select(pair.a,
                    {{0, rel::ComparisonOp::kLt, 512},
                     {2, rel::ComparisonOp::kGe, 16}});
  });

  const double speedup = rtl_total_ns / fast_total_ns;
  const double bar = smoke ? 2.0 : 5.0;
  std::printf("\naggregate speedup %.1fx (>= %.0fx asserted)\n", speedup, bar);
  SYSTOLIC_CHECK(speedup >= bar)
      << "fast-path aggregate speedup " << speedup
      << "x fell below the " << bar << "x bar";
  std::printf("all cases bit-identical with identical pulse counts\n");

  DeviceConfig tiled_device;
  tiled_device.rows = 63;
  tiled_device.mode = arrays::FeedModePolicy::kMarching;
  tiled_device.num_chips = 4;
  tiled_device.backend = fastpath::Backend::kFast;
  Engine tiled(tiled_device);
  const size_t large = smoke ? 4000 : 10000;
  std::printf("\n=== E24b: fast backend over many tiles (rows=%zu, chips=%zu) "
              "===\n",
              tiled_device.rows, tiled_device.num_chips);
  std::printf("%-10s %-7s %-8s %-12s %-10s %-8s\n", "op", "n", "tiles",
              "pulses", "ms", "ns/tile");
  const rel::Schema tiled_schema = rel::MakeIntSchema(2);
  const rel::RelationPair small_pair =
      MakePair(tiled_schema, 1000, 1000, 0.3, 63);
  const rel::RelationPair large_pair =
      MakePair(tiled_schema, large, large, 0.3, 64);
  const auto run_tiled =
      [&](const char* name, const rel::RelationPair& operands,
          const std::function<Result<EngineResult>(const rel::RelationPair&)>&
              body) {
        // Best of three: the n = 1000 leg lasts about a millisecond.
        double best_ns = 0;
        EngineResult run = Unwrap(body(operands));
        for (int rep = 0; rep < 3; ++rep) {
          const auto start = std::chrono::steady_clock::now();
          run = Unwrap(body(operands));
          const double ns = WallNs(start);
          best_ns = rep == 0 ? ns : std::min(best_ns, ns);
        }
        const size_t tuples = operands.a.num_tuples();
        const double per_tile = best_ns / static_cast<double>(run.stats.passes);
        std::printf("%-10s %-7zu %-8zu %-12zu %-10.2f %-8.0f\n", name, tuples,
                    run.stats.passes, run.stats.cycles, best_ns / 1e6,
                    per_tile);
        json.Case(std::string("tiled_") + name + "_" + std::to_string(tuples),
                  static_cast<double>(run.stats.cycles), best_ns, "fast");
        return per_tile;
      };
  const auto scaling_case =
      [&](const char* name,
          const std::function<Result<EngineResult>(const rel::RelationPair&)>&
              body) {
        const double small_ns = run_tiled(name, small_pair, body);
        const double large_ns = run_tiled(name, large_pair, body);
        SYSTOLIC_CHECK(large_ns <= 2.0 * small_ns)
            << name << ": " << large_ns << " ns/tile at n=" << large
            << " exceeds 2x the " << small_ns << " ns/tile at n=1000";
      };
  scaling_case("intersect", [&](const rel::RelationPair& p) {
    return tiled.Intersect(p.a, p.b);
  });
  scaling_case("join_eq", [&](const rel::RelationPair& p) {
    return tiled.Join(p.a, p.b,
                      rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq});
  });
  scaling_case("dedup", [&](const rel::RelationPair& p) {
    return tiled.RemoveDuplicates(p.a);
  });
  std::printf("host ns/tile at n=%zu within 2x of n=1000 (asserted)\n", large);

  // The default (kAuto) dedup beside the pinned-marching rows: its fixed-B
  // candidate streams A's suffix past each preloaded block, one strip per
  // block, where that is no worse than the block-pair triangle.
  DeviceConfig auto_device = tiled_device;
  auto_device.mode = arrays::FeedModePolicy::kAuto;
  const Engine tiled_auto(auto_device);
  for (const rel::RelationPair* operands : {&small_pair, &large_pair}) {
    run_tiled("dedup_auto", *operands, [&](const rel::RelationPair& p) {
      return tiled_auto.RemoveDuplicates(p.a);
    });
  }

  // Division and selection run over whole operands too: A keyed on column
  // 0 divided by four of B's column-1 values, and a two-predicate σ.
  const rel::Relation column1 = Unwrap(large_pair.b.ProjectColumns({1}));
  rel::Relation divisor_four(column1.schema(), rel::RelationKind::kMulti);
  for (size_t j = 0; j < 4; ++j) {
    SYSTOLIC_CHECK(divisor_four.Append(column1.tuple(j)).ok());
  }
  run_tiled("divide", large_pair, [&](const rel::RelationPair& p) {
    return tiled.Divide(p.a, divisor_four, rel::DivisionSpec{{1}, {0}});
  });
  run_tiled("select", large_pair, [&](const rel::RelationPair& p) {
    return tiled.Select(p.a, {{0, rel::ComparisonOp::kLt,
                               static_cast<rel::Code>(2 * large)},
                              {1, rel::ComparisonOp::kGe, 16}});
  });
  return 0;
}
