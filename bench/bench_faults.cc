// Experiment E21 — fault injection: detection overhead and degradation.
//
// One §8 tiled workload (intersection + equi-join on a generated pair),
// three reports:
//
//   1. Detection overhead. The same workload with no fault plan vs a
//      zero-rate plan (FaultScope armed on every tile, checksums computed,
//      nothing injected). Output must stay bit-identical with zero faults
//      reported; the median wall-clock ratio is the price of arming the
//      detection machinery, expected <= 10%.
//
//   2. Degradation vs transient rate. As the per-decision bit-flip rate
//      rises, detected faults and tile retries climb while the output stays
//      bit-identical — until the rate corrupts essentially every attempt,
//      chips strike out and the engine reports Unavailable rather than
//      returning wrong data.
//
//   3. Degradation vs dead chips. Work migrates off dead chips (each costs
//      one detected fault + one retry on first touch); the result stays
//      exact down to a single survivor, and the all-dead device fails with
//      Unavailable, never silently.
//
// Correctness bars are asserted (they are deterministic); the overhead
// ratio is reported, not asserted — wall clock on shared CI is noisy.
// The faulted devices are default devices, whose kAuto feed discipline keeps
// marching's short tiles under a fault plan; the fault-free reference pins
// marching so both runs execute the same tiles.
// `--smoke` shrinks the workload for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "faults/fault_plan.h"

namespace {

using namespace systolic;
using systolic::bench::MakePair;
using systolic::bench::Unwrap;
using db::DeviceConfig;
using db::Engine;

struct RunOutcome {
  bool ok = false;
  bool unavailable = false;
  std::vector<rel::Tuple> tuples;  // intersect output, then join output
  db::ExecStats stats;
  double wall_us = 0;
};

/// Runs intersect + equi-join once on a fresh engine and folds both passes'
/// stats together. A fresh engine per run keeps the health ledger cold, so
/// every run pays (and reports) its own quarantines.
RunOutcome RunOnce(const DeviceConfig& device, const rel::RelationPair& pair) {
  Engine engine(device);
  RunOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  auto intersect = engine.Intersect(pair.a, pair.b);
  auto join = engine.Join(pair.a, pair.b,
                          rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq});
  outcome.wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  outcome.ok = intersect.ok() && join.ok();
  outcome.unavailable =
      intersect.status().IsUnavailable() || join.status().IsUnavailable();
  if (!outcome.ok) return outcome;
  const rel::TupleRange intersect_tuples = intersect->relation.tuples();
  const rel::TupleRange join_tuples = join->relation.tuples();
  outcome.tuples.assign(intersect_tuples.begin(), intersect_tuples.end());
  outcome.tuples.insert(outcome.tuples.end(), join_tuples.begin(),
                        join_tuples.end());
  outcome.stats = intersect->stats;
  outcome.stats.faults_detected += join->stats.faults_detected;
  outcome.stats.tile_retries += join->stats.tile_retries;
  outcome.stats.makespan_cycles += join->stats.makespan_cycles;
  outcome.stats.healthy_chips =
      std::min(intersect->stats.healthy_chips, join->stats.healthy_chips);
  return outcome;
}

double MedianWallUs(const DeviceConfig& device, const rel::RelationPair& pair,
                    size_t reps) {
  std::vector<double> times;
  times.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    times.push_back(RunOnce(device, pair).wall_us);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

DeviceConfig FaultyDevice(size_t rows, size_t chips, double rate,
                          size_t num_dead) {
  DeviceConfig device;
  device.rows = rows;
  device.num_chips = chips;
  auto plan = std::make_shared<faults::FaultPlan>(
      faults::FaultPlan::Uniform(/*seed=*/21, chips, rate, rate / 2,
                                 rate / 4));
  for (size_t d = 0; d < num_dead; ++d) {
    plan->chip(chips - 1 - d).dead = true;
  }
  device.faults = std::move(plan);
  return device;
}

}  // namespace

int main(int argc, char** argv) {
  systolic::bench::JsonWriter json("bench_faults");
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 48 : 160;
  const size_t rows = smoke ? 5 : 9;
  const size_t chips = 4;
  const size_t reps = smoke ? 5 : 11;

  const rel::Schema schema = rel::MakeIntSchema(2);
  const rel::RelationPair pair = MakePair(schema, n, n * 5 / 6, 0.5, 21);

  DeviceConfig clean_device;
  clean_device.rows = rows;
  clean_device.mode = arrays::FeedModePolicy::kMarching;
  clean_device.num_chips = chips;
  const RunOutcome oracle = RunOnce(clean_device, pair);
  SYSTOLIC_CHECK(oracle.ok);

  // 1. Detection overhead at fault rate 0.
  std::printf("=== E21: fault injection — detection overhead and "
              "degradation ===\n");
  const DeviceConfig armed = FaultyDevice(rows, chips, 0.0, 0);
  const RunOutcome armed_run = RunOnce(armed, pair);
  SYSTOLIC_CHECK(armed_run.ok);
  SYSTOLIC_CHECK(armed_run.tuples == oracle.tuples)
      << "zero-rate plan changed the output";
  SYSTOLIC_CHECK(armed_run.stats.faults_detected == 0);
  const double clean_us = MedianWallUs(clean_device, pair, reps);
  const double armed_us = MedianWallUs(armed, pair, reps);
  std::printf("\n-- detection overhead (rate 0, median of %zu) --\n", reps);
  std::printf("%-18s %-12s\n", "config", "wall_us");
  std::printf("%-18s %-12.0f\n", "no plan", clean_us);
  std::printf("%-18s %-12.0f\n", "armed, rate 0", armed_us);
  std::printf("overhead %.1f%% (<= 10%% expected)\n",
              (armed_us / clean_us - 1.0) * 100.0);
  json.Case("workload_clean", static_cast<double>(oracle.stats.makespan_cycles),
            clean_us * 1e3);
  json.Case("workload_armed_rate0",
            static_cast<double>(armed_run.stats.makespan_cycles),
            armed_us * 1e3);

  // 2. Degradation vs transient fault rate.
  std::printf("\n-- degradation vs bit-flip rate (%zu chips) --\n", chips);
  std::printf("%-10s %-8s %-8s %-8s %-10s %-12s\n", "rate", "faults",
              "retries", "healthy", "makespan", "result");
  for (const double rate : {0.0, 0.00002, 0.0001, 0.0003, 0.01}) {
    const RunOutcome run = RunOnce(FaultyDevice(rows, chips, rate, 0), pair);
    if (run.ok) {
      SYSTOLIC_CHECK(run.tuples == oracle.tuples)
          << "recovered output diverged at rate " << rate;
    } else {
      // The engine may degrade to Unavailable under saturating fault rates;
      // it must never return silently wrong data.
      SYSTOLIC_CHECK(run.unavailable);
    }
    std::printf("%-10g %-8zu %-8zu %-8zu %-10zu %-12s\n", rate,
                run.stats.faults_detected, run.stats.tile_retries,
                run.stats.healthy_chips, run.stats.makespan_cycles,
                run.ok ? "exact" : "unavailable");
  }

  // 3. Degradation vs dead chips.
  std::printf("\n-- degradation vs dead chips (%zu chips, rate 0) --\n",
              chips);
  std::printf("%-10s %-8s %-8s %-8s %-10s %-12s\n", "dead", "faults",
              "retries", "healthy", "makespan", "result");
  for (size_t dead = 0; dead <= chips; ++dead) {
    const RunOutcome run = RunOnce(FaultyDevice(rows, chips, 0.0, dead),
                                   pair);
    if (dead < chips) {
      SYSTOLIC_CHECK(run.ok);
      SYSTOLIC_CHECK(run.tuples == oracle.tuples)
          << "output diverged with " << dead << " dead chips";
      SYSTOLIC_CHECK(run.stats.healthy_chips == chips - dead);
    } else {
      SYSTOLIC_CHECK(!run.ok && run.unavailable)
          << "all-dead device must report unavailable";
    }
    std::printf("%-10zu %-8zu %-8zu %-8zu %-10zu %-12s\n", dead,
                run.stats.faults_detected, run.stats.tile_retries,
                run.stats.healthy_chips, run.stats.makespan_cycles,
                run.ok ? "exact" : "unavailable");
  }

  std::printf("\nall correctness bars held: recovered output bit-identical, "
              "degradation never silent\n");
  return 0;
}
