// Experiment E20 — the cost-based query planner (src/planner).
//
// Two workloads, each planned and then executed both literally and as the
// planner emits it, on identical machines:
//
//   W1  selection below join: JOIN supplies parts, then a selective σ on a
//       part attribute. The planner splits the conjunction and pushes it
//       below the join, shrinking the join grid. The shape to hold (and the
//       acceptance bar checked here): >= 2x modeled pulse reduction, with
//       the measured pulse ratio agreeing in direction.
//
//   W2  membership chain + redundant dedup: A ∩ F_big ∩ F_small followed by
//       REMOVE-DUPLICATES. The planner applies the 2-row filter first and
//       elides the dedup (the chain output is provably duplicate-free).
//
// Result buffers are cross-checked bit-for-bit against the literal run, so
// the speedups reported here are never bought with a semantics change.
// `--smoke` shrinks the workloads for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "planner/physical.h"
#include "system/machine.h"

namespace {

using namespace systolic;
using systolic::bench::Unwrap;
using machine::Machine;
using machine::MachineConfig;
using machine::Transaction;

struct RunResult {
  std::map<std::string, std::vector<rel::Tuple>> sinks;
  size_t pulses = 0;
  double serial_us = 0;
};

systolic::bench::JsonWriter* g_json = nullptr;

RunResult RunOn(const MachineConfig& config,
                const std::map<std::string, rel::Relation>& inputs,
                const Transaction& txn,
                const std::vector<std::string>& sinks) {
  Machine m(config);
  for (const auto& [name, r] : inputs) {
    SYSTOLIC_CHECK(m.StoreBuffer(name, r).ok());
  }
  const auto report = Unwrap(m.Execute(txn));
  RunResult result;
  for (const auto& step : report.steps) result.pulses += step.exec.cycles;
  result.serial_us = report.serial_seconds * 1e6;
  for (const std::string& sink : sinks) {
    const rel::TupleRange tuples = (*Unwrap(m.Buffer(sink))).tuples();
    result.sinks[sink].assign(tuples.begin(), tuples.end());
  }
  return result;
}

std::map<std::string, planner::InputInfo> Catalog(
    const std::map<std::string, rel::Relation>& inputs) {
  std::map<std::string, planner::InputInfo> catalog;
  for (const auto& [name, r] : inputs) {
    catalog[name] = {r.schema(), r.num_tuples(),
                     planner::ProvablyDuplicateFree(r)};
  }
  return catalog;
}

/// Plans `txn`, runs literal vs planned, checks bit-identity of `sinks`,
/// prints one table row, and returns the modeled pulse ratio.
double Compare(const char* workload, const MachineConfig& config,
               const std::map<std::string, rel::Relation>& inputs,
               const Transaction& txn,
               const std::vector<std::string>& sinks) {
  planner::PlannerOptions options;
  options.params.default_device = config.device;
  options.params.device_configs = config.device_configs;
  options.params.device_counts = config.device_counts;
  const planner::PlannedTransaction planned =
      Unwrap(planner::PlanTransaction(txn, Catalog(inputs), options));

  const RunResult literal = RunOn(config, inputs, txn, sinks);
  const RunResult optimized =
      RunOn(config, inputs, planned.transaction, sinks);
  for (const std::string& sink : sinks) {
    SYSTOLIC_CHECK(literal.sinks.at(sink) == optimized.sinks.at(sink))
        << workload << ": result buffer '" << sink
        << "' diverged between the literal and planned executions";
  }

  const double modeled_ratio =
      planned.est_total_pulses == 0
          ? 0
          : planned.est_total_pulses_before / planned.est_total_pulses;
  const double measured_ratio =
      optimized.pulses == 0
          ? 0
          : static_cast<double>(literal.pulses) /
                static_cast<double>(optimized.pulses);
  std::printf("%-10s %-12.0f %-12.0f %-10.2f %-12zu %-12zu %-10.2f %-10.2f\n",
              workload, planned.est_total_pulses_before,
              planned.est_total_pulses, modeled_ratio, literal.pulses,
              optimized.pulses, measured_ratio,
              literal.serial_us / optimized.serial_us);
  std::printf("           %s\n", planned.rewrites.ToString().c_str());
  if (g_json != nullptr) {
    g_json->Case(std::string(workload) + "_literal",
                 static_cast<double>(literal.pulses), literal.serial_us * 1e3);
    g_json->Case(std::string(workload) + "_planned",
                 static_cast<double>(optimized.pulses),
                 optimized.serial_us * 1e3);
  }
  return modeled_ratio;
}

}  // namespace

int main(int argc, char** argv) {
  systolic::bench::JsonWriter json("bench_planner");
  g_json = &json;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 48 : 240;

  std::printf("=== E20: cost-based query planner — modeled and measured "
              "pulses, literal vs planned ===\n");
  std::printf("%-10s %-12s %-12s %-10s %-12s %-12s %-10s %-10s\n", "workload",
              "est_before", "est_after", "est_ratio", "pulses_lit",
              "pulses_plan", "meas_ratio", "serial_x");

  MachineConfig config;
  config.num_memories = 32;
  config.device.rows = smoke ? 9 : 17;

  // W1: selection below join.
  double w1_ratio = 0;
  {
    auto dp = rel::Domain::Make("part", rel::ValueType::kInt64);
    auto ds = rel::Domain::Make("supplier", rel::ValueType::kInt64);
    auto dw = rel::Domain::Make("weight", rel::ValueType::kInt64);
    const rel::Schema supplies_schema{{{"supplier", ds}, {"part", dp}}};
    const rel::Schema parts_schema{{{"part", dp}, {"weight", dw}}};
    rel::RelationBuilder supplies(supplies_schema, rel::RelationKind::kMulti);
    rel::RelationBuilder parts(parts_schema, rel::RelationKind::kMulti);
    for (size_t i = 0; i < n; ++i) {
      SYSTOLIC_CHECK(supplies
                         .AddRow({rel::Value::Int64(static_cast<int64_t>(i)),
                                  rel::Value::Int64(
                                      static_cast<int64_t>(i % 12))})
                         .ok());
      SYSTOLIC_CHECK(
          parts
              .AddRow({rel::Value::Int64(static_cast<int64_t>(i % 12)),
                       rel::Value::Int64(static_cast<int64_t>(i % 10))})
              .ok());
    }
    std::map<std::string, rel::Relation> inputs;
    inputs.emplace("supplies", supplies.Finish());
    inputs.emplace("parts", parts.Finish());
    Transaction txn;
    txn.Join("supplies", "parts",
             rel::JoinSpec{{1}, {0}, rel::ComparisonOp::kEq}, "shipped")
        .Select("shipped", {{2, rel::ComparisonOp::kGe, 9}}, "heavy");
    w1_ratio = Compare("W1 sigma<join", config, inputs, txn, {"heavy"});
  }

  // W2: membership chain + redundant dedup.
  {
    const rel::Schema schema = rel::MakeIntSchema(1, "chain");
    rel::RelationBuilder a(schema), big(schema), small(schema);
    for (size_t i = 0; i < n; ++i) {
      SYSTOLIC_CHECK(
          a.AddRow({rel::Value::Int64(static_cast<int64_t>(i))}).ok());
      if (i % 2 == 0) {
        SYSTOLIC_CHECK(
            big.AddRow({rel::Value::Int64(static_cast<int64_t>(i))}).ok());
      }
    }
    SYSTOLIC_CHECK(small.AddRow({rel::Value::Int64(4)}).ok());
    SYSTOLIC_CHECK(small.AddRow({rel::Value::Int64(8)}).ok());
    std::map<std::string, rel::Relation> inputs;
    inputs.emplace("A", a.Finish());
    inputs.emplace("Fbig", big.Finish());
    inputs.emplace("Fsmall", small.Finish());
    Transaction txn;
    txn.Intersect("A", "Fbig", "t1")
        .Intersect("t1", "Fsmall", "t2")
        .RemoveDuplicates("t2", "picked");
    Compare("W2 chain", config, inputs, txn, {"picked"});
  }

  // Acceptance bar: the selection-below-join rewrite must model at least a
  // 2x pulse reduction.
  SYSTOLIC_CHECK(w1_ratio >= 2.0)
      << "W1 modeled pulse reduction regressed below 2x: " << w1_ratio;
  std::printf("\nW1 modeled pulse reduction %.2fx (>= 2x required)\n",
              w1_ratio);
  return 0;
}
