#include "planner/physical.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace systolic {
namespace planner {

using machine::OpKind;
using machine::PlanStep;
using machine::Transaction;

namespace {

size_t Round(double v) {
  return v <= 0 ? 0 : static_cast<size_t>(std::llround(v));
}

/// Sum of modeled pulses over the plan's reachable op nodes.
double TotalModeledPulses(const LogicalPlan& plan,
                          const PlannerParams& params) {
  double total = 0;
  for (size_t id : plan.TopoOrder()) {
    const Node& n = plan.node(id);
    if (n.is_input) continue;
    total += EstimateNodePulses(plan, n, params.DeviceFor(n.op).rows).pulses;
  }
  return total;
}

}  // namespace

Result<PlannedTransaction> PlanTransaction(
    const Transaction& txn, const std::map<std::string, InputInfo>& inputs,
    const PlannerOptions& options) {
  SYSTOLIC_ASSIGN_OR_RETURN(LogicalPlan plan,
                            LogicalPlan::FromTransaction(txn, inputs));
  EstimateCardinalities(&plan, options.rewrites.selectivity);

  PlannedTransaction out;
  out.est_total_pulses_before = TotalModeledPulses(plan, options.params);
  out.before = plan.ToString();

  if (options.enable_rewrites) {
    SYSTOLIC_ASSIGN_OR_RETURN(out.rewrites,
                              RunRewrites(&plan, options.rewrites));
  }
  out.after = plan.ToString();
  out.temp_buffers = plan.TempBufferNames();

  // Cost every emitted step on its op kind's device.
  struct NodeCost {
    StepCost cost;
    double est_rows = 0;
  };
  std::map<std::string, NodeCost> costs;
  for (size_t id : plan.TopoOrder()) {
    const Node& n = plan.node(id);
    if (n.is_input) continue;
    costs[n.name] = {
        EstimateNodePulses(plan, n, options.params.DeviceFor(n.op).rows),
        n.est_rows};
  }

  const Transaction emitted = plan.ToTransaction();
  std::vector<std::string> input_names;
  input_names.reserve(inputs.size());
  for (const auto& [name, info] : inputs) input_names.push_back(name);
  SYSTOLIC_ASSIGN_OR_RETURN(const std::vector<std::vector<size_t>> levels,
                            emitted.Schedule(input_names));

  for (size_t level = 0; level < levels.size(); ++level) {
    // Longest-processing-time order: the machine assigns a level's steps to
    // device instances round-robin in emission order, so emitting big steps
    // first balances the pools; the planner's own slot estimate below uses
    // the same greedy assignment.
    std::vector<size_t> order = levels[level];
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      const double px = costs.at(emitted.steps()[x].output).cost.pulses;
      const double py = costs.at(emitted.steps()[y].output).cost.pulses;
      if (px != py) return px > py;
      return x < y;  // deterministic tie-break
    });

    std::map<OpKind, std::vector<double>> loads;
    double level_makespan = 0;
    for (size_t s : order) {
      PlanStep step = emitted.steps()[s];
      const NodeCost& nc = costs.at(step.output);

      PlannedStep ps;
      ps.op = step.op;
      ps.output = step.output;
      ps.level = level;
      ps.est_pulses = nc.cost.pulses;
      ps.est_rows = nc.est_rows;
      ps.mode = nc.cost.mode;
      ps.has_mode_choice = nc.cost.has_mode_choice;

      // Pin the feed discipline only when the planner's operand
      // cardinalities are exact — i.e. every operand is an external input
      // read straight from the catalog — and only to a discipline the
      // device allows (never marching on an even row count). Estimated
      // intermediates keep the device's own policy (kAuto picks from the
      // exact schedule of the true sizes at run time).
      const bool exact = inputs.count(step.left) != 0 &&
                         (!machine::IsBinaryOp(step.op) ||
                          inputs.count(step.right) != 0);
      const db::DeviceConfig& device = options.params.DeviceFor(step.op);
      const std::vector<arrays::FeedMode> allowed =
          arrays::FeedModeCandidates(device.mode, device.rows);
      if (nc.cost.has_mode_choice && exact &&
          std::find(allowed.begin(), allowed.end(), nc.cost.mode) !=
              allowed.end()) {
        step.has_feed_hint = true;
        step.feed_hint = nc.cost.mode;
        ps.hinted = true;
      }

      std::vector<double>& pool = loads[step.op];
      if (pool.empty()) pool.assign(options.params.CountFor(step.op), 0.0);
      const size_t slot = static_cast<size_t>(
          std::min_element(pool.begin(), pool.end()) - pool.begin());
      ps.device_slot = slot;
      pool[slot] += nc.cost.pulses;

      out.est_total_pulses += nc.cost.pulses;
      out.transaction.Append(std::move(step));
      out.steps.push_back(std::move(ps));
    }
    for (const auto& [kind, pool] : loads) {
      for (double busy : pool) level_makespan = std::max(level_makespan, busy);
    }
    out.est_makespan_pulses += level_makespan;
  }
  return out;
}

std::string PlannedTransaction::ToString() const {
  std::ostringstream out;
  out << "logical plan (input):\n" << before;
  out << rewrites.ToString() << "\n";
  out << "logical plan (optimized):\n" << after;
  out << "physical plan: " << steps.size() << " step"
      << (steps.size() == 1 ? "" : "s") << ", est " << Round(est_total_pulses)
      << " pulses (naive " << Round(est_total_pulses_before)
      << "), critical path " << Round(est_makespan_pulses) << "\n";
  size_t last_level = static_cast<size_t>(-1);
  for (const PlannedStep& s : steps) {
    if (s.level != last_level) {
      out << "  level " << s.level << ":\n";
      last_level = s.level;
    }
    out << "    " << s.output << ": " << machine::OpKindToString(s.op)
        << " [slot " << s.device_slot << "]  est " << Round(s.est_pulses)
        << " pulses, ~" << Round(s.est_rows) << " rows";
    if (s.has_mode_choice) {
      out << ", feed=" << arrays::FeedModeToString(s.mode)
          << (s.hinted ? " (pinned)" : "");
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace planner
}  // namespace systolic
