#include "arrays/join_array.h"

#include <algorithm>

#include "arrays/comparison_grid.h"
#include "systolic/feeder.h"
#include "systolic/simulator.h"

namespace systolic {
namespace arrays {

Result<JoinArrayResult> SystolicJoin(const rel::Relation& a,
                                     const rel::Relation& b,
                                     const rel::JoinSpec& spec,
                                     const JoinArrayOptions& options) {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateJoinSpec(a.schema(), b.schema(), spec));
  SYSTOLIC_ASSIGN_OR_RETURN(
      rel::Schema out_schema,
      rel::JoinOutputSchema(a.schema(), b.schema(), spec));
  JoinArrayResult result(
      rel::Relation(std::move(out_schema), rel::RelationKind::kMulti));
  if (a.num_tuples() == 0 || b.num_tuples() == 0) {
    return result;
  }

  size_t rows = options.rows;
  if (rows == 0) {
    rows = options.mode == FeedMode::kMarching
               ? ComparisonGrid::RowsForMarching(
                     std::max(a.num_tuples(), b.num_tuples()))
               : b.num_tuples();
  }

  sim::Simulator simulator;
  GridConfig config;
  config.rows = rows;
  config.columns = spec.left_columns.size();
  config.op = spec.op;
  config.edge_rule = EdgeRule::kAllTrue;
  config.mode = options.mode;
  ComparisonGrid grid(&simulator, config);

  // The t_ij are used individually: a sink per row collects them as they
  // leave the right edge.
  std::vector<sim::SinkCell*> sinks;
  sinks.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    sinks.push_back(simulator.AddInfrastructureCell<sim::SinkCell>(
        "join-sink" + std::to_string(r), grid.right_edge(r)));
  }

  SYSTOLIC_RETURN_NOT_OK(grid.FeedA(a, spec.left_columns));
  if (options.mode == FeedMode::kMarching) {
    SYSTOLIC_RETURN_NOT_OK(grid.FeedB(b, spec.right_columns));
  } else {
    SYSTOLIC_RETURN_NOT_OK(grid.PreloadB(b, spec.right_columns));
  }

  const size_t max_cycles =
      options.max_cycles != 0
          ? options.max_cycles
          : DefaultMaxCycles(a.num_tuples(), b.num_tuples(), config.columns,
                             rows);
  SYSTOLIC_ASSIGN_OR_RETURN(size_t cycles,
                            simulator.RunUntilQuiescent(max_cycles));
  result.info.cycles = cycles;
  result.info.sim = simulator.Stats();

  for (const sim::SinkCell* sink : sinks) {
    for (const auto& [cycle, word] : sink->received()) {
      if (!word.AsBool()) continue;
      if (word.a_tag < 0 || word.b_tag < 0 ||
          static_cast<size_t>(word.a_tag) >= a.num_tuples() ||
          static_cast<size_t>(word.b_tag) >= b.num_tuples()) {
        return Status::Internal("join array emitted out-of-range tags (" +
                                std::to_string(word.a_tag) + "," +
                                std::to_string(word.b_tag) + ")");
      }
      result.matches.emplace_back(static_cast<size_t>(word.a_tag),
                                  static_cast<size_t>(word.b_tag));
    }
  }
  std::sort(result.matches.begin(), result.matches.end());

  result.relation.Reserve(result.matches.size());
  rel::Tuple joined;
  for (const auto& [i, j] : result.matches) {
    rel::JoinConcatenate(a.tuple(i), b.tuple(j), spec, &joined);
    SYSTOLIC_RETURN_NOT_OK(result.relation.Append(joined));
  }
  return result;
}

}  // namespace arrays
}  // namespace systolic
