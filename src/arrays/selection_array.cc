#include "arrays/selection_array.h"

#include "arrays/comparison_grid.h"
#include "systolic/feeder.h"
#include "systolic/simulator.h"

namespace systolic {
namespace arrays {

Status ValidateSelection(const rel::Schema& schema,
                         const std::vector<SelectionPredicate>& predicates) {
  for (const SelectionPredicate& p : predicates) {
    if (p.column >= schema.num_columns()) {
      return Status::OutOfRange("selection column " + std::to_string(p.column) +
                                " exceeds arity " +
                                std::to_string(schema.num_columns()));
    }
    const auto& domain = schema.column(p.column).domain;
    if (!rel::IsEqualityOp(p.op) && !domain->ordered()) {
      return Status::InvalidArgument(
          std::string("comparison '") + rel::ComparisonOpToString(p.op) +
          "' requires an ordered domain, but '" + domain->name() +
          "' is dictionary-encoded");
    }
  }
  return Status::OK();
}

Result<SelectionResult> SystolicSelect(
    const rel::Relation& a, const std::vector<SelectionPredicate>& predicates,
    size_t max_cycles) {
  SYSTOLIC_RETURN_NOT_OK(ValidateSelection(a.schema(), predicates));
  if (predicates.empty()) {
    SelectionResult all(a);
    all.selected = BitVector(a.num_tuples(), true);
    return all;
  }
  if (a.num_tuples() == 0) {
    SelectionResult empty(rel::Relation(a.schema(), rel::RelationKind::kSet));
    return empty;
  }

  // One row of fixed cells, one per predicate, comparator preloaded per
  // column. The constants travel in as a one-tuple "relation" over the
  // predicate columns' schema.
  std::vector<size_t> feed_columns;
  std::vector<rel::ComparisonOp> ops;
  rel::Tuple constants;
  for (const SelectionPredicate& p : predicates) {
    feed_columns.push_back(p.column);
    ops.push_back(p.op);
    constants.push_back(p.constant);
  }
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema constant_schema,
                            a.schema().Project(feed_columns));
  rel::Relation constant_rel(std::move(constant_schema),
                             rel::RelationKind::kSet);
  SYSTOLIC_RETURN_NOT_OK(constant_rel.Append(constants));

  sim::Simulator simulator;
  GridConfig config;
  config.rows = 1;
  config.columns = predicates.size();
  config.column_ops = std::move(ops);
  config.edge_rule = EdgeRule::kAllTrue;
  config.mode = FeedMode::kFixedB;
  ComparisonGrid grid(&simulator, config);
  auto* sink =
      simulator.AddInfrastructureCell<sim::SinkCell>("sel", grid.right_edge(0));

  SYSTOLIC_RETURN_NOT_OK(grid.FeedA(a, feed_columns));
  std::vector<size_t> identity(predicates.size());
  for (size_t k = 0; k < identity.size(); ++k) identity[k] = k;
  SYSTOLIC_RETURN_NOT_OK(grid.PreloadB(constant_rel, identity));

  const size_t bound = max_cycles != 0
                           ? max_cycles
                           : 4 * (a.num_tuples() + predicates.size()) + 64;
  SYSTOLIC_ASSIGN_OR_RETURN(size_t cycles, simulator.RunUntilQuiescent(bound));

  BitVector bits(a.num_tuples(), false);
  for (const auto& [cycle, word] : sink->received()) {
    if (word.a_tag < 0 || static_cast<size_t>(word.a_tag) >= bits.size()) {
      return Status::Internal("selection array emitted bad tuple tag");
    }
    bits.Set(static_cast<size_t>(word.a_tag), word.AsBool());
  }
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  SelectionResult result(std::move(out));
  result.selected = std::move(bits);
  result.info.cycles = cycles;
  result.info.sim = simulator.Stats();
  return result;
}

}  // namespace arrays
}  // namespace systolic
