#include "planner/plan.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "arrays/selection_array.h"
#include "relational/compare.h"

namespace systolic {
namespace planner {

using machine::OpKind;
using machine::Transaction;

bool ProvablyDuplicateFree(const rel::Relation& r) {
  return r.IsDuplicateFree();
}

bool AlwaysDuplicateFree(OpKind op) {
  switch (op) {
    case OpKind::kRemoveDuplicates:
    case OpKind::kUnion:
    case OpKind::kProject:
    case OpKind::kDivide:
      return true;
    case OpKind::kIntersect:
    case OpKind::kDifference:
    case OpKind::kSelect:
    case OpKind::kJoin:
      return false;
  }
  return false;
}

const char* RewriteCertificateKindToString(RewriteCertificate::Kind kind) {
  switch (kind) {
    case RewriteCertificate::Kind::kMergeSelections:
      return "merge-selections";
    case RewriteCertificate::Kind::kPushSelection:
      return "push-selection";
    case RewriteCertificate::Kind::kPruneProjection:
      return "prune-projection";
    case RewriteCertificate::Kind::kElideIdentityProjection:
      return "elide-identity-projection";
    case RewriteCertificate::Kind::kElideDedup:
      return "elide-dedup";
    case RewriteCertificate::Kind::kReorderChain:
      return "reorder-chain";
  }
  return "unknown";
}

std::vector<DupFreeFact> DupFreeDerivation(const LogicalPlan& plan,
                                           size_t id) {
  std::vector<DupFreeFact> facts;
  std::set<std::string> proven;
  // Structural recursion mirroring the Annotate rules; the verifier
  // re-checks every emitted rule with its own table, so the mirror stays
  // honest — a divergence between the two is a diagnostic, not a bug mask.
  std::function<bool(size_t)> derive = [&](size_t nid) -> bool {
    const Node& n = plan.node(nid);
    if (proven.count(n.name) != 0) return true;
    DupFreeFact fact;
    fact.node = n.name;
    if (n.is_input) {
      if (!n.dup_free) return false;
      fact.reason = DupFreeFact::Reason::kCatalog;
    } else if (AlwaysDuplicateFree(n.op)) {
      fact.reason = DupFreeFact::Reason::kOpGuarantee;
      fact.op = n.op;
    } else if (n.op == OpKind::kSelect || n.op == OpKind::kIntersect ||
               n.op == OpKind::kDifference) {
      if (!derive(n.children.at(0))) return false;
      fact.reason = DupFreeFact::Reason::kPropagatesLeft;
      fact.op = n.op;
      fact.premises = {plan.node(n.children.at(0)).name};
    } else if (n.op == OpKind::kJoin) {
      if (!derive(n.children.at(0)) || !derive(n.children.at(1))) {
        return false;
      }
      fact.reason = DupFreeFact::Reason::kPropagatesBoth;
      fact.op = n.op;
      fact.premises = {plan.node(n.children.at(0)).name,
                       plan.node(n.children.at(1)).name};
    } else {
      return false;
    }
    proven.insert(fact.node);
    facts.push_back(std::move(fact));
    return true;
  };
  if (!derive(id)) return {};
  return facts;
}

Result<LogicalPlan> LogicalPlan::FromTransaction(
    const Transaction& txn, const std::map<std::string, InputInfo>& inputs) {
  // Reuse the transaction's own validation (unknown operands, duplicate
  // outputs, cycles) so planning fails with exactly the errors execution
  // would raise, and get the dependency levels for construction order.
  std::vector<std::string> input_names;
  for (const auto& [name, info] : inputs) input_names.push_back(name);
  SYSTOLIC_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> levels,
                            txn.Schedule(input_names));

  LogicalPlan plan;
  std::map<std::string, size_t> by_name;

  auto input_node = [&](const std::string& name) -> size_t {
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    const InputInfo& info = inputs.at(name);
    Node leaf;
    leaf.is_input = true;
    leaf.name = name;
    leaf.schema = info.schema;
    leaf.dup_free = info.duplicate_free;
    leaf.est_rows = static_cast<double>(info.num_tuples);
    const size_t id = plan.AddNode(std::move(leaf));
    by_name.emplace(name, id);
    plan.inputs_by_name_.emplace(name, id);
    return id;
  };

  std::set<std::string> consumed;
  for (const machine::PlanStep& step : txn.steps()) {
    consumed.insert(step.left);
    if (machine::IsBinaryOp(step.op)) consumed.insert(step.right);
  }

  for (const std::vector<size_t>& level : levels) {
    for (size_t s : level) {
      const machine::PlanStep& step = txn.steps()[s];
      Node n;
      n.op = step.op;
      n.name = step.output;
      n.join = step.join;
      n.division = step.division;
      n.columns = step.columns;
      n.predicates = step.predicates;
      // Operands are either inputs or outputs of lower levels, so they are
      // already in by_name (Schedule guaranteed it).
      if (inputs.count(step.left) != 0 && by_name.count(step.left) == 0) {
        input_node(step.left);
      }
      n.children.push_back(by_name.at(step.left));
      if (machine::IsBinaryOp(step.op)) {
        if (inputs.count(step.right) != 0 && by_name.count(step.right) == 0) {
          input_node(step.right);
        }
        n.children.push_back(by_name.at(step.right));
      }
      by_name.emplace(step.output, plan.AddNode(std::move(n)));
    }
  }

  // Sinks: outputs nothing consumes, in original step order.
  for (const machine::PlanStep& step : txn.steps()) {
    if (consumed.count(step.output) == 0) {
      plan.sink_names_.insert(step.output);
      plan.sink_order_.push_back(step.output);
    }
  }

  SYSTOLIC_RETURN_NOT_OK(plan.Annotate());
  return plan;
}

size_t LogicalPlan::AddNode(Node n) {
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

std::string LogicalPlan::FreshName() {
  return "__plan_t" + std::to_string(next_temp_++);
}

std::vector<size_t> LogicalPlan::Sinks() const {
  std::vector<size_t> sinks;
  for (const std::string& name : sink_order_) {
    for (size_t id = 0; id < nodes_.size(); ++id) {
      if (!nodes_[id].is_input && nodes_[id].name == name) {
        sinks.push_back(id);
        break;
      }
    }
  }
  return sinks;
}

std::vector<size_t> LogicalPlan::Consumers(size_t id) const {
  std::vector<size_t> consumers;
  for (size_t reachable : TopoOrder()) {
    const Node& n = nodes_[reachable];
    for (size_t child : n.children) {
      if (child == id) {
        consumers.push_back(reachable);
        break;
      }
    }
  }
  return consumers;
}

std::vector<size_t> LogicalPlan::TopoOrder() const {
  std::vector<size_t> order;
  std::vector<bool> visited(nodes_.size(), false);
  // Iterative DFS, children first.
  std::vector<std::pair<size_t, size_t>> stack;  // (node, next child index)
  for (size_t sink : Sinks()) {
    if (visited[sink]) continue;
    stack.emplace_back(sink, 0);
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      if (next < nodes_[id].children.size()) {
        const size_t child = nodes_[id].children[next++];
        if (!visited[child]) {
          stack.emplace_back(child, 0);
        }
        continue;
      }
      if (!visited[id]) {
        visited[id] = true;
        order.push_back(id);
      }
      stack.pop_back();
    }
  }
  return order;
}

Status LogicalPlan::Annotate() {
  for (size_t id : TopoOrder()) {
    Node& n = nodes_[id];
    if (n.is_input) continue;  // facts come from the catalog
    const Node& left = nodes_[n.children.at(0)];
    switch (n.op) {
      case OpKind::kIntersect:
      case OpKind::kDifference: {
        const Node& right = nodes_[n.children.at(1)];
        SYSTOLIC_RETURN_NOT_OK(
            left.schema.CheckUnionCompatible(right.schema));
        n.schema = left.schema;
        n.dup_free = left.dup_free;
        break;
      }
      case OpKind::kUnion: {
        const Node& right = nodes_[n.children.at(1)];
        SYSTOLIC_RETURN_NOT_OK(
            left.schema.CheckUnionCompatible(right.schema));
        n.schema = left.schema;
        n.dup_free = true;
        break;
      }
      case OpKind::kRemoveDuplicates:
        n.schema = left.schema;
        n.dup_free = true;
        break;
      case OpKind::kProject: {
        SYSTOLIC_ASSIGN_OR_RETURN(n.schema, left.schema.Project(n.columns));
        n.dup_free = true;
        break;
      }
      case OpKind::kSelect:
        SYSTOLIC_RETURN_NOT_OK(
            arrays::ValidateSelection(left.schema, n.predicates));
        n.schema = left.schema;
        n.dup_free = left.dup_free;
        break;
      case OpKind::kJoin: {
        const Node& right = nodes_[n.children.at(1)];
        SYSTOLIC_RETURN_NOT_OK(
            rel::ValidateJoinSpec(left.schema, right.schema, n.join));
        SYSTOLIC_ASSIGN_OR_RETURN(
            n.schema, rel::JoinOutputSchema(left.schema, right.schema, n.join));
        // Distinct (i, j) pairs of duplicate-free operands concatenate to
        // distinct tuples (all of A's columns are kept, and B tuples with
        // equal join columns must differ elsewhere).
        n.dup_free = left.dup_free && right.dup_free;
        break;
      }
      case OpKind::kDivide: {
        const Node& right = nodes_[n.children.at(1)];
        SYSTOLIC_RETURN_NOT_OK(
            rel::ValidateDivisionSpec(left.schema, right.schema, n.division));
        SYSTOLIC_ASSIGN_OR_RETURN(
            n.schema, rel::DivisionOutputSchema(left.schema, n.division));
        n.dup_free = true;
        break;
      }
    }
  }
  return Status::OK();
}

machine::Transaction LogicalPlan::ToTransaction() const {
  Transaction txn;
  for (size_t id : TopoOrder()) {
    const Node& n = nodes_[id];
    if (n.is_input) continue;
    const std::string& left = nodes_[n.children.at(0)].name;
    switch (n.op) {
      case OpKind::kIntersect:
        txn.Intersect(left, nodes_[n.children.at(1)].name, n.name);
        break;
      case OpKind::kDifference:
        txn.Difference(left, nodes_[n.children.at(1)].name, n.name);
        break;
      case OpKind::kRemoveDuplicates:
        txn.RemoveDuplicates(left, n.name);
        break;
      case OpKind::kUnion:
        txn.Union(left, nodes_[n.children.at(1)].name, n.name);
        break;
      case OpKind::kProject:
        txn.Project(left, n.columns, n.name);
        break;
      case OpKind::kJoin:
        txn.Join(left, nodes_[n.children.at(1)].name, n.join, n.name);
        break;
      case OpKind::kDivide:
        txn.Divide(left, nodes_[n.children.at(1)].name, n.division, n.name);
        break;
      case OpKind::kSelect:
        txn.Select(left, n.predicates, n.name);
        break;
    }
  }
  return txn;
}

std::vector<std::string> LogicalPlan::TempBufferNames() const {
  std::vector<std::string> names;
  for (size_t id : TopoOrder()) {
    const Node& n = nodes_[id];
    if (!n.is_input && n.name.rfind("__plan_", 0) == 0) {
      names.push_back(n.name);
    }
  }
  return names;
}

namespace {

std::string DescribeParams(const Node& n, const std::vector<Node>& nodes) {
  std::ostringstream out;
  switch (n.op) {
    case OpKind::kSelect: {
      const rel::Schema& schema = nodes[n.children.at(0)].schema;
      for (size_t i = 0; i < n.predicates.size(); ++i) {
        const arrays::SelectionPredicate& p = n.predicates[i];
        if (i > 0) out << " AND ";
        out << (p.column < schema.num_columns() ? schema.column(p.column).name
                                                : "?")
            << " " << rel::ComparisonOpToString(p.op) << " " << p.constant;
      }
      break;
    }
    case OpKind::kProject: {
      const rel::Schema& schema = nodes[n.children.at(0)].schema;
      for (size_t i = 0; i < n.columns.size(); ++i) {
        if (i > 0) out << ",";
        out << (n.columns[i] < schema.num_columns()
                    ? schema.column(n.columns[i]).name
                    : "?");
      }
      break;
    }
    case OpKind::kJoin: {
      const rel::Schema& a = nodes[n.children.at(0)].schema;
      const rel::Schema& b = nodes[n.children.at(1)].schema;
      for (size_t i = 0; i < n.join.left_columns.size(); ++i) {
        if (i > 0) out << " AND ";
        out << a.column(n.join.left_columns[i]).name << " "
            << rel::ComparisonOpToString(n.join.op) << " "
            << b.column(n.join.right_columns[i]).name;
      }
      break;
    }
    case OpKind::kDivide: {
      const rel::Schema& a = nodes[n.children.at(0)].schema;
      const rel::Schema& b = nodes[n.children.at(1)].schema;
      for (size_t i = 0; i < n.division.a_columns.size(); ++i) {
        if (i > 0) out << " AND ";
        out << a.column(n.division.a_columns[i]).name << " = "
            << b.column(n.division.b_columns[i]).name;
      }
      break;
    }
    default:
      break;
  }
  return out.str();
}

}  // namespace

std::string LogicalPlan::ToString() const {
  std::ostringstream out;
  std::set<size_t> printed;
  // Recursive pre-order per sink; shared subtrees print once, then are
  // referenced by name.
  std::function<void(size_t, size_t)> render = [&](size_t id, size_t depth) {
    const Node& n = nodes_[id];
    out << std::string(3 + 2 * depth, ' ') << n.name << ": ";
    if (n.is_input) {
      out << "input (" << static_cast<size_t>(n.est_rows) << " rows)\n";
      return;
    }
    if (printed.count(id) != 0) {
      out << "(shared, printed above)\n";
      return;
    }
    printed.insert(id);
    out << machine::OpKindToString(n.op);
    const std::string params = DescribeParams(n, nodes_);
    if (!params.empty()) out << " [" << params << "]";
    out << "  (~" << static_cast<size_t>(n.est_rows) << " rows"
        << (n.dup_free ? ", dup-free" : "") << ")\n";
    for (size_t child : n.children) render(child, depth + 1);
  };
  for (size_t sink : Sinks()) render(sink, 0);
  return out.str();
}

}  // namespace planner
}  // namespace systolic
