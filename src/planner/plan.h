#ifndef SYSTOLIC_PLANNER_PLAN_H_
#define SYSTOLIC_PLANNER_PLAN_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "planner/certificates.h"
#include "relational/relation.h"
#include "system/transaction.h"
#include "util/result.h"

namespace systolic {
namespace planner {

/// Catalog facts about one external input buffer of a transaction: the §9
/// machine's memory modules are the planner's "catalog", so row counts are
/// exact; duplicate-freedom must be proven by the caller (see
/// ProvablyDuplicateFree) — the planner treats it as a licence for rewrites
/// and never assumes it.
struct InputInfo {
  rel::Schema schema;
  size_t num_tuples = 0;
  bool duplicate_free = false;
};

/// One node of the logical operator DAG: either an external input buffer
/// (leaf) or a relational operator mirroring machine::OpKind. Children point
/// at operand nodes; `name` is the buffer the node produces (the input's
/// buffer name for leaves).
struct Node {
  bool is_input = false;
  machine::OpKind op = machine::OpKind::kSelect;
  std::string name;
  std::vector<size_t> children;
  /// Operator parameters, as in machine::PlanStep.
  rel::JoinSpec join;
  rel::DivisionSpec division;
  std::vector<size_t> columns;
  std::vector<arrays::SelectionPredicate> predicates;
  /// Derived annotations (filled by LogicalPlan::Annotate):
  rel::Schema schema;
  bool dup_free = false;
  /// Estimated output cardinality (filled by cost::EstimateCardinalities).
  double est_rows = 0;
};

/// The logical plan: a DAG of Nodes compiled from a Transaction's PlanStep
/// list. The nodes vector is append-only; rewrites restructure by rewiring
/// children and renaming, and ToTransaction() emits only the nodes still
/// reachable from the plan's sinks (so orphaned nodes cost nothing).
///
/// Sink discipline: the outputs of the original transaction that no other
/// step consumes are the transaction's *results*; the planner guarantees
/// they are produced bit-identically under their original names. Interior
/// buffers are planner-managed — a rewrite may elide them, and any buffers
/// a rewrite introduces are named "__plan_tN" so callers can release them
/// after the commit.
class LogicalPlan {
 public:
  /// Compiles a transaction against the catalog `inputs` (one entry per
  /// external buffer). Validates exactly like Transaction::Schedule (unknown
  /// operands, duplicate outputs, cycles) and annotates schemas bottom-up.
  static Result<LogicalPlan> FromTransaction(
      const machine::Transaction& txn,
      const std::map<std::string, InputInfo>& inputs);

  const std::vector<Node>& nodes() const { return nodes_; }
  Node& node(size_t id) { return nodes_[id]; }
  const Node& node(size_t id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Ids of the nodes carrying the transaction's result names, in the order
  /// the original transaction produced them.
  std::vector<size_t> Sinks() const;

  /// True iff `name` is one of the transaction's result buffers.
  bool IsSinkName(const std::string& name) const {
    return sink_names_.count(name) != 0;
  }

  /// Ids of the op nodes that read node `id` (inputs count once per edge).
  std::vector<size_t> Consumers(size_t id) const;

  /// Appends a node and returns its id. The caller is responsible for
  /// re-annotating afterwards.
  size_t AddNode(Node n);

  /// A fresh planner-managed buffer name ("__plan_tN", unique in this plan).
  std::string FreshName();

  /// Recomputes schema and duplicate-freedom bottom-up over the reachable
  /// nodes. Fails if a rewrite produced an invalid operator (which would be
  /// a planner bug — rewrites must preserve validity).
  Status Annotate();

  /// Emits the optimized transaction: reachable op nodes in topological
  /// order (callers may reorder within dependency levels afterwards; see
  /// physical.h). Feed hints are not set here.
  machine::Transaction ToTransaction() const;

  /// Topological order (children before parents) over the nodes reachable
  /// from the sinks.
  std::vector<size_t> TopoOrder() const;

  /// Buffer names of reachable planner-introduced nodes (prefix "__plan_"),
  /// for post-commit release.
  std::vector<std::string> TempBufferNames() const;

  /// Indented per-sink tree rendering of the DAG (shared subtrees are
  /// printed once and referenced by name afterwards), with annotations.
  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
  std::map<std::string, size_t> inputs_by_name_;
  std::set<std::string> sink_names_;
  std::vector<std::string> sink_order_;
  size_t next_temp_ = 0;
};

/// Whether `r` is provably duplicate-free: an O(n log n) exact check via
/// sorted adjacent comparison of pointers into `r`, copying no tuple
/// (Relation::kind() is declared intent, not proof, so the planner never
/// trusts it).
bool ProvablyDuplicateFree(const rel::Relation& r);

/// True iff the op's output is duplicate-free regardless of its inputs
/// (remove-duplicates, union, projection and division deduplicate by
/// construction).
bool AlwaysDuplicateFree(machine::OpKind op);

/// Builds the duplicate-freedom proof for node `id`: a premises-first fact
/// list ending with the node itself, suitable for independent re-checking by
/// the static verifier. Returns an empty list when no proof exists under the
/// derivation rules (catalog leaf facts, op guarantees, propagation) — in
/// which case the node must be treated as possibly containing duplicates.
std::vector<DupFreeFact> DupFreeDerivation(const LogicalPlan& plan, size_t id);

}  // namespace planner
}  // namespace systolic

#endif  // SYSTOLIC_PLANNER_PLAN_H_
