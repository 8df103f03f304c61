#include "system/tree_machine.h"

#include <map>
#include <vector>

#include "systolic/feeder.h"
#include "util/logging.h"

namespace systolic {
namespace machine {

using sim::Word;

namespace {

/// Probe words carry no tuple tags; data words carry the B tuple index.
bool IsProbe(const Word& word) {
  return word.a_tag == sim::kNoTag && word.b_tag == sim::kNoTag;
}

}  // namespace

void TreeBroadcastCell::Compute(size_t cycle) {
  (void)cycle;
  const Word in = in_->Read();
  if (!in.valid) return;
  left_out_->Write(in);
  right_out_->Write(in);
  MarkBusy();
}

void TreeLeafCell::Compute(size_t cycle) {
  (void)cycle;
  const Word in = in_->Read();
  if (!in.valid || !loaded()) return;
  if (IsProbe(in)) {
    if (!reported_) {
      report_out_->Write(Word::Boolean(matched_, tag_, sim::kNoTag));
      reported_ = true;
    }
  } else {
    if (in.value == stored_code_) matched_ = true;
  }
  MarkBusy();
}

void TreeCombineCell::Compute(size_t cycle) {
  (void)cycle;
  const Word left = left_in_->Read();
  const Word right = right_in_->Read();
  if (left.valid) queue_.push_back(left);
  if (right.valid) queue_.push_back(right);
  if (!queue_.empty()) {
    out_->Write(queue_.front());
    queue_.erase(queue_.begin());
    MarkBusy();
  }
}

Result<TreeMachineResult> TreeMembership(const rel::Relation& a,
                                         const rel::Relation& b) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  TreeMachineResult result;
  result.selected = BitVector(a.num_tuples(), false);
  if (a.num_tuples() == 0) return result;

  // Pack whole tuples into single codes through a shared dictionary (§2.3
  // trick; identical tuples get identical codes across A and B).
  std::map<rel::Tuple, rel::Code> codes;
  auto pack = [&codes](rel::TupleRef t) {
    return codes.emplace(t, static_cast<rel::Code>(codes.size()))
        .first->second;
  };
  std::vector<rel::Code> a_codes;
  a_codes.reserve(a.num_tuples());
  for (rel::TupleRef t : a.tuples()) a_codes.push_back(pack(t));
  std::vector<rel::Code> b_codes;
  b_codes.reserve(b.num_tuples());
  for (rel::TupleRef t : b.tuples()) b_codes.push_back(pack(t));

  // Complete binary tree with L = 2^ceil(lg nA) leaves, heap-indexed:
  // inner nodes 1..L-1, leaves L..2L-1.
  size_t leaves = 1;
  while (leaves < a.num_tuples()) leaves *= 2;
  const size_t total = 2 * leaves;

  sim::Simulator simulator;
  std::vector<sim::Wire*> down(total, nullptr);
  std::vector<sim::Wire*> up(total, nullptr);
  for (size_t i = 1; i < total; ++i) {
    down[i] = simulator.NewWire("down" + std::to_string(i));
    up[i] = simulator.NewWire("up" + std::to_string(i));
  }
  std::vector<TreeLeafCell*> leaf_cells(leaves, nullptr);
  for (size_t i = 1; i < leaves; ++i) {
    simulator.AddCell<TreeBroadcastCell>("bcast" + std::to_string(i), down[i],
                                         down[2 * i], down[2 * i + 1]);
    simulator.AddCell<TreeCombineCell>("combine" + std::to_string(i),
                                       up[2 * i], up[2 * i + 1], up[i]);
  }
  for (size_t l = 0; l < leaves; ++l) {
    leaf_cells[l] = simulator.AddCell<TreeLeafCell>(
        "leaf" + std::to_string(l), down[leaves + l], up[leaves + l]);
  }
  for (size_t i = 0; i < a_codes.size(); ++i) {
    leaf_cells[i]->Preload(a_codes[i], static_cast<sim::TupleTag>(i));
  }
  auto* feeder =
      simulator.AddInfrastructureCell<sim::StreamFeeder>("root-in", down[1]);
  auto* sink = simulator.AddInfrastructureCell<sim::SinkCell>("root-out", up[1]);

  // Pipeline B down the tree, one tuple per pulse, then the report probe.
  for (size_t j = 0; j < b_codes.size(); ++j) {
    feeder->ScheduleAt(j, Word::ElementB(b_codes[j], static_cast<sim::TupleTag>(j)));
  }
  feeder->ScheduleAt(b_codes.size(), Word{true, 1, sim::kNoTag, sim::kNoTag});

  const size_t max_cycles = 8 * (b_codes.size() + 2 * leaves) + 64;
  SYSTOLIC_ASSIGN_OR_RETURN(size_t cycles,
                            simulator.RunUntilQuiescent(max_cycles));
  result.cycles = cycles;
  result.nodes = (leaves - 1) * 2 + leaves;
  result.sim = simulator.Stats();

  if (sink->received().size() != a.num_tuples()) {
    return Status::Internal("tree machine reported " +
                            std::to_string(sink->received().size()) +
                            " leaves, expected " +
                            std::to_string(a.num_tuples()));
  }
  BitVector seen(a.num_tuples(), false);
  for (const auto& [cycle, word] : sink->received()) {
    if (word.a_tag < 0 ||
        static_cast<size_t>(word.a_tag) >= a.num_tuples()) {
      return Status::Internal("tree machine report carries bad tag");
    }
    const size_t i = static_cast<size_t>(word.a_tag);
    if (seen.Get(i)) {
      return Status::Internal("leaf " + std::to_string(i) + " reported twice");
    }
    seen.Set(i, true);
    result.selected.Set(i, word.AsBool());
  }
  return result;
}

Result<TreeIntersectionResult> TreeIntersection(const rel::Relation& a,
                                                const rel::Relation& b) {
  SYSTOLIC_ASSIGN_OR_RETURN(TreeMachineResult run, TreeMembership(a, b));
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation out,
                            a.Filter(run.selected, rel::RelationKind::kSet));
  TreeIntersectionResult result(std::move(out));
  result.run = std::move(run);
  return result;
}

}  // namespace machine
}  // namespace systolic
