#include "system/logic_per_track.h"

#include "system/scratchpad/memory.h"

namespace systolic {
namespace machine {

void LogicPerTrackDisk::Put(const std::string& name, rel::Relation relation) {
  relations_.insert_or_assign(name, std::move(relation));
}

Result<size_t> LogicPerTrackDisk::TrackCount(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return (it->second.num_tuples() + tuples_per_track_ - 1) /
         std::max<size_t>(1, tuples_per_track_);
}

Result<rel::Relation> LogicPerTrackDisk::Select(
    const std::string& name, const TrackPredicate& predicate) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  const rel::Relation& stored = it->second;
  if (predicate.column >= stored.arity()) {
    return Status::InvalidArgument(
        "predicate column " + std::to_string(predicate.column) +
        " exceeds arity " + std::to_string(stored.arity()));
  }
  const auto& domain = stored.schema().column(predicate.column).domain;
  if (!rel::IsEqualityOp(predicate.op) && !domain->ordered()) {
    return Status::InvalidArgument(
        std::string("comparison '") + rel::ComparisonOpToString(predicate.op) +
        "' requires an ordered domain, but '" + domain->name() +
        "' is dictionary-encoded");
  }

  rel::Relation out(stored.schema(), stored.kind());
  for (rel::TupleRef t : stored.tuples()) {
    if (rel::ApplyComparison(predicate.op, t[predicate.column],
                             predicate.constant)) {
      SYSTOLIC_RETURN_NOT_OK(out.Append(t));
    }
  }

  // One revolution: every track's comparator scans its stripe in parallel
  // as the platter turns. Then only the matches cross to the host.
  ++selection_revolutions_;
  total_io_seconds_ += model_.RevolutionSeconds();
  total_io_seconds_ += RelationBytes(out) / model_.BytesPerSecond();
  return out;
}

Result<rel::Relation> LogicPerTrackDisk::ReadAll(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  total_io_seconds_ += RelationBytes(it->second) / model_.BytesPerSecond();
  return it->second;
}

}  // namespace machine
}  // namespace systolic
