#include "systolic/schedule.h"

#include "util/logging.h"

namespace systolic {
namespace sim {

void LoadStaggeredSchedule(const rel::Relation& relation,
                           const std::vector<size_t>& columns, FeedSide side,
                           size_t spacing, size_t base_cycle,
                           const std::vector<StreamFeeder*>& feeders) {
  SYSTOLIC_CHECK_EQ(columns.size(), feeders.size());
  SYSTOLIC_CHECK_GE(spacing, size_t{1});
  for (size_t i = 0; i < relation.num_tuples(); ++i) {
    const rel::TupleRef tuple = relation.tuple(i);
    for (size_t k = 0; k < columns.size(); ++k) {
      const rel::Code code = tuple[columns[k]];
      const TupleTag tag = static_cast<TupleTag>(i);
      const Word word = side == FeedSide::kTop ? Word::Element(code, tag)
                                               : Word::ElementB(code, tag);
      feeders[k]->ScheduleAt(base_cycle + spacing * i + k, word);
    }
  }
}

std::vector<size_t> AllColumns(const rel::Relation& relation) {
  std::vector<size_t> columns(relation.arity());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  return columns;
}

}  // namespace sim
}  // namespace systolic
