#include "arrays/comparison_grid.h"

#include "util/logging.h"

namespace systolic {
namespace arrays {

const char* FeedModeToString(FeedMode mode) {
  return mode == FeedMode::kFixedB ? "fixed-B" : "marching";
}

std::vector<FeedMode> FeedModeCandidates(FeedModePolicy policy, size_t rows) {
  // Marching pairs meet at row j-i+(rows-1)/2, which needs an odd count.
  const bool pairs_meet = rows % 2 == 1 || rows == 0;
  switch (policy) {
    case FeedModePolicy::kMarching:
      if (!pairs_meet) return {};
      return {FeedMode::kMarching};
    case FeedModePolicy::kFixedB:
      return {FeedMode::kFixedB};
    case FeedModePolicy::kAuto:
      break;
  }
  if (!pairs_meet) return {FeedMode::kFixedB};
  return {FeedMode::kFixedB, FeedMode::kMarching};
}

namespace {

std::string CellName(const char* prefix, size_t r, size_t k) {
  return std::string(prefix) + "(" + std::to_string(r) + "," +
         std::to_string(k) + ")";
}

Status CheckColumns(const rel::Relation& relation,
                    const std::vector<size_t>& columns, size_t grid_columns) {
  if (columns.size() != grid_columns) {
    return Status::InvalidArgument(
        "feed uses " + std::to_string(columns.size()) +
        " columns but the grid has " + std::to_string(grid_columns));
  }
  for (size_t c : columns) {
    if (c >= relation.arity()) {
      return Status::OutOfRange("feed column " + std::to_string(c) +
                                " exceeds relation arity " +
                                std::to_string(relation.arity()));
    }
  }
  return Status::OK();
}

}  // namespace

ComparisonGrid::ComparisonGrid(sim::Simulator* simulator,
                               const GridConfig& config)
    : config_(config) {
  SYSTOLIC_CHECK_GT(config.rows, size_t{0});
  SYSTOLIC_CHECK_GT(config.columns, size_t{0});
  if (config.mode == FeedMode::kMarching) {
    SYSTOLIC_CHECK(config.rows % 2 == 1)
        << "marching mode requires an odd row count, got " << config.rows;
  }
  const size_t R = config.rows;
  const size_t m = config.columns;
  SYSTOLIC_CHECK(config.column_ops.empty() || config.column_ops.size() == m)
      << "column_ops must be empty or have one op per column";
  auto op_for = [&config](size_t k) {
    return config.column_ops.empty() ? config.op : config.column_ops[k];
  };

  // a_wires_[r][k]: the downward a channel entering row r (r == R exits).
  a_wires_.assign(R + 1, std::vector<sim::Wire*>(m));
  // b_wires_[r][k]: the upward b channel entering row r from below
  // (b_wires_[R] is the bottom edge; b_wires_[0] exits the top).
  b_wires_.assign(R + 1, std::vector<sim::Wire*>(m));
  // t_wires_[r][k]: the rightward t channel entering column k of row r
  // (k == 0 unused: left-most cells synthesise t; k == m is the right edge).
  t_wires_.assign(R, std::vector<sim::Wire*>(m + 1));
  auto& a_wires = a_wires_;
  auto& b_wires = b_wires_;
  auto& t_wires = t_wires_;

  const bool marching = config.mode == FeedMode::kMarching;
  for (size_t r = 0; r <= R; ++r) {
    for (size_t k = 0; k < m; ++k) {
      a_wires[r][k] = simulator->NewWire(CellName("a", r, k));
      if (marching) b_wires[r][k] = simulator->NewWire(CellName("b", r, k));
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t k = 1; k <= m; ++k) {
      t_wires[r][k] = simulator->NewWire(CellName("t", r, k));
    }
  }

  if (marching) {
    for (size_t r = 0; r < R; ++r) {
      for (size_t k = 0; k < m; ++k) {
        simulator->AddCell<ComparisonCell>(
            CellName("cmp", r, k), op_for(k), config.edge_rule,
            /*a_in=*/a_wires[r][k], /*b_in=*/b_wires[r + 1][k],
            /*t_in=*/k == 0 ? nullptr : t_wires[r][k],
            /*a_out=*/a_wires[r + 1][k], /*b_out=*/b_wires[r][k],
            /*t_out=*/t_wires[r][k + 1]);
      }
    }
  } else {
    fixed_.resize(R, std::vector<FixedComparisonCell*>(m, nullptr));
    for (size_t r = 0; r < R; ++r) {
      for (size_t k = 0; k < m; ++k) {
        fixed_[r][k] = simulator->AddCell<FixedComparisonCell>(
            CellName("fix", r, k), op_for(k), config.edge_rule,
            /*a_in=*/a_wires[r][k],
            /*t_in=*/k == 0 ? nullptr : t_wires[r][k],
            /*a_out=*/a_wires[r + 1][k],
            /*t_out=*/t_wires[r][k + 1]);
      }
    }
  }

  a_feeders_.reserve(m);
  for (size_t k = 0; k < m; ++k) {
    a_feeders_.push_back(simulator->AddInfrastructureCell<sim::StreamFeeder>(
        "feedA" + std::to_string(k), a_wires[0][k]));
  }
  if (marching) {
    b_feeders_.reserve(m);
    for (size_t k = 0; k < m; ++k) {
      b_feeders_.push_back(simulator->AddInfrastructureCell<sim::StreamFeeder>(
          "feedB" + std::to_string(k), b_wires[R][k]));
    }
  }

  right_edges_.reserve(R);
  for (size_t r = 0; r < R; ++r) {
    right_edges_.push_back(t_wires[r][m]);
  }
}

size_t ComparisonGrid::MaxATuples() const {
  if (config_.mode == FeedMode::kFixedB) {
    return SIZE_MAX;  // A streams through; any length fits.
  }
  return (config_.rows + 1) / 2;
}

size_t ComparisonGrid::MaxBTuples() const {
  if (config_.mode == FeedMode::kFixedB) {
    return config_.rows;
  }
  return (config_.rows + 1) / 2;
}

Status ComparisonGrid::FeedA(const rel::Relation& a,
                             const std::vector<size_t>& columns) {
  SYSTOLIC_RETURN_NOT_OK(CheckColumns(a, columns, config_.columns));
  if (a.num_tuples() > MaxATuples()) {
    return Status::Capacity("relation A has " + std::to_string(a.num_tuples()) +
                            " tuples; this grid fits " +
                            std::to_string(MaxATuples()) + " per pass");
  }
  const size_t spacing = config_.mode == FeedMode::kMarching ? 2 : 1;
  sim::LoadStaggeredSchedule(a, columns, sim::FeedSide::kTop, spacing,
                             /*base_cycle=*/0, a_feeders_);
  return Status::OK();
}

Status ComparisonGrid::FeedB(const rel::Relation& b,
                             const std::vector<size_t>& columns) {
  if (config_.mode != FeedMode::kMarching) {
    return Status::InvalidArgument("FeedB applies to marching mode only");
  }
  SYSTOLIC_RETURN_NOT_OK(CheckColumns(b, columns, config_.columns));
  if (b.num_tuples() > MaxBTuples()) {
    return Status::Capacity("relation B has " + std::to_string(b.num_tuples()) +
                            " tuples; this grid fits " +
                            std::to_string(MaxBTuples()) + " per pass");
  }
  sim::LoadStaggeredSchedule(b, columns, sim::FeedSide::kBottom, /*spacing=*/2,
                             /*base_cycle=*/0, b_feeders_);
  return Status::OK();
}

Status ComparisonGrid::PreloadB(const rel::Relation& b,
                                const std::vector<size_t>& columns) {
  if (config_.mode != FeedMode::kFixedB) {
    return Status::InvalidArgument("PreloadB applies to fixed mode only");
  }
  SYSTOLIC_RETURN_NOT_OK(CheckColumns(b, columns, config_.columns));
  if (b.num_tuples() > MaxBTuples()) {
    return Status::Capacity("relation B has " + std::to_string(b.num_tuples()) +
                            " tuples; this grid holds " +
                            std::to_string(MaxBTuples()));
  }
  for (size_t j = 0; j < b.num_tuples(); ++j) {
    for (size_t k = 0; k < columns.size(); ++k) {
      fixed_[j][k]->Preload(b.tuple(j)[columns[k]],
                            static_cast<sim::TupleTag>(j));
    }
  }
  return Status::OK();
}

}  // namespace arrays
}  // namespace systolic
