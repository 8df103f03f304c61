// Golden-trace suite: a sim::TraceProbe records every t word leaving the
// right edge of a comparison grid, and the full trace — pulse, row AND
// boolean payload per tuple pair — is checked against the closed-form
// schedule derived from §3.2's dataflow. Where timing_test.cc pins aggregate
// completion times, these tests pin the word-by-word exit schedule:
//   marching: t_ij leaves row j-i+(R-1)/2 at pulse i+j+m+(R-1)/2+1,
//   fixed-B:  t_ij leaves row j at pulse i+j+m+1.
// The same schedule underlies the join array (all-true edge) and the
// remove-duplicates array (§5's strict-lower-triangle edge), so both are
// traced.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arrays/comparison_grid.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "system/scratchpad/scratchpad.h"
#include "systolic/simulator.h"
#include "systolic/trace.h"
#include "test_util.h"

namespace systolic {
namespace arrays {
namespace {

using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

/// Runs relations a (top) and b (bottom/fixed) through a grid and returns
/// the right-edge trace plus a wire-name -> row map.
struct TraceRun {
  std::vector<sim::TraceEvent> events;
  std::map<std::string, size_t> row_of_wire;
};

TraceRun RunGrid(const Relation& a, const Relation& b, EdgeRule edge_rule,
                 FeedMode mode) {
  sim::Simulator simulator;
  GridConfig config;
  config.rows = mode == FeedMode::kMarching
                    ? ComparisonGrid::RowsForMarching(a.num_tuples())
                    : b.num_tuples();
  config.columns = a.arity();
  config.edge_rule = edge_rule;
  config.mode = mode;
  ComparisonGrid grid(&simulator, config);

  TraceRun run;
  std::vector<sim::Wire*> wires;
  for (size_t r = 0; r < config.rows; ++r) {
    wires.push_back(grid.right_edge(r));
    run.row_of_wire[grid.right_edge(r)->name()] = r;
  }
  auto* probe = simulator.AddInfrastructureCell<sim::TraceProbe>(
      "probe", wires, /*max_events=*/4096);

  const std::vector<size_t> columns = sim::AllColumns(a);
  SYSTOLIC_CHECK(grid.FeedA(a, columns).ok());
  if (mode == FeedMode::kMarching) {
    SYSTOLIC_CHECK(grid.FeedB(b, columns).ok());
  } else {
    SYSTOLIC_CHECK(grid.PreloadB(b, columns).ok());
  }
  SYSTOLIC_CHECK(simulator.RunUntilQuiescent(10000).ok());
  run.events = probe->events();
  return run;
}

bool TuplesEqual(const Relation& a, size_t i, const Relation& b, size_t j) {
  return a.tuples()[i] == b.tuples()[j];
}

TEST(GoldenTraceTest, JoinMarchingExitSchedule) {
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = Rel(schema, {{1, 4}, {2, 5}, {1, 4}, {3, 6}});
  const Relation b = Rel(schema, {{1, 4}, {3, 6}, {2, 5}, {1, 7}});
  const size_t n = 4;
  const size_t m = 2;
  const size_t half = (ComparisonGrid::RowsForMarching(n) - 1) / 2;

  const TraceRun run = RunGrid(a, b, EdgeRule::kAllTrue, FeedMode::kMarching);

  // Every (i, j) pair exits exactly once; n^2 events in total.
  ASSERT_EQ(run.events.size(), n * n);
  std::map<std::pair<int, int>, int> seen;
  for (const sim::TraceEvent& e : run.events) {
    ASSERT_TRUE(e.word.valid);
    const size_t i = static_cast<size_t>(e.word.a_tag);
    const size_t j = static_cast<size_t>(e.word.b_tag);
    ++seen[{e.word.a_tag, e.word.b_tag}];
    // §3.2 exit schedule: pair (i,j) leaves row j-i+(R-1)/2 at pulse
    // i+j+m+(R-1)/2+1 (the +1 is the commit into the edge wire).
    EXPECT_EQ(e.cycle, i + j + m + half + 1) << "pair (" << i << "," << j
                                             << ")";
    EXPECT_EQ(run.row_of_wire.at(e.wire), j - i + half)
        << "pair (" << i << "," << j << ")";
    EXPECT_EQ(e.word.AsBool(), TuplesEqual(a, i, b, j))
        << "pair (" << i << "," << j << ")";
  }
  EXPECT_EQ(seen.size(), n * n);
}

TEST(GoldenTraceTest, DedupLowerTriangleExitSchedule) {
  // The §5 remove-duplicates array is the same grid with the initial t
  // seeded FALSE outside the strict lower triangle: t_ij exits TRUE iff
  // tuple i equals an EARLIER tuple j. Timing is identical to the join
  // trace — the edge rule changes values, never the schedule.
  const Schema schema = rel::MakeIntSchema(1);
  const Relation a = Rel(schema, {{7}, {8}, {7}, {9}, {8}});
  const size_t n = 5;
  const size_t m = 1;
  const size_t half = (ComparisonGrid::RowsForMarching(n) - 1) / 2;

  const TraceRun run =
      RunGrid(a, a, EdgeRule::kStrictLowerTriangle, FeedMode::kMarching);

  ASSERT_EQ(run.events.size(), n * n);
  for (const sim::TraceEvent& e : run.events) {
    const size_t i = static_cast<size_t>(e.word.a_tag);
    const size_t j = static_cast<size_t>(e.word.b_tag);
    EXPECT_EQ(e.cycle, i + j + m + half + 1) << "pair (" << i << "," << j
                                             << ")";
    EXPECT_EQ(run.row_of_wire.at(e.wire), j - i + half)
        << "pair (" << i << "," << j << ")";
    const bool duplicate_of_earlier = j < i && TuplesEqual(a, i, a, j);
    EXPECT_EQ(e.word.AsBool(), duplicate_of_earlier)
        << "pair (" << i << "," << j << ")";
  }
}

TEST(GoldenTraceTest, JoinFixedBExitSchedule) {
  // §8's fixed-B variant: B preloaded one tuple per row, A marching with
  // unit spacing. t_ij exits row j at pulse i+j+m+1.
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = Rel(schema, {{1, 4}, {2, 5}, {1, 4}});
  const Relation b = Rel(schema, {{1, 4}, {2, 5}, {3, 6}, {1, 4}});
  const size_t n_a = 3;
  const size_t n_b = 4;
  const size_t m = 2;

  const TraceRun run = RunGrid(a, b, EdgeRule::kAllTrue, FeedMode::kFixedB);

  ASSERT_EQ(run.events.size(), n_a * n_b);
  for (const sim::TraceEvent& e : run.events) {
    const size_t i = static_cast<size_t>(e.word.a_tag);
    const size_t j = static_cast<size_t>(e.word.b_tag);
    EXPECT_EQ(e.cycle, i + j + m + 1) << "pair (" << i << "," << j << ")";
    EXPECT_EQ(run.row_of_wire.at(e.wire), j) << "pair (" << i << "," << j
                                             << ")";
    EXPECT_EQ(e.word.AsBool(), TuplesEqual(a, i, b, j))
        << "pair (" << i << "," << j << ")";
  }
}

TEST(GoldenTraceTest, TraceProbeRendersStableText) {
  // The probe's ToString is part of the debugging surface; keep its shape
  // stable (one "cycle wire word" line per event).
  const Schema schema = rel::MakeIntSchema(1);
  const Relation a = Rel(schema, {{5}});
  sim::Simulator simulator;
  GridConfig config;
  config.rows = 1;
  config.columns = 1;
  ComparisonGrid grid(&simulator, config);
  auto* probe = simulator.AddInfrastructureCell<sim::TraceProbe>(
      "probe", std::vector<sim::Wire*>{grid.right_edge(0)}, 16);
  SYSTOLIC_CHECK(grid.FeedA(a, {0}).ok());
  SYSTOLIC_CHECK(grid.FeedB(a, {0}).ok());
  SYSTOLIC_CHECK(simulator.RunUntilQuiescent(100).ok());
  ASSERT_EQ(probe->events().size(), 1u);
  const std::string text = probe->ToString();
  EXPECT_NE(text.find(probe->events()[0].wire), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// ---------------------------------------------------------------------------
// S25 golden DMA trace: where the tests above pin the word-by-word exit
// schedule inside one array, this one pins the tile-by-tile bank-switch /
// drain schedule around it. A 3-tile fixed-B join on one chip (rows=2, B of
// 6 tuples → B-blocks {0,1} {2,3} {4,5}; A of 4 streams whole) yields, per
// tile: mvin 4 pulses (32 bytes of A), preload 2 (16 bytes of B block),
// compute 7 (n_a + rows + m = 4+2+1), mvout 2 (two 8-byte matches) — except
// tile 2, whose B block {5,6} matches nothing, so its zero-byte mvout is
// dropped from the queue. The engine's DMA counters must equal those of a
// DmaQueue fed exactly these commands, whose schedule is pinned event by
// event.
// ---------------------------------------------------------------------------

TEST(GoldenDmaTraceTest, ThreeTileJoinBankSwitchSchedule) {
  const Schema schema = rel::MakeIntSchema(1);
  const Relation a = Rel(schema, {{1}, {2}, {3}, {4}});
  const Relation b = Rel(schema, {{1}, {2}, {3}, {4}, {5}, {6}});
  const rel::JoinSpec spec{{0}, {0}, rel::ComparisonOp::kEq};

  const auto run = [&](spad::OverlapPolicy policy) {
    db::DeviceConfig device;
    device.rows = 2;
    device.mode = FeedModePolicy::kFixedB;
    device.num_chips = 1;
    device.overlap = policy;
    const db::Engine engine(device);
    auto result = engine.Join(a, b, spec);
    SYSTOLIC_CHECK(result.ok()) << result.status().ToString();
    return *std::move(result);
  };

  // The header's per-tile commands, scheduled directly.
  const auto schedule = [](bool overlap) {
    std::vector<spad::DmaEvent> trace;
    spad::DmaQueue queue(overlap, spad::kBankPairs, &trace);
    for (size_t tile = 0; tile < 3; ++tile) {
      queue.Mvin(tile, 32);
      queue.Preload(tile, 16);
      queue.Compute(tile, 7);
      queue.Mvout(tile, tile < 2 ? 16 : 0);
    }
    const size_t makespan = queue.Makespan();
    std::vector<std::string> lines;
    lines.reserve(trace.size());
    for (const spad::DmaEvent& event : trace) {
      lines.push_back(spad::ToString(event));
    }
    EXPECT_EQ(queue.TransferCycleTotal(), 22u);
    return std::make_pair(makespan, lines);
  };

  // Overlap off: strict load→compute→drain serialisation, one tile after
  // the other; the memory critical path is compute plus every transfer.
  const db::EngineResult off = run(spad::OverlapPolicy::kOff);
  EXPECT_EQ(off.stats.cycles, 21u);
  EXPECT_EQ(off.stats.dma_cycles, 22u);
  EXPECT_EQ(off.stats.overlap_cycles, 0u);
  EXPECT_EQ(off.stats.memory_makespan_cycles, 43u);
  const auto [off_makespan, off_trace] = schedule(/*overlap=*/false);
  EXPECT_EQ(off_makespan, off.stats.memory_makespan_cycles);
  EXPECT_EQ(off_trace,
            (std::vector<std::string>{
                "mvin tile=0 bank=0 [0,4)", "preload tile=0 bank=0 [4,6)",
                "compute tile=0 bank=0 [6,13)", "mvout tile=0 bank=0 [13,15)",
                "mvin tile=1 bank=1 [15,19)", "preload tile=1 bank=1 [19,21)",
                "compute tile=1 bank=1 [21,28)", "mvout tile=1 bank=1 [28,30)",
                "mvin tile=2 bank=0 [30,34)", "preload tile=2 bank=0 [34,36)",
                "compute tile=2 bank=0 [36,43)"}));

  // Overlap on: tile 1's feed streams into bank 1 at pulse 6, under tile
  // 0's compute; tile 2 reuses bank 0 and must wait for tile 0's drain to
  // end at 15 before its mvin starts. 15 of the 22 transfer pulses hide.
  const db::EngineResult on = run(spad::OverlapPolicy::kOn);
  EXPECT_EQ(on.stats.cycles, 21u);
  EXPECT_EQ(on.stats.dma_cycles, 22u);
  EXPECT_EQ(on.stats.overlap_cycles, 15u);
  EXPECT_EQ(on.stats.memory_makespan_cycles, 28u);
  const auto [on_makespan, on_trace] = schedule(/*overlap=*/true);
  EXPECT_EQ(on_makespan, on.stats.memory_makespan_cycles);
  EXPECT_EQ(on_trace,
            (std::vector<std::string>{
                "mvin tile=0 bank=0 [0,4)", "preload tile=0 bank=0 [4,6)",
                "compute tile=0 bank=0 [6,13)", "mvout tile=0 bank=0 [13,15)",
                "mvin tile=1 bank=1 [6,10)", "preload tile=1 bank=1 [10,12)",
                "compute tile=1 bank=1 [13,20)", "mvout tile=1 bank=1 [20,22)",
                "mvin tile=2 bank=0 [15,19)", "preload tile=2 bank=0 [19,21)",
                "compute tile=2 bank=0 [21,28)"}));

  // The policy moved transfers in time, never in substance: identical
  // results, compute timing, and transfer totals.
  EXPECT_EQ(off.relation.tuples(), on.relation.tuples());
  EXPECT_EQ(off.stats.makespan_cycles, on.stats.makespan_cycles);
  EXPECT_EQ(on.stats.MemoryMakespanUtilization(), 21.0 / 28.0);
}

}  // namespace
}  // namespace arrays
}  // namespace systolic
