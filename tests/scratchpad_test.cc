// Unit tests for the S25 scratchpad/DMA layer: bank staging and drain
// accounting, the double-buffered DMA schedule against hand-derived
// timelines, and — because the DMA costing is built on it — a seeded
// property test of MemoryModule byte accounting (RelationBytes vs the
// cumulative bytes_written/bytes_read counters across Store / AccountRead /
// Clear sequences) plus the CrossbarFeed entry point.

#include "system/scratchpad/scratchpad.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "relational/generator.h"
#include "relational/relation.h"
#include "system/scratchpad/memory.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace {

using rel::Relation;
using rel::Schema;
using spad::DmaEvent;
using spad::DmaOp;
using spad::DmaQueue;
using spad::OverlapPolicy;
using spad::ScratchpadBank;

Relation SmallRelation(size_t num_tuples, size_t arity, uint64_t seed = 7) {
  const Schema schema = rel::MakeIntSchema(arity);
  rel::GeneratorOptions options;
  options.num_tuples = num_tuples;
  options.domain_size = 5;
  options.seed = seed;
  auto r = rel::GenerateRelation(schema, options);
  SYSTOLIC_CHECK(r.ok());
  return *std::move(r);
}

TEST(ScratchpadCosting, TransferCyclesCeilsAtThePortRate) {
  EXPECT_EQ(spad::TransferCycles(0), 0u);
  EXPECT_EQ(spad::TransferCycles(1), 1u);
  EXPECT_EQ(spad::TransferCycles(8), 1u);
  EXPECT_EQ(spad::TransferCycles(9), 2u);
  EXPECT_EQ(spad::TransferCycles(64), 8u);
}

TEST(ScratchpadCosting, ByteModels) {
  // One 8-byte element code per column, matching RelationBytes.
  EXPECT_EQ(spad::TupleBytes(3, 2), 48.0);
  EXPECT_EQ(spad::TupleBytes(0, 5), 0.0);
  // Result bits pack into whole bytes.
  EXPECT_EQ(spad::BitDrainBytes(0), 0.0);
  EXPECT_EQ(spad::BitDrainBytes(1), 1.0);
  EXPECT_EQ(spad::BitDrainBytes(8), 1.0);
  EXPECT_EQ(spad::BitDrainBytes(9), 2.0);
}

TEST(ScratchpadPolicy, ParseAndPrintRoundTrip) {
  for (const OverlapPolicy policy : {OverlapPolicy::kOff, OverlapPolicy::kOn}) {
    OverlapPolicy parsed;
    ASSERT_TRUE(
        spad::ParseOverlapPolicy(spad::OverlapPolicyToString(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  OverlapPolicy parsed;
  EXPECT_FALSE(spad::ParseOverlapPolicy("auto", &parsed));
  EXPECT_FALSE(spad::ParseOverlapPolicy("sometimes", &parsed));
  EXPECT_FALSE(spad::ParseOverlapPolicy("", &parsed));
}

TEST(ScratchpadBankTest, StageCopiesTheExactSliceAndClamps) {
  const Relation r = SmallRelation(10, 2);
  ScratchpadBank bank;
  const Relation block = bank.Stage(r, 3, 4);
  ASSERT_EQ(block.num_tuples(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(block.tuple(i), r.tuple(3 + i));
  }
  EXPECT_EQ(bank.staged_bytes(), 8.0 * 4 * 2);

  // Past-the-end staging clamps, exactly like the engine's tail tiles.
  const Relation tail = bank.Stage(r, 8, 4);
  EXPECT_EQ(tail.num_tuples(), 2u);
  EXPECT_EQ(bank.staged_bytes(), 8.0 * 2 * 2);
  // Byte traffic accumulates across stagings.
  EXPECT_EQ(bank.bytes_in(), 8.0 * 4 * 2 + 8.0 * 2 * 2);
}

TEST(ScratchpadBankTest, WholeSourceStagesInPlaceAtFullCost) {
  const Relation r = SmallRelation(5, 2);
  ScratchpadBank bank;
  // A slice spanning the whole source (or running past it) is the source
  // itself — no copy — yet streams in the same bytes a copy would.
  EXPECT_EQ(&bank.Stage(r, 0, 5), &r);
  EXPECT_EQ(&bank.Stage(r, 0, 9), &r);
  EXPECT_EQ(bank.staged_bytes(), 8.0 * 5 * 2);
  EXPECT_EQ(bank.bytes_in(), 2 * 8.0 * 5 * 2);
  // Any proper sub-range is still copied out.
  EXPECT_NE(&bank.Stage(r, 0, 4), &r);
}

TEST(ScratchpadBankTest, DrainTracksAndRestageResetsTheCursor) {
  const Relation r = SmallRelation(6, 2);
  ScratchpadBank bank;
  bank.Stage(r, 0, 6);
  bank.Drain(bank.staged_bytes());
  EXPECT_EQ(bank.bytes_out(), 8.0 * 6 * 2);
  // A fresh staging resets the drain cursor: the full feed is available
  // again — the retry-replay contract.
  bank.Stage(r, 0, 6);
  bank.Drain(bank.staged_bytes());
  EXPECT_EQ(bank.bytes_out(), 2 * 8.0 * 6 * 2);
}

TEST(DmaQueueTest, OverlapOffSerialisesEveryCommand) {
  std::vector<DmaEvent> trace;
  DmaQueue queue(/*overlap=*/false, spad::kBankPairs, &trace);
  queue.Mvin(0, 32);     // 4 pulses
  queue.Preload(0, 16);  // 2 pulses
  queue.Compute(0, 10);
  queue.Mvout(0, 8);  // 1 pulse
  queue.Mvin(1, 32);
  queue.Compute(1, 10);
  queue.Mvout(1, 8);

  const size_t makespan = queue.Makespan();
  EXPECT_EQ(makespan, queue.SerialCycleTotal());
  EXPECT_EQ(makespan, 4u + 2 + 10 + 1 + 4 + 10 + 1);
  EXPECT_EQ(queue.TransferCycleTotal(), 4u + 2 + 1 + 4 + 1);
  // Contiguous timeline: each command starts when the previous ends.
  ASSERT_EQ(trace.size(), 7u);
  size_t clock = 0;
  for (const DmaEvent& event : trace) {
    EXPECT_EQ(event.start, clock);
    clock = event.end;
  }
}

TEST(DmaQueueTest, OverlapHidesTransfersBehindCompute) {
  // Two tiles, each: mvin 4, preload 4, compute 10, mvout 2 pulses.
  //   tile0 bank0: mvin [0,4) preload [4,8) compute [8,18) mvout [18,20)
  //   tile1 bank1: mvin [8,12) preload [12,16)    (DMA engine serialises)
  //                compute [18,28)                (compute unit serialises)
  //                mvout [28,30)
  std::vector<DmaEvent> trace;
  DmaQueue queue(/*overlap=*/true, spad::kBankPairs, &trace);
  for (size_t tile = 0; tile < 2; ++tile) {
    queue.Mvin(tile, 32);
    queue.Preload(tile, 32);
    queue.Compute(tile, 10);
    queue.Mvout(tile, 16);
  }
  const size_t makespan = queue.Makespan();
  EXPECT_EQ(makespan, 30u);
  EXPECT_EQ(queue.SerialCycleTotal(), 40u);
  ASSERT_EQ(trace.size(), 8u);
  const size_t expected_start[] = {0, 4, 8, 18, 8, 12, 18, 28};
  const size_t expected_end[] = {4, 8, 18, 20, 12, 16, 28, 30};
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].start, expected_start[i]) << spad::ToString(trace[i]);
    EXPECT_EQ(trace[i].end, expected_end[i]) << spad::ToString(trace[i]);
  }
  // Bank assignment is round-robin over the pair.
  EXPECT_EQ(trace[0].command.bank, 0u);
  EXPECT_EQ(trace[4].command.bank, 1u);
}

TEST(DmaQueueTest, ThirdTileWaitsForItsBankPair) {
  // Same three tiles over two bank pairs: tile 2 reuses tile 0's bank, so
  // its mvin cannot start before tile 0's mvout ends at pulse 20 — even
  // though the DMA engine is free at 16.
  std::vector<DmaEvent> trace;
  DmaQueue queue(/*overlap=*/true, spad::kBankPairs, &trace);
  for (size_t tile = 0; tile < 3; ++tile) {
    queue.Mvin(tile, 32);
    queue.Preload(tile, 32);
    queue.Compute(tile, 10);
    queue.Mvout(tile, 16);
  }
  const size_t makespan = queue.Makespan();
  ASSERT_EQ(trace.size(), 12u);
  EXPECT_EQ(trace[8].command.op, DmaOp::kMvin);
  EXPECT_EQ(trace[8].command.bank, 0u);
  EXPECT_EQ(trace[8].start, 20u);  // tile 0's bank frees at 20
  EXPECT_EQ(makespan, 40u);
  EXPECT_EQ(queue.SerialCycleTotal(), 60u);
}

TEST(DmaQueueDeathTest, RevisitedTileIsRejected) {
  // The queue schedules each command as it arrives and keeps no per-tile
  // history, so a tile's commands must queue together: coming back to a
  // tile after another one opened is a schedule fault.
  DmaQueue queue(/*overlap=*/true);
  queue.Mvin(0, 8);
  queue.Compute(0, 1);
  queue.Mvin(1, 8);
  queue.Compute(1, 1);
  EXPECT_DEATH(queue.Mvout(0, 8), "each tile's commands queue together");
}

TEST(DmaQueueTest, ZeroByteTransfersQueueNothing) {
  std::vector<DmaEvent> trace;
  DmaQueue queue(/*overlap=*/true, spad::kBankPairs, &trace);
  queue.Mvin(0, 0);
  queue.Preload(0, 0);
  queue.Compute(0, 5);
  queue.Mvout(0, 0);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(queue.Makespan(), 5u);
  EXPECT_EQ(queue.TransferCycleTotal(), 0u);
}

TEST(DmaQueueTest, EventToStringNamesOpTileBankAndWindow) {
  std::vector<DmaEvent> trace;
  DmaQueue queue(/*overlap=*/true, spad::kBankPairs, &trace);
  queue.Mvin(0, 32);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(spad::ToString(trace[0]), "mvin tile=0 bank=0 [0,4)");
  EXPECT_EQ(std::string(spad::DmaOpToString(DmaOp::kPreload)), "preload");
  EXPECT_EQ(std::string(spad::DmaOpToString(DmaOp::kCompute)), "compute");
  EXPECT_EQ(std::string(spad::DmaOpToString(DmaOp::kMvout)), "mvout");
}

// ---------------------------------------------------------------------------
// MemoryModule byte-accounting property test: across random Store /
// AccountRead / Clear sequences, bytes_written is exactly the sum of
// RelationBytes over stored relations, and bytes_read is exactly the sum of
// RelationBytes over the contents at each accounted read; Clear changes
// neither counter.
// ---------------------------------------------------------------------------

TEST(MemoryModuleProperty, CountersMatchRelationBytesUnderRandomSequences) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 2654435761u + 17);
    machine::MemoryModule module("prop" + std::to_string(seed));
    double expect_written = 0;
    double expect_read = 0;
    for (size_t step = 0; step < 40; ++step) {
      const int action = static_cast<int>(rng.Uniform(0, 2));
      if (action == 0) {
        const size_t tuples = static_cast<size_t>(rng.Uniform(0, 9));
        const size_t arity = 1 + static_cast<size_t>(rng.Uniform(0, 3));
        Relation r = SmallRelation(tuples, arity, seed * 100 + step);
        expect_written += machine::RelationBytes(r);
        module.Store(std::move(r));
        EXPECT_TRUE(module.occupied());
      } else if (action == 1) {
        if (module.occupied()) {
          expect_read += machine::RelationBytes(**module.Contents());
        }
        module.AccountRead();  // a no-op on an empty module
      } else {
        module.Clear();
        EXPECT_FALSE(module.occupied());
        EXPECT_FALSE(module.Contents().ok());
      }
      EXPECT_EQ(module.bytes_written(), expect_written) << "seed " << seed;
      EXPECT_EQ(module.bytes_read(), expect_read) << "seed " << seed;
    }
  }
}

TEST(CrossbarFeedTest, AccountsOneReadAndReturnsTheBytesMoved) {
  machine::MemoryModule module("feed");
  // Empty module: nothing moves, nothing is accounted.
  EXPECT_EQ(spad::CrossbarFeed(module), 0.0);
  EXPECT_EQ(module.bytes_read(), 0.0);

  Relation r = SmallRelation(4, 3);
  const double bytes = machine::RelationBytes(r);
  module.Store(std::move(r));
  EXPECT_EQ(spad::CrossbarFeed(module), bytes);
  EXPECT_EQ(module.bytes_read(), bytes);
  EXPECT_EQ(spad::CrossbarFeed(module), bytes);
  EXPECT_EQ(module.bytes_read(), 2 * bytes);
}

}  // namespace
}  // namespace systolic
