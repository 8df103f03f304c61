#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>

#include "arrays/dedup_array.h"
#include "arrays/division_array.h"
#include "arrays/intersection_array.h"
#include "arrays/join_array.h"
#include "fastpath/analytic_timing.h"
#include "fastpath/kernels.h"
#include "faults/checksum.h"
#include "faults/fault_scope.h"
#include "perfmodel/estimates.h"
#include "system/scratchpad/memory.h"
#include "system/scratchpad/scratchpad.h"
#include "systolic/schedule.h"
#include "util/logging.h"

namespace systolic {
namespace db {

using arrays::ArrayRunInfo;
using arrays::FeedMode;
using rel::Relation;

Engine::Engine(DeviceConfig device) : Engine(device, nullptr) {}

Engine::Engine(DeviceConfig device, std::shared_ptr<ChipPool> shared_pool)
    : device_(device),
      pool_(device.num_chips > 1
                ? (shared_pool != nullptr
                       ? std::move(shared_pool)
                       : std::make_shared<ChipPool>(device.num_chips))
                : nullptr),
      health_(device.faults != nullptr
                  ? std::make_shared<ChipHealth>(
                        std::max<size_t>(1, device.num_chips),
                        device.recovery.strike_limit)
                  : nullptr) {}

size_t Engine::num_chips() const { return std::max<size_t>(1, device_.num_chips); }

Status Engine::RunTiled(
    size_t count, const std::function<Status(size_t tile)>& task,
    ExecStats* stats,
    const std::function<uint64_t(size_t tile)>& tile_checksum) const {
  const auto dispatch =
      [&](const std::function<Status(size_t)>& tile_task) -> Status {
    if (pool_ == nullptr || count <= 1) {
      for (size_t tile = 0; tile < count; ++tile) {
        SYSTOLIC_RETURN_NOT_OK(tile_task(tile));
      }
      return Status::OK();
    }
    std::vector<Status> statuses(count);
    pool_->RunAll(count, [&tile_task, &statuses](size_t tile, size_t /*chip*/) {
      statuses[tile] = tile_task(tile);
    });
    for (const Status& status : statuses) {
      SYSTOLIC_RETURN_NOT_OK(status);
    }
    return Status::OK();
  };

  if (health_ == nullptr) return dispatch(task);

  // Fault-tolerant path. Every tile attempt runs inside a FaultScope that
  // injects the plan's faults for its chip and counts every corruption it
  // inflicts (the modelled bus parity / valid-strobe monitors). An attempt
  // is accepted only when it returned OK with zero detected corruptions —
  // so accepted tiles are exactly what a fault-free chip computes, which is
  // what makes recovered output bit-identical to the fault-free run.
  const faults::FaultPlan* plan = device_.faults.get();
  const faults::RecoveryOptions& recovery = device_.recovery;
  const size_t chips = health_->num_chips();
  const size_t max_attempts =
      recovery.max_attempts_per_tile != 0
          ? recovery.max_attempts_per_tile
          : health_->strike_limit() * chips + 4;

  std::atomic<size_t> faults_detected{0};
  std::atomic<size_t> retries{0};
  std::atomic<size_t> shadow_runs{0};
  std::atomic<size_t> shadow_mismatches{0};

  // Shadow attempts draw an independent injection stream via this key bit.
  constexpr uint32_t kShadowAttemptBit = 0x80000000u;

  const auto attempt_once = [&](size_t tile, size_t chip,
                                uint32_t attempt) -> Status {
    faults::FaultScope scope(plan, chip, tile, attempt);
    if (scope.chip_dead()) {
      return Status::Unavailable("chip " + std::to_string(chip) +
                                 " is dead and answers no work");
    }
    Status status;
    try {
      status = task(tile);
    } catch (const HardwareFault& fault) {
      // A corrupted word tripped an array invariant mid-pass.
      return Status::DataCorruption(fault.what());
    }
    if (status.IsInternal()) {
      // Under injection a stall / lost-output Internal is the fault's
      // doing, not a driver bug: recoverable.
      return Status::DataCorruption(status.message());
    }
    if (status.ok() && scope.corruptions() > 0) {
      return Status::DataCorruption(
          std::to_string(scope.corruptions()) +
          " corrupted word(s) detected on chip " + std::to_string(chip));
    }
    return status;
  };

  const auto recovered = [&](size_t tile) -> Status {
    // Route by TILE, not by worker thread: which pool worker claims a tile
    // is scheduling-dependent, and the injected faults are keyed by (chip,
    // tile, attempt) — tile-keyed routing makes the whole fault history of
    // a run reproducible regardless of thread interleaving.
    std::optional<size_t> chip = health_->PreferredChip(tile % chips);
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (!chip.has_value()) {
        return Status::Unavailable("no usable chips remain: all " +
                                   std::to_string(chips) +
                                   " are quarantined or dead");
      }
      if (attempt > 0) ++retries;
      Status status = attempt_once(tile, *chip, attempt);
      if (status.ok() &&
          faults::ShadowSampled(plan->seed(), tile,
                                recovery.shadow_fraction)) {
        // Defense in depth: re-run the tile and require matching output
        // checksums. The shadow run faces fresh (independently keyed)
        // faults, so it must itself pass detection to be comparable.
        const uint64_t primary = tile_checksum(tile);
        const Status shadow =
            attempt_once(tile, *chip, attempt | kShadowAttemptBit);
        ++shadow_runs;
        if (!shadow.ok()) {
          status = shadow;
        } else if (tile_checksum(tile) != primary) {
          ++shadow_mismatches;
          status = Status::DataCorruption(
              "shadow re-execution checksum mismatch on chip " +
              std::to_string(*chip));
        }
      }
      if (status.ok()) {
        // A clean attempt proves the chip still works: forgive its strikes,
        // so only consecutive failures — a genuinely failing chip, not a
        // run of transient upsets — ever reach quarantine.
        health_->ClearStrikes(*chip);
        return status;
      }
      if (!status.IsDataCorruption() && !status.IsUnavailable()) {
        return status;  // caller error (capacity, arity, ...): not a fault
      }
      ++faults_detected;
      if (status.IsUnavailable()) {
        health_->Quarantine(*chip);
      } else {
        health_->Strike(*chip);
      }
      chip = health_->PreferredChip((*chip + 1) % chips);
    }
    return Status::Unavailable("tile " + std::to_string(tile) +
                               " still failing after " +
                               std::to_string(max_attempts) + " attempts");
  };

  const Status status = dispatch(recovered);
  stats->faults_detected += faults_detected.load();
  stats->tile_retries += retries.load();
  stats->shadow_runs += shadow_runs.load();
  stats->shadow_mismatches += shadow_mismatches.load();
  return status;
}

void Engine::MergePassInfos(const std::vector<ArrayRunInfo>& infos,
                            const std::vector<TileTraffic>& traffic,
                            ExecStats* stats) const {
  SYSTOLIC_CHECK(traffic.size() == infos.size())
      << "DMA accounting needs one traffic record per tile";
  stats->num_chips = num_chips();
  // Degradation: quarantined chips take no further passes, so the makespan
  // schedule only spreads over the chips still usable.
  const size_t usable = health_ == nullptr
                            ? num_chips()
                            : std::max<size_t>(1, health_->num_usable());
  stats->healthy_chips = usable;
  // Sum exactly as the serial path's per-pass accumulation would.
  std::vector<size_t> chip_busy(usable, 0);
  std::vector<size_t> chip_of_tile(infos.size(), 0);
  for (size_t t = 0; t < infos.size(); ++t) {
    const ArrayRunInfo& info = infos[t];
    ++stats->passes;
    stats->cycles += info.cycles;
    stats->busy_cell_cycles += info.sim.busy_cell_cycles;
    stats->num_compute_cells =
        std::max(stats->num_compute_cells, info.sim.num_compute_cells);
    // Greedy tile-order schedule: each pass to the chip that frees first.
    const auto next_free = std::min_element(chip_busy.begin(), chip_busy.end());
    chip_of_tile[t] = static_cast<size_t>(next_free - chip_busy.begin());
    *next_free += info.cycles;
  }
  stats->makespan_cycles +=
      *std::max_element(chip_busy.begin(), chip_busy.end());
  if (infos.empty()) return;

  const bool overlap = ResolveOverlap();
  stats->overlap_enabled = overlap;
  size_t chips_used = 0;
  for (size_t chip : chip_of_tile) {
    chips_used = std::max(chips_used, chip + 1);
  }
  // One DMA engine + bank set per chip: queue each chip's tiles in tile
  // order (the same order the greedy schedule assigns them). The batch's
  // memory critical path is the slowest chip's schedule, mirroring how
  // makespan_cycles takes the busiest chip.
  size_t batch_makespan = 0;
  for (size_t chip = 0; chip < chips_used; ++chip) {
    spad::DmaQueue queue(overlap);
    for (size_t t = 0; t < infos.size(); ++t) {
      if (chip_of_tile[t] != chip) continue;
      queue.Mvin(t, traffic[t].in_a);
      queue.Preload(t, traffic[t].in_b);
      queue.Compute(t, infos[t].cycles);
      queue.Mvout(t, traffic[t].out);
    }
    const size_t makespan = queue.Schedule();
    stats->dma_cycles += queue.TransferCycleTotal();
    stats->overlap_cycles += queue.SerialCycleTotal() - makespan;
    batch_makespan = std::max(batch_makespan, makespan);
  }
  stats->memory_makespan_cycles += batch_makespan;
}

size_t Engine::BlockCapacity(FeedMode mode, bool bottom) const {
  return perf::MembershipBlockCapacity(mode == FeedMode::kFixedB, bottom,
                                       device_.rows);
}

double Engine::EstimatePulses(FeedMode mode, size_t n_a, size_t n_b,
                              size_t columns) const {
  // Shared with the query planner (perfmodel/estimates), so the planner's
  // predicted feed mode is exactly what ResolveMode picks at run time.
  if (mode == FeedMode::kFixedB) {
    return perf::FixedBMembershipPulses(n_a, n_b, columns, device_.rows);
  }
  return perf::MarchingMembershipPulses(n_a, n_b, columns, device_.rows);
}

bool Engine::ResolveOverlap() const {
  return device_.overlap == spad::OverlapPolicy::kOn;
}

fastpath::Backend Engine::ResolveBackend() const {
  // Fault injection corrupts words inside individual pulses; the analytic
  // fast path simulates no pulses, so any fast policy silently falls back
  // to the RTL simulator while a fault plan is installed.
  if (device_.backend == fastpath::BackendPolicy::kRtl ||
      device_.faults != nullptr) {
    return fastpath::Backend::kRtl;
  }
  return fastpath::Backend::kFast;
}

FeedMode Engine::ResolveMode(size_t n_a, size_t n_b) const {
  switch (device_.mode) {
    case arrays::FeedModePolicy::kMarching:
      return FeedMode::kMarching;
    case arrays::FeedModePolicy::kFixedB:
      return FeedMode::kFixedB;
    case arrays::FeedModePolicy::kAuto:
      break;
  }
  const double marching = EstimatePulses(FeedMode::kMarching, n_a, n_b, 1);
  const double fixed = EstimatePulses(FeedMode::kFixedB, n_a, n_b, 1);
  return fixed <= marching ? FeedMode::kFixedB : FeedMode::kMarching;
}

Engine Engine::WithMode(FeedMode mode) const {
  Engine copy = *this;  // shares pool_, so no threads are spawned
  copy.device_.mode = mode == FeedMode::kFixedB
                          ? arrays::FeedModePolicy::kFixedB
                          : arrays::FeedModePolicy::kMarching;
  return copy;
}

Status Engine::CheckWidth(size_t width) const {
  if (device_.columns != 0 && width > device_.columns) {
    return Status::Capacity(
        "operand width " + std::to_string(width) + " exceeds the device's " +
        std::to_string(device_.columns) +
        " columns; the paper's decomposition partitions the result matrix "
        "over tuples, not over columns (§8)");
  }
  return Status::OK();
}

template <typename TileOut, typename Out>
Result<Out> Engine::DispatchTiles(
    const std::vector<Tile>& tiles, const TileKernel<TileOut>& rtl,
    const TileKernel<TileOut>& fast, const WholeKernel<Out>& fast_whole,
    const std::function<Result<Out>(std::vector<TileOut>)>& merge,
    const std::function<uint64_t(const TileOut&)>& checksum,
    const std::function<double(const TileOut&)>& drain_bytes,
    ExecStats* stats) const {
  // One pass, either executor: same output, same cycle count. Only the RTL
  // simulator produces cell-occupancy statistics.
  const fastpath::Backend backend = ResolveBackend();
  stats->backend = backend;
  stats->analytic_timing = backend == fastpath::Backend::kFast;
  std::vector<ArrayRunInfo> infos(tiles.size());
  std::vector<TileTraffic> traffic(tiles.size());

  // An empty batch takes the per-tile path below, which calls no kernel.
  if (backend == fastpath::Backend::kFast && fast_whole != nullptr &&
      !tiles.empty()) {
    // A tile's feed is its blocks at 8 bytes per code, staged or not.
    for (size_t t = 0; t < tiles.size(); ++t) {
      const Tile& tile = tiles[t];
      traffic[t].in_a = spad::TupleBytes(tile.a_count, tile.a->arity());
      if (tile.b != nullptr) {
        traffic[t].in_b = spad::TupleBytes(tile.b_count, tile.b->arity());
      }
    }
    SYSTOLIC_ASSIGN_OR_RETURN(Out out, fast_whole(&infos, &traffic));
    MergePassInfos(infos, traffic, stats);
    return out;
  }

  const TileKernel<TileOut>& kernel =
      backend == fastpath::Backend::kFast ? fast : rtl;
  std::vector<Result<TileOut>> outputs(tiles.size(),
                                       Status::Internal("tile never ran"));
  SYSTOLIC_RETURN_NOT_OK(RunTiled(
      tiles.size(),
      [&](size_t t) -> Status {
        const Tile& tile = tiles[t];
        // Per-attempt banks: a retried attempt re-stages its operand feed
        // from scratch, so it never sees a half-drained bank.
        spad::ScratchpadBank bank_a;
        spad::ScratchpadBank bank_b;
        const Relation& block_a =
            bank_a.Stage(*tile.a, tile.a_start, tile.a_count);
        const Relation& block_b =
            tile.b != nullptr
                ? bank_b.Stage(*tile.b, tile.b_start, tile.b_count)
                : block_a;
        ArrayRunInfo info;
        outputs[t] = kernel(t, block_a, block_b, &info);
        if (!outputs[t].ok()) return outputs[t].status();
        // The accepted attempt's feed streams out of the banks into the
        // array exactly once; its output drains back through mvout.
        bank_a.Drain(bank_a.staged_bytes());
        bank_b.Drain(bank_b.staged_bytes());
        infos[t] = info;
        traffic[t] = {bank_a.staged_bytes(), bank_b.staged_bytes(),
                      drain_bytes(*outputs[t])};
        return Status::OK();
      },
      stats, [&](size_t t) { return checksum(*outputs[t]); }));
  MergePassInfos(infos, traffic, stats);

  std::vector<TileOut> per_tile;
  per_tile.reserve(tiles.size());
  for (Result<TileOut>& output : outputs) {
    per_tile.push_back(std::move(output).ValueOrDie());
  }
  return merge(std::move(per_tile));
}

Result<BitVector> Engine::TiledMembership(const Relation& a, const Relation& b,
                                          bool dedup, ExecStats* stats) const {
  const size_t n_a = a.num_tuples();
  const size_t n_b = b.num_tuples();
  arrays::MembershipOptions options;
  options.rows = device_.rows;

  // Enumerate the §8 tile grid up front: every tile is an independent
  // sub-problem, so the batch can fan out across the chip pool.
  std::vector<Tile> tiles;
  if (n_a > 0) {
    options.mode = ResolveMode(n_a, n_b);
    stats->resolved_mode = options.mode;
    // Block sizes: dedup tiles A against itself by the preload (bottom)
    // capacity so both disciplines use the same decomposition; the general
    // case blocks A by the top capacity and B by the bottom capacity.
    const size_t cap_a =
        std::min(BlockCapacity(options.mode, /*bottom=*/dedup), n_a);
    if (dedup) {
      // Tile pairs (p, q) with q <= p over blocks of A. Diagonal tiles carry
      // no B slice and use the lower-triangle rule on block-local indices
      // (which coincide pairwise); below-diagonal tiles compare full blocks,
      // since every such pair already has j < i globally.
      for (size_t p = 0; p < n_a; p += cap_a) {
        const size_t rows_p = std::min(cap_a, n_a - p);
        for (size_t q = 0; q <= p; q += cap_a) {
          tiles.push_back(q == p ? Tile{&a, p, rows_p}
                                 : Tile{&a, p, rows_p, &a, q, cap_a});
        }
      }
    } else {
      const size_t cap_b = std::min(BlockCapacity(options.mode, true),
                                    std::max<size_t>(1, n_b));
      for (size_t ai = 0; ai < n_a; ai += cap_a) {
        for (size_t bi = 0; bi < n_b; bi += cap_b) {
          tiles.push_back({&a, ai, std::min(cap_a, n_a - ai), &b, bi,
                           std::min(cap_b, n_b - bi)});
        }
        // Empty B: the pass is trivially empty; nothing to run.
        if (n_b == 0) ++stats->passes;
      }
    }
  }

  const std::vector<size_t> a_cols = sim::AllColumns(a);
  const std::vector<size_t> b_cols = sim::AllColumns(b);
  const auto edge_rule = [&tiles](size_t t) {
    return tiles[t].b == nullptr ? arrays::EdgeRule::kStrictLowerTriangle
                                 : arrays::EdgeRule::kAllTrue;
  };
  return DispatchTiles<BitVector, BitVector>(
      tiles,
      [&](size_t t, const Relation& block_a, const Relation& block_b,
          ArrayRunInfo* info) {
        return arrays::RunMembership(block_a, block_b, a_cols, b_cols,
                                     edge_rule(t), options, info);
      },
      nullptr,
      [&](std::vector<ArrayRunInfo>* infos,
          std::vector<TileTraffic>* traffic) -> Result<BitVector> {
        if (a_cols.empty()) {
          return Status::InvalidArgument(
              "membership query needs equal, non-empty column lists");
        }
        for (size_t t = 0; t < tiles.size(); ++t) {
          const Tile& tile = tiles[t];
          (*infos)[t].cycles = fastpath::MembershipCycles(
              options.mode, tile.a_count,
              tile.b != nullptr ? tile.b_count : tile.a_count, a_cols.size(),
              options.rows);
          (*traffic)[t].out = spad::BitDrainBytes(tile.a_count);
        }
        // The tiles' bits OR into: a_i equals some tuple of B or, for dedup
        // (B is A), some tuple of A at a lower index.
        return fastpath::MembershipBits(
            a, b, a_cols, b_cols,
            dedup ? arrays::EdgeRule::kStrictLowerTriangle
                  : arrays::EdgeRule::kAllTrue);
      },
      [&](std::vector<BitVector> tile_bits) -> Result<BitVector> {
        BitVector acc(n_a, false);
        for (size_t t = 0; t < tiles.size(); ++t) {
          const BitVector& bits = tile_bits[t];
          for (size_t i = 0; i < bits.size(); ++i) {
            if (bits.Get(i)) acc.Set(tiles[t].a_start + i, true);
          }
        }
        return acc;
      },
      faults::ChecksumBits,
      [](const BitVector& bits) { return spad::BitDrainBytes(bits.size()); },
      stats);
}

Result<EngineResult> Engine::Intersect(const Relation& a,
                                       const Relation& b) const {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(a.arity()));
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(BitVector bits,
                            TiledMembership(a, b, /*dedup=*/false, &stats));
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

Result<EngineResult> Engine::Subtract(const Relation& a,
                                      const Relation& b) const {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(a.arity()));
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(BitVector bits,
                            TiledMembership(a, b, /*dedup=*/false, &stats));
  bits.FlipAll();
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

Result<EngineResult> Engine::RemoveDuplicates(const Relation& a) const {
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(a.arity()));
  if (a.arity() == 0) {
    return Status::InvalidArgument("operand must have at least one column");
  }
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(BitVector duplicate,
                            TiledMembership(a, a, /*dedup=*/true, &stats));
  duplicate.FlipAll();
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(duplicate, rel::RelationKind::kSet));
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

Result<EngineResult> Engine::Union(const Relation& a,
                                   const Relation& b) const {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  Relation concatenated(a.schema(), rel::RelationKind::kMulti);
  SYSTOLIC_RETURN_NOT_OK(concatenated.Concatenate(a));
  SYSTOLIC_RETURN_NOT_OK(concatenated.Concatenate(b));
  return RemoveDuplicates(concatenated);
}

Result<EngineResult> Engine::Project(const Relation& a,
                                     const std::vector<size_t>& columns) const {
  SYSTOLIC_ASSIGN_OR_RETURN(Relation narrowed, a.ProjectColumns(columns));
  return RemoveDuplicates(narrowed);
}

namespace {

/// Adapts a per-tile entry point whose result carries its own pass record
/// (division, selection) to the TileKernel shape.
template <typename PassResult>
Result<PassResult> WithPassRecord(Result<PassResult> pass,
                                  ArrayRunInfo* info) {
  if (pass.ok()) *info = pass->info;
  return pass;
}

}  // namespace

Result<EngineResult> Engine::Join(const Relation& a, const Relation& b,
                                  const rel::JoinSpec& spec) const {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateJoinSpec(a.schema(), b.schema(), spec));
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(spec.left_columns.size()));
  SYSTOLIC_ASSIGN_OR_RETURN(
      rel::Schema out_schema,
      rel::JoinOutputSchema(a.schema(), b.schema(), spec));
  EngineResult result(
      Relation(std::move(out_schema), rel::RelationKind::kMulti));
  const size_t n_a = a.num_tuples();
  const size_t n_b = b.num_tuples();
  arrays::JoinArrayOptions options;
  options.rows = device_.rows;
  std::vector<Tile> tiles;
  size_t cap_a = 1;
  size_t cap_b = 1;
  if (n_a > 0 && n_b > 0) {
    options.mode = ResolveMode(n_a, n_b);
    result.stats.resolved_mode = options.mode;
    cap_a = std::min(BlockCapacity(options.mode, false), n_a);
    cap_b = std::min(BlockCapacity(options.mode, true), n_b);
    for (size_t ai = 0; ai < n_a; ai += cap_a) {
      for (size_t bi = 0; bi < n_b; bi += cap_b) {
        tiles.push_back({&a, ai, std::min(cap_a, n_a - ai), &b, bi,
                         std::min(cap_b, n_b - bi)});
      }
    }
  }

  // A tile keeps only its match pairs, shifted to operand indices; the
  // joined tuples are built once, in (i, j) order, after the merge.
  using Matches = std::vector<std::pair<size_t, size_t>>;
  const auto matches_of = [&tiles](size_t t,
                                   const Result<arrays::JoinArrayResult>& tile,
                                   ArrayRunInfo* info) -> Result<Matches> {
    SYSTOLIC_RETURN_NOT_OK(tile.status());
    *info = tile->info;
    Matches matches;
    matches.reserve(tile->matches.size());
    for (const auto& [i, j] : tile->matches) {
      matches.emplace_back(tiles[t].a_start + i, tiles[t].b_start + j);
    }
    return matches;
  };
  const size_t out_arity = result.relation.arity();
  SYSTOLIC_ASSIGN_OR_RETURN(
      const Matches matches,
      (DispatchTiles<Matches, Matches>(
          tiles,
          [&](size_t t, const Relation& block_a, const Relation& block_b,
              ArrayRunInfo* info) {
            return matches_of(
                t, arrays::SystolicJoin(block_a, block_b, spec, options),
                info);
          },
          nullptr,
          [&](std::vector<ArrayRunInfo>* infos,
              std::vector<TileTraffic>* traffic) -> Result<Matches> {
            Matches all = fastpath::JoinMatches(
                a, b, spec.left_columns, spec.right_columns, spec.op);
            // Pair (i, j) falls in the tile of A-block i / cap_a and B-block
            // j / cap_b; each tile drains its matches' joined tuples.
            const size_t b_blocks = (n_b + cap_b - 1) / cap_b;
            std::vector<size_t> tile_matches(tiles.size(), 0);
            for (const auto& [i, j] : all) {
              ++tile_matches[i / cap_a * b_blocks + j / cap_b];
            }
            for (size_t t = 0; t < tiles.size(); ++t) {
              const Tile& tile = tiles[t];
              (*infos)[t].cycles = fastpath::JoinCycles(
                  options.mode, tile.a_count, tile.b_count,
                  spec.left_columns.size(), options.rows);
              (*traffic)[t].out = spad::TupleBytes(tile_matches[t], out_arity);
            }
            return all;
          },
          [](std::vector<Matches> tile_matches) -> Result<Matches> {
            Matches all;
            for (const Matches& per_tile : tile_matches) {
              all.insert(all.end(), per_tile.begin(), per_tile.end());
            }
            std::sort(all.begin(), all.end());
            return all;
          },
          faults::ChecksumMatches,
          [out_arity](const Matches& tile) {
            return spad::TupleBytes(tile.size(), out_arity);
          },
          &result.stats)));

  for (const auto& [i, j] : matches) {
    SYSTOLIC_RETURN_NOT_OK(result.relation.Append(
        rel::JoinConcatenate(a.tuple(i), b.tuple(j), spec)));
  }
  return result;
}

Result<EngineResult> Engine::Divide(const Relation& a, const Relation& b,
                                    const rel::DivisionSpec& spec) const {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateDivisionSpec(a.schema(), b.schema(), spec));
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema out_schema,
                            rel::DivisionOutputSchema(a.schema(), spec));
  EngineResult result(Relation(std::move(out_schema), rel::RelationKind::kSet));

  // Dividend-side tiling: group A's tuples by the first-occurrence rank of
  // their quotient value, so each chunk holds at most `rows` distinct
  // dividend keys (the dividend array's height).
  const std::vector<size_t> quotient_columns =
      rel::DivisionQuotientColumns(a.schema(), spec);
  const size_t max_p = device_.rows == 0 ? SIZE_MAX : device_.rows;
  std::map<rel::Tuple, size_t> x_rank;
  std::vector<Relation> chunks;
  for (const rel::Tuple& ta : a.tuples()) {
    rel::Tuple x;
    x.reserve(quotient_columns.size());
    for (size_t c : quotient_columns) x.push_back(ta[c]);
    auto [it, inserted] = x_rank.emplace(std::move(x), x_rank.size());
    const size_t chunk_index = it->second / max_p;
    if (chunk_index >= chunks.size()) {
      chunks.emplace_back(a.schema(), rel::RelationKind::kMulti);
    }
    SYSTOLIC_RETURN_NOT_OK(chunks[chunk_index].Append(ta));
  }

  // Divisor-side tiling: split B into groups of at most `columns` distinct
  // values; a key divides B iff it divides every group (intersection).
  const size_t max_q = device_.columns == 0 ? SIZE_MAX : device_.columns;
  std::vector<Relation> divisor_groups;
  if (b.num_tuples() == 0) {
    divisor_groups.emplace_back(b.schema(), rel::RelationKind::kSet);
  } else {
    std::map<rel::Tuple, size_t> y_rank;
    for (const rel::Tuple& tb : b.tuples()) {
      rel::Tuple y;
      y.reserve(spec.b_columns.size());
      for (size_t c : spec.b_columns) y.push_back(tb[c]);
      auto [it, inserted] = y_rank.emplace(std::move(y), y_rank.size());
      const size_t group_index = it->second / max_q;
      if (group_index >= divisor_groups.size()) {
        divisor_groups.emplace_back(b.schema(), rel::RelationKind::kMulti);
      }
      if (inserted) {
        SYSTOLIC_RETURN_NOT_OK(divisor_groups[group_index].Append(tb));
      }
    }
  }

  // Every (chunk, divisor-group) pass is independent — a key divides B iff
  // it divides every group, and intersecting the groups' survivor sets
  // commutes with running the passes — so the whole grid is one tile batch;
  // the per-chunk intersection below walks groups in order, reproducing the
  // serial result exactly. Every pass re-streams its chunk, so a chunk
  // paired with G divisor groups is staged G times.
  std::vector<Tile> tiles;
  for (const Relation& chunk : chunks) {
    for (const Relation& group : divisor_groups) {
      tiles.push_back(
          {&chunk, 0, chunk.num_tuples(), &group, 0, group.num_tuples()});
    }
  }
  const size_t num_groups = divisor_groups.size();
  SYSTOLIC_ASSIGN_OR_RETURN(
      result.relation,
      (DispatchTiles<arrays::DivisionArrayResult, Relation>(
          tiles,
          [&](size_t, const Relation& block_a, const Relation& block_b,
              ArrayRunInfo* info) {
            return WithPassRecord(
                arrays::SystolicDivision(block_a, block_b, spec), info);
          },
          [&](size_t, const Relation& block_a, const Relation& block_b,
              ArrayRunInfo* info) {
            return WithPassRecord(
                fastpath::FastDivision(block_a, block_b, spec), info);
          },
          nullptr,
          [&](std::vector<arrays::DivisionArrayResult> passes)
              -> Result<Relation> {
            Relation quotient(result.relation.schema(),
                              rel::RelationKind::kSet);
            for (size_t c = 0; c < chunks.size(); ++c) {
              std::vector<rel::Tuple> surviving;  // in first-occurrence order
              for (size_t g = 0; g < num_groups; ++g) {
                const Relation& pass = passes[c * num_groups + g].relation;
                if (g == 0) {
                  surviving = pass.tuples();
                } else {
                  std::vector<rel::Tuple> next;
                  for (const rel::Tuple& x : surviving) {
                    if (pass.Contains(x)) next.push_back(x);
                  }
                  surviving = std::move(next);
                }
              }
              for (rel::Tuple& x : surviving) {
                SYSTOLIC_RETURN_NOT_OK(quotient.Append(std::move(x)));
              }
            }
            return quotient;
          },
          [](const arrays::DivisionArrayResult& pass) {
            return faults::ChecksumRelation(pass.relation);
          },
          [](const arrays::DivisionArrayResult& pass) {
            return machine::RelationBytes(pass.relation);
          },
          &result.stats)));
  // No candidate quotient values: one trivial pass for accounting.
  if (a.num_tuples() == 0) ++result.stats.passes;
  return result;
}

Result<EngineResult> Engine::Select(
    const rel::Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates) const {
  if (device_.columns != 0 && predicates.size() > device_.columns) {
    return Status::Capacity(
        "selection uses " + std::to_string(predicates.size()) +
        " predicates but the device has " + std::to_string(device_.columns) +
        " columns");
  }
  // One tile: A streams whole through the one-row device, and there is no B
  // slice — the predicate constants live in the cells.
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(
      Relation selected,
      (DispatchTiles<arrays::SelectionResult, Relation>(
          {Tile{&a, 0, a.num_tuples()}},
          [&](size_t, const Relation& block_a, const Relation&,
              ArrayRunInfo* info) {
            return WithPassRecord(arrays::SystolicSelect(block_a, predicates),
                                  info);
          },
          [&](size_t, const Relation& block_a, const Relation&,
              ArrayRunInfo* info) {
            return WithPassRecord(fastpath::FastSelect(block_a, predicates),
                                  info);
          },
          nullptr,
          [](std::vector<arrays::SelectionResult> tile) -> Result<Relation> {
            return std::move(tile[0].relation);
          },
          [](const arrays::SelectionResult& tile) {
            return faults::ChecksumBits(tile.selected);
          },
          [](const arrays::SelectionResult& tile) {
            return machine::RelationBytes(tile.relation);
          },
          &stats)));
  EngineResult result(std::move(selected));
  result.stats = stats;
  return result;
}

}  // namespace db
}  // namespace systolic
