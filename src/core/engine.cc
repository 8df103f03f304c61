#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "arrays/dedup_array.h"
#include "arrays/division_array.h"
#include "arrays/intersection_array.h"
#include "arrays/join_array.h"
#include "fastpath/analytic_timing.h"
#include "fastpath/kernels.h"
#include "faults/checksum.h"
#include "faults/fault_scope.h"
#include "perfmodel/estimates.h"
#include "relational/tuple_hash.h"
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
      health_(device.faults != nullptr
                  ? std::make_shared<ChipHealth>(
                        std::max<size_t>(1, device.num_chips),
                        device.recovery.strike_limit)
                  : nullptr) {
  if (device_.num_chips <= 1) return;
  // Only RTL tiles run on the pool (RunTiled); the fast backend computes
  // whole operands on the caller's thread, so it starts no workers.
  if (shared_pool != nullptr) {
    pool_ = std::move(shared_pool);
  } else if (ResolveBackend() == fastpath::Backend::kRtl) {
    pool_ = std::make_shared<ChipPool>(device_.num_chips);
  }
}

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

void Engine::MergePassInfos(const TileGrid& grid, const TileRecord& record,
                            ExecStats* stats, size_t cycle_limit) const {
  stats->num_chips = num_chips();
  // Degradation: quarantined chips take no further passes, so the schedule
  // only spreads over the chips still usable.
  const size_t usable = health_ == nullptr
                            ? num_chips()
                            : std::max<size_t>(1, health_->num_usable());
  stats->healthy_chips = usable;
  const bool overlap = ResolveOverlap();
  // One DMA engine + bank set per chip; each chip queues its tiles in tile
  // order, the same order the greedy schedule assigns them.
  std::vector<size_t> chip_busy(usable, 0);
  std::vector<spad::DmaQueue> queues(usable, spad::DmaQueue(overlap));
  size_t cycles = 0;
  for (size_t t = 0; t < grid.size && cycles < cycle_limit; ++t) {
    const Tile tile = grid.at(t);
    ArrayRunInfo info;
    TileTraffic traffic;
    traffic.in_a = spad::TupleBytes(tile.a_count, tile.a->arity());
    if (tile.b != nullptr) {
      traffic.in_b = spad::TupleBytes(tile.b_count, tile.b->arity());
    }
    record(t, tile, &info, &traffic);
    // Sum exactly as the serial path's per-pass accumulation would.
    cycles += info.cycles;
    ++stats->passes;
    stats->cycles += info.cycles;
    stats->busy_cell_cycles += info.sim.busy_cell_cycles;
    stats->num_compute_cells =
        std::max(stats->num_compute_cells, info.sim.num_compute_cells);
    // Greedy tile-order schedule: each pass to the chip that frees first.
    const auto next_free = std::min_element(chip_busy.begin(), chip_busy.end());
    *next_free += info.cycles;
    spad::DmaQueue& queue = queues[next_free - chip_busy.begin()];
    queue.Mvin(t, traffic.in_a);
    queue.Preload(t, traffic.in_b);
    queue.Compute(t, info.cycles);
    queue.Mvout(t, traffic.out);
  }
  stats->makespan_cycles +=
      *std::max_element(chip_busy.begin(), chip_busy.end());
  if (grid.size == 0) return;
  stats->overlap_enabled = overlap;
  // The batch's memory critical path is the slowest chip's schedule,
  // mirroring how makespan_cycles takes the busiest chip.
  size_t memory_makespan = 0;
  for (const spad::DmaQueue& queue : queues) {
    stats->dma_cycles += queue.TransferCycleTotal();
    stats->overlap_cycles += queue.SerialCycleTotal() - queue.Makespan();
    memory_makespan = std::max(memory_makespan, queue.Makespan());
  }
  stats->memory_makespan_cycles += memory_makespan;
}

Engine::TileGrid Engine::BlockGrid(const Relation& a, size_t cap_a,
                                   const Relation& b, size_t cap_b) {
  const size_t n_a = a.num_tuples();
  const size_t n_b = b.num_tuples();
  if (n_a == 0 || n_b == 0) return {};
  cap_a = std::min(cap_a, n_a);
  cap_b = std::min(cap_b, n_b);
  const size_t b_blocks = (n_b + cap_b - 1) / cap_b;
  return {(n_a + cap_a - 1) / cap_a * b_blocks,
          [&a, &b, n_a, n_b, cap_a, cap_b, b_blocks](size_t t) {
            const size_t a_start = t / b_blocks * cap_a;
            const size_t b_start = t % b_blocks * cap_b;
            return Tile{&a, a_start, std::min(cap_a, n_a - a_start),
                        &b, b_start, std::min(cap_b, n_b - b_start)};
          }};
}

Engine::TileGrid Engine::TriangleGrid(const Relation& a, size_t cap) {
  const size_t n = a.num_tuples();
  if (n == 0) return {};
  cap = std::min(cap, n);
  const size_t blocks = (n + cap - 1) / cap;
  return {blocks * (blocks + 1) / 2, [&a, n, cap](size_t t) {
            // Block row p holds tiles p(p+1)/2 .. p(p+1)/2 + p.
            auto p = static_cast<size_t>(
                (std::sqrt(8.0 * static_cast<double>(t) + 1.0) - 1.0) / 2.0);
            while (p * (p + 1) / 2 > t) --p;
            while ((p + 1) * (p + 2) / 2 <= t) ++p;
            const size_t q = t - p * (p + 1) / 2;
            const size_t rows_p = std::min(cap, n - p * cap);
            return q == p ? Tile{&a, p * cap, rows_p, nullptr, 0, rows_p}
                          : Tile{&a, p * cap, rows_p, &a, q * cap, cap};
          }};
}

Engine::TileGrid Engine::StripGrid(const Relation& a, size_t cap) {
  const size_t n = a.num_tuples();
  if (n == 0) return {};
  cap = std::min(cap, n);
  return {(n + cap - 1) / cap, [&a, n, cap](size_t q) {
            const size_t start = q * cap;
            return Tile{&a, start, n - start, nullptr, 0,
                        std::min(cap, n - start)};
          }};
}

Result<Engine::Tiling> Engine::ChooseTiling(
    const std::function<Tiling(FeedMode)>& tiling) const {
  const std::vector<FeedMode> candidates =
      arrays::FeedModeCandidates(device_.mode, device_.rows);
  if (candidates.empty()) {
    return Status::InvalidArgument("marching mode requires an odd row count, "
                                   "got " + std::to_string(device_.rows));
  }
  if (candidates.size() == 1) return tiling(candidates.front());
  // Every attempt under a fault plan risks injected faults, and fixed-B's
  // fewer, longer tiles meet more of them per attempt: marching's short
  // tiles recover at fault rates where fixed-B's strike out every chip.
  if (device_.faults != nullptr) return tiling(FeedMode::kMarching);
  Tiling fixed = tiling(FeedMode::kFixedB);
  Tiling marching = tiling(FeedMode::kMarching);
  return NoWorse(fixed, marching) ? std::move(fixed) : std::move(marching);
}

bool Engine::NoWorse(const Tiling& preferred, const Tiling& other) const {
  ExecStats p;
  MergePassInfos(preferred.grid, preferred.record, &p);
  // preferred's cycles <= chips x makespan <= chips x memory makespan, and
  // other's memory makespan >= makespan >= cycles / chips: once other's
  // cycles reach `bound`, preferred is no worse on all three.
  const size_t chips = p.healthy_chips;
  const size_t bound = p.memory_makespan_cycles > SIZE_MAX / chips
                           ? SIZE_MAX
                           : p.memory_makespan_cycles * chips;
  ExecStats o;
  MergePassInfos(other.grid, other.record, &o, bound);
  return o.cycles >= bound ||
         (p.cycles <= o.cycles && p.makespan_cycles <= o.makespan_cycles &&
          p.memory_makespan_cycles <= o.memory_makespan_cycles);
}

size_t Engine::BlockCapacity(FeedMode mode, bool bottom) const {
  return perf::MembershipBlockCapacity(mode == FeedMode::kFixedB, bottom,
                                       device_.rows);
}

bool Engine::ResolveOverlap() const {
  return device_.overlap == spad::OverlapPolicy::kOn;
}

fastpath::Backend Engine::ResolveBackend() const {
  // Fault injection corrupts words inside individual pulses; the analytic
  // fast path simulates no pulses, so a fast device silently falls back to
  // the RTL simulator while a fault plan is installed.
  return device_.faults != nullptr ? fastpath::Backend::kRtl : device_.backend;
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
    const Tiling& tiling, const TileKernel<TileOut>& rtl,
    const WholeKernel<Out>& fast,
    const std::function<Result<Out>(std::vector<TileOut>)>& merge,
    const std::function<uint64_t(const TileOut&)>& checksum,
    const std::function<double(const TileOut&)>& drain_bytes,
    ExecStats* stats) const {
  // Either executor: same output, same cycle counts. Only the RTL simulator
  // produces cell-occupancy statistics.
  const fastpath::Backend backend = ResolveBackend();
  stats->backend = backend;
  stats->analytic_timing = backend == fastpath::Backend::kFast;
  const TileGrid& grid = tiling.grid;

  if (backend == fastpath::Backend::kFast) {
    // Records first: a join's, a division's and a selection's records read
    // the result `fast` hands over.
    MergePassInfos(grid, tiling.record, stats);
    return fast();
  }

  std::vector<Result<TileOut>> outputs(grid.size,
                                       Status::Internal("tile never ran"));
  std::vector<ArrayRunInfo> infos(grid.size);
  std::vector<TileTraffic> traffic(grid.size);
  SYSTOLIC_RETURN_NOT_OK(RunTiled(
      grid.size,
      [&](size_t t) -> Status {
        const Tile tile = grid.at(t);
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
        outputs[t] = rtl(t, block_a, block_b, &info);
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
  MergePassInfos(grid,
                 [&](size_t t, const Tile&, ArrayRunInfo* info,
                     TileTraffic* tile_traffic) {
                   *info = infos[t];
                   *tile_traffic = traffic[t];
                 },
                 stats);

  std::vector<TileOut> per_tile;
  per_tile.reserve(grid.size);
  for (Result<TileOut>& output : outputs) {
    per_tile.push_back(std::move(output).ValueOrDie());
  }
  return merge(std::move(per_tile));
}

Result<BitVector> Engine::TiledMembership(const Relation& a, const Relation& b,
                                          bool dedup, ExecStats* stats) const {
  const size_t n_a = a.num_tuples();
  const size_t n_b = b.num_tuples();
  const std::vector<size_t> a_cols = sim::AllColumns(a);
  const std::vector<size_t> b_cols = sim::AllColumns(b);
  arrays::MembershipOptions options;
  options.rows = device_.rows;

  // The §8 tile grid under `mode`. Block sizes: dedup tiles A against
  // itself by the preload (bottom) capacity so both disciplines use the
  // same decomposition; the general case blocks A by the top capacity and
  // B by the bottom capacity. A tile drains one bit per A tuple.
  const auto tiling = [&](FeedMode mode) {
    const size_t cap_a = BlockCapacity(mode, /*bottom=*/dedup);
    const auto with_grid = [&](TileGrid grid) {
      Tiling t;
      t.mode = mode;
      t.grid = std::move(grid);
      t.record = [mode, m = a_cols.size(), rows = device_.rows](
                     size_t, const Tile& tile, ArrayRunInfo* info,
                     TileTraffic* traffic) {
        info->cycles = fastpath::MembershipCycles(mode, tile.a_count,
                                                  tile.b_count, m, rows);
        traffic->out = spad::BitDrainBytes(tile.a_count);
      };
      return t;
    };
    if (!dedup) {
      return with_grid(BlockGrid(a, cap_a, b, BlockCapacity(mode, true)));
    }
    // Strips stream A's suffix past each preloaded block: the fewest
    // cycles, but the first strip is the longest tile, and under a fault
    // plan longer tiles meet more faults per attempt.
    Tiling triangle = with_grid(TriangleGrid(a, cap_a));
    if (mode == FeedMode::kMarching || device_.faults != nullptr) {
      return triangle;
    }
    // The overlap policy moves only memory counters, never an explicit
    // discipline's tiles: strips must be no worse with overlap on and off.
    Tiling strips = with_grid(StripGrid(a, cap_a));
    Engine flipped = *this;
    flipped.device_.overlap = ResolveOverlap() ? spad::OverlapPolicy::kOff
                                               : spad::OverlapPolicy::kOn;
    return NoWorse(strips, triangle) && flipped.NoWorse(strips, triangle)
               ? strips
               : triangle;
  };
  SYSTOLIC_ASSIGN_OR_RETURN(const Tiling chosen, ChooseTiling(tiling));
  options.mode = chosen.mode;
  stats->resolved_mode = chosen.mode;
  // Empty B: every A block's pass is trivially empty; nothing to run.
  if (!dedup && n_a > 0 && n_b == 0) {
    const size_t cap_a = std::min(BlockCapacity(chosen.mode, false), n_a);
    stats->passes += (n_a + cap_a - 1) / cap_a;
  }

  const TileGrid& grid = chosen.grid;
  return DispatchTiles<BitVector, BitVector>(
      chosen,
      [&](size_t t, const Relation& block_a, const Relation& block_b,
          ArrayRunInfo* info) -> Result<BitVector> {
        const Tile tile = grid.at(t);
        if (tile.b != nullptr) {
          return arrays::RunMembership(block_a, block_b, a_cols, b_cols,
                                       arrays::EdgeRule::kAllTrue, options,
                                       info);
        }
        // A diagonal tile or strip preloads the head of its own staged A
        // slice under §5's strict lower triangle.
        Relation head(block_a.schema(), rel::RelationKind::kMulti);
        for (size_t j = 0; j < tile.b_count; ++j) {
          SYSTOLIC_RETURN_NOT_OK(head.Append(block_a.tuple(j)));
        }
        return arrays::RunMembership(block_a, head, a_cols, b_cols,
                                     arrays::EdgeRule::kStrictLowerTriangle,
                                     options, info);
      },
      [&]() -> Result<BitVector> {
        // RunMembership refuses zero columns, but only when a tile runs.
        if (a_cols.empty() && grid.size > 0) {
          return Status::InvalidArgument(
              "membership query needs equal, non-empty column lists");
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
        for (size_t t = 0; t < grid.size; ++t) {
          const BitVector& bits = tile_bits[t];
          const size_t a_start = grid.at(t).a_start;
          for (size_t i = 0; i < bits.size(); ++i) {
            if (bits.Get(i)) acc.Set(a_start + i, true);
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
  const size_t out_arity = result.relation.arity();
  arrays::JoinArrayOptions options;
  options.rows = device_.rows;

  // The whole-operand match list in (i, j) order, computed once by the fast
  // kernel when the fast backend runs or kAuto's guard needs tile drains.
  using Matches = std::vector<std::pair<size_t, size_t>>;
  std::optional<Matches> whole;
  const auto whole_matches = [&]() -> const Matches& {
    if (!whole.has_value()) {
      whole = fastpath::JoinMatches(a, b, spec.left_columns,
                                    spec.right_columns, spec.op);
    }
    return *whole;
  };
  // The §8 tile grid under `mode`. A tile drains its matches' joined
  // tuples: pair (i, j) falls in the tile of A-block i / cap_a and B-block
  // j / cap_b, so one A-block's run of the match list counts its row of
  // tiles.
  const auto tiling = [&](FeedMode mode) {
    const size_t cap_a = std::min(BlockCapacity(mode, false), n_a);
    const size_t cap_b = std::min(BlockCapacity(mode, true), n_b);
    const size_t b_blocks = n_b == 0 ? 0 : (n_b + cap_b - 1) / cap_b;
    Tiling t;
    t.mode = mode;
    t.grid = BlockGrid(a, cap_a, b, cap_b);
    t.record = [&whole_matches, mode, cap_b, b_blocks,
                m = spec.left_columns.size(), rows = device_.rows, out_arity,
                row = SIZE_MAX, counts = std::vector<size_t>()](
                   size_t tile_index, const Tile& tile, ArrayRunInfo* info,
                   TileTraffic* traffic) mutable {
      if (tile_index / b_blocks != row) {
        row = tile_index / b_blocks;
        counts.assign(b_blocks, 0);
        const Matches& all = whole_matches();
        const auto first = std::make_pair(tile.a_start, size_t{0});
        for (auto it = std::lower_bound(all.begin(), all.end(), first);
             it != all.end() && it->first < tile.a_start + tile.a_count;
             ++it) {
          ++counts[it->second / cap_b];
        }
      }
      info->cycles =
          fastpath::JoinCycles(mode, tile.a_count, tile.b_count, m, rows);
      traffic->out =
          spad::TupleBytes(counts[tile_index % b_blocks], out_arity);
    };
    return t;
  };
  SYSTOLIC_ASSIGN_OR_RETURN(const Tiling chosen, ChooseTiling(tiling));
  options.mode = chosen.mode;
  result.stats.resolved_mode = chosen.mode;

  // A tile keeps only its match pairs, shifted to operand indices; the
  // joined tuples are built once, in (i, j) order, after the merge.
  const TileGrid& grid = chosen.grid;
  const auto matches_of = [&grid](size_t t,
                                  const Result<arrays::JoinArrayResult>& tile,
                                  ArrayRunInfo* info) -> Result<Matches> {
    SYSTOLIC_RETURN_NOT_OK(tile.status());
    *info = tile->info;
    const Tile slices = grid.at(t);
    Matches matches;
    matches.reserve(tile->matches.size());
    for (const auto& [i, j] : tile->matches) {
      matches.emplace_back(slices.a_start + i, slices.b_start + j);
    }
    return matches;
  };
  SYSTOLIC_ASSIGN_OR_RETURN(
      const Matches matches,
      (DispatchTiles<Matches, Matches>(
          chosen,
          [&](size_t t, const Relation& block_a, const Relation& block_b,
              ArrayRunInfo* info) {
            return matches_of(
                t, arrays::SystolicJoin(block_a, block_b, spec, options),
                info);
          },
          [&]() -> Result<Matches> {
            whole_matches();
            return std::move(*whole);
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
  const std::vector<size_t> quotient_columns =
      rel::DivisionQuotientColumns(a.schema(), spec);
  const fastpath::DivisionMatches matches = fastpath::MatchDivision(
      a, b, quotient_columns, spec.a_columns, spec.b_columns);

  // §7's grid. Chunk c holds the A tuples whose quotient key ranks in
  // [c * keys, (c + 1) * keys), so at most `rows` keys, the dividend
  // array's height; divisor group g holds B's distinct divisor values
  // [g * values, (g + 1) * values), at most `columns`. A key divides B iff
  // it divides every group, so the chunk × group passes are independent and
  // the whole grid is one tile batch; each pass streams its chunk in again.
  const size_t p = matches.key_rows.size();
  const size_t q = matches.value_rows.size();
  const size_t keys = device_.rows == 0 ? std::max<size_t>(1, p) : device_.rows;
  const size_t values =
      device_.columns == 0 ? std::max<size_t>(1, q) : device_.columns;
  const size_t num_chunks = (p + keys - 1) / keys;
  const size_t num_groups = q == 0 ? 1 : (q + values - 1) / values;
  const auto group_size = [q, values](size_t g) {
    return std::min(values, q - g * values);
  };
  // Per chunk: where its tuples start in chunk order, and DivisionCycles'
  // feed term M = max_t(t + x_t), t a tuple's position in the chunk and x_t
  // its key's rank there.
  std::vector<size_t> chunk_start(num_chunks + 1, 0);
  std::vector<size_t> chunk_feed(num_chunks, 0);
  for (size_t x : matches.key) {
    const size_t c = x / keys;
    chunk_feed[c] = std::max(chunk_feed[c], chunk_start[c + 1]++ + x - c * keys);
  }
  std::partial_sum(chunk_start.begin(), chunk_start.end(), chunk_start.begin());

  // Only RTL passes stage tuples: chunk c is rows [chunk_start[c],
  // chunk_start[c + 1]) of A in chunk order, and group g a run of B's
  // distinct divisor tuples. The fast backend reads only the tiles' counts,
  // so its tiles address the operands as they are.
  const bool rtl = ResolveBackend() == fastpath::Backend::kRtl;
  Relation chunked(a.schema(), rel::RelationKind::kMulti);
  Relation distinct(b.schema(), rel::RelationKind::kMulti);
  if (rtl) {
    std::vector<size_t> order(a.num_tuples());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t i, size_t j) {
      return matches.key[i] / keys < matches.key[j] / keys;
    });
    for (size_t i : order) SYSTOLIC_RETURN_NOT_OK(chunked.Append(a.tuple(i)));
    for (size_t j : matches.value_rows) {
      SYSTOLIC_RETURN_NOT_OK(distinct.Append(b.tuple(j)));
    }
  }
  const Relation& rows_a = rtl ? chunked : a;
  const Relation& rows_b = rtl ? distinct : b;

  const size_t out_arity = result.relation.arity();
  Tiling tiling;
  tiling.grid = {num_chunks * num_groups, [&](size_t t) {
                   const size_t c = t / num_groups;
                   const size_t g = t % num_groups;
                   return Tile{&rows_a, chunk_start[c],
                               chunk_start[c + 1] - chunk_start[c],
                               &rows_b, g * values, group_size(g)};
                 }};
  // A tile drains its chunk's keys that match every value of its group. A
  // key's flags run in ascending value order, so one walk over a chunk's
  // run of the flag list counts its row of tiles.
  tiling.record = [&, row = SIZE_MAX, kept = std::vector<size_t>()](
                      size_t t, const Tile& tile, ArrayRunInfo* info,
                      TileTraffic* traffic) mutable {
    const size_t c = t / num_groups;
    const size_t chunk_keys = std::min(keys, p - c * keys);
    if (c != row) {
      row = c;
      kept.assign(num_groups, q == 0 ? chunk_keys : 0);
      const auto& flags = matches.flags;
      auto it = std::lower_bound(flags.begin(), flags.end(),
                                 std::make_pair(c * keys, size_t{0}));
      while (it != flags.end() && it->first < c * keys + chunk_keys) {
        const auto run = it;
        const size_t g = run->second / values;
        while (it != flags.end() && it->first == run->first &&
               it->second / values == g) {
          ++it;
        }
        if (static_cast<size_t>(it - run) == group_size(g)) ++kept[g];
      }
    }
    info->cycles = fastpath::DivisionCycles(tile.a_count, chunk_keys,
                                            tile.b_count, chunk_feed[c]);
    traffic->out = spad::TupleBytes(kept[t % num_groups], out_arity);
  };
  SYSTOLIC_ASSIGN_OR_RETURN(
      result.relation,
      (DispatchTiles<arrays::DivisionArrayResult, Relation>(
          tiling,
          [&](size_t, const Relation& block_a, const Relation& block_b,
              ArrayRunInfo* info) {
            return WithPassRecord(
                arrays::SystolicDivision(block_a, block_b, spec), info);
          },
          [&]() -> Result<Relation> {
            Relation quotient(result.relation.schema(),
                              rel::RelationKind::kSet);
            for (rel::Tuple& x :
                 fastpath::DivisionQuotient(a, quotient_columns, matches)) {
              SYSTOLIC_RETURN_NOT_OK(quotient.Append(std::move(x)));
            }
            return quotient;
          },
          [&](std::vector<arrays::DivisionArrayResult> passes)
              -> Result<Relation> {
            // A key is in the quotient iff every group's pass over its chunk
            // kept it; group 0's passes list the keys in order.
            std::unordered_map<rel::Tuple, size_t, rel::TupleHash> kept;
            for (const arrays::DivisionArrayResult& pass : passes) {
              for (const rel::Tuple& x : pass.relation.tuples()) ++kept[x];
            }
            Relation quotient(result.relation.schema(),
                              rel::RelationKind::kSet);
            for (size_t t = 0; t < passes.size(); t += num_groups) {
              for (const rel::Tuple& x : passes[t].relation.tuples()) {
                if (kept[x] == num_groups) {
                  SYSTOLIC_RETURN_NOT_OK(quotient.Append(x));
                }
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
  SYSTOLIC_RETURN_NOT_OK(arrays::ValidateSelection(a.schema(), predicates));
  const BitVector selected = fastpath::SelectionBits(a, predicates);
  // One tile: A streams whole through the one-row device, and there is no B
  // slice — the predicate constants live in the cells. It drains the
  // selected tuples.
  Tiling tiling;
  tiling.grid = {1, [&a](size_t) { return Tile{&a, 0, a.num_tuples()}; }};
  tiling.record = [&](size_t, const Tile&, ArrayRunInfo* info,
                      TileTraffic* traffic) {
    info->cycles = fastpath::SelectionCycles(a.num_tuples(), predicates.size());
    traffic->out = spad::TupleBytes(selected.CountOnes(), a.arity());
  };
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(
      Relation out,
      (DispatchTiles<arrays::SelectionResult, Relation>(
          tiling,
          [&](size_t, const Relation& block_a, const Relation&,
              ArrayRunInfo* info) {
            return WithPassRecord(arrays::SystolicSelect(block_a, predicates),
                                  info);
          },
          [&]() -> Result<Relation> {
            // The empty conjunction selects A as it is, kind included.
            if (predicates.empty()) return a;
            return a.Filter(selected, rel::RelationKind::kSet);
          },
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
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

}  // namespace db
}  // namespace systolic
