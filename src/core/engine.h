#ifndef SYSTOLIC_CORE_ENGINE_H_
#define SYSTOLIC_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arrays/comparison_grid.h"
#include "arrays/membership.h"
#include "arrays/selection_array.h"
#include "core/chip_pool.h"
#include "fastpath/backend.h"
#include "faults/fault_plan.h"
#include "relational/op_specs.h"
#include "relational/relation.h"
#include "system/scratchpad/scratchpad.h"
#include "util/result.h"

namespace systolic {
namespace db {

/// Describes the physical systolic device the engine drives — the "fixed
/// sizes of systolic arrays" of §9 that force large relations to be
/// decomposed.
struct DeviceConfig {
  /// Physical grid rows. 0 = unbounded: each operation auto-sizes a grid
  /// that fits its operands in one pass (no tiling).
  size_t rows = 0;
  /// Physical grid columns (elements compared per tuple). 0 = unbounded.
  /// Operands wider than this are rejected with Capacity: the paper's
  /// decomposition partitions the result matrix T over tuples, not over
  /// columns (§8).
  size_t columns = 0;
  /// Feed discipline of the membership family (∩, −, dedup, so ∪ and π) and
  /// joins: §3's marching arrays, §8's fixed-B variant, or kAuto (the
  /// default) to pick per operation. kAuto schedules both tilings exactly as
  /// the operation would report them — the greedy chip schedule and every
  /// chip's DMA schedule over the closed-form tile records — and runs fixed-B
  /// exactly when it is no worse than marching on `cycles`,
  /// `makespan_cycles` and `memory_makespan_cycles`. Fixed-B never needs
  /// more pulses, but its fewer, longer tiles can spread worse over several
  /// chips. Fixed-B dedup (so ∪ and π) runs one strip per preloaded block
  /// over A's suffix where, by the same rule, that is no worse than the
  /// block-pair triangle with overlap on and off alike, so `overlap` never
  /// changes its tiles. An even `rows` count runs fixed-B: §3.2's marching
  /// pairs meet only on odd grids. With `faults` installed kAuto keeps
  /// marching and fixed-B dedup keeps the triangle, whose shorter tiles meet
  /// fewer injected faults per attempt. Division and selection have one
  /// discipline each.
  arrays::FeedModePolicy mode = arrays::FeedModePolicy::kAuto;
  /// Identical chips driven in parallel. §8's decomposition produces
  /// mutually independent (row-tile, col-tile) sub-problems; with more than
  /// one chip the engine dispatches them across a worker pool (one simulated
  /// device per worker) and merges per-tile results in tile order, so output
  /// and summed statistics are bit-identical to the serial path. 1 (the
  /// default) preserves today's serial execution exactly; 0 is treated as 1.
  size_t num_chips = 1;
  /// Deterministic fault-injection plan; null (the default) models perfect
  /// hardware and costs nothing. With a plan installed, logical chip c runs
  /// every pass under plan->chip(c)'s fault profile inside a detection scope
  /// (bus parity + valid-strobe monitoring + recoverable invariant checks),
  /// and the engine retries detected failures per `recovery`.
  std::shared_ptr<const faults::FaultPlan> faults;
  /// Retry/quarantine policy; consulted only when `faults` is set.
  faults::RecoveryOptions recovery;
  /// Which executor runs the tile passes. kRtl (the default) pulses the
  /// cycle-accurate simulator; kFast computes identical tile results with
  /// the packed kernels of src/fastpath and reports analytic cycle counts,
  /// falling back to the RTL simulator while `faults` is installed
  /// (injection corrupts individual pulses, which only the simulator
  /// models). Surfaced in the shell as `SET BACKEND`.
  fastpath::Backend backend = fastpath::Backend::kRtl;
  /// Whether each chip's scratchpad/DMA layer double-buffers tile operand
  /// feeds (S25): with overlap on (the default), tile N+1's mvin streams
  /// into the idle bank while tile N computes and tile N−1's mvout drains;
  /// off serialises load→compute→drain per tile. Purely a memory-timing
  /// model: results and the compute-only `cycles`/`makespan_cycles` are
  /// identical either way; only the dma_*/memory_makespan counters move.
  /// Surfaced in the shell as `SET MEMORY overlap=...`.
  spad::OverlapPolicy overlap = spad::OverlapPolicy::kOn;
};

/// Byte traffic of one tile's scratchpad feed, recorded by the tile task and
/// costed into the per-chip DMA schedule: `in_a` streams through mvin,
/// `in_b` through preload (0 when the tile reuses an already-staged block),
/// `out` drains through mvout.
struct TileTraffic {
  double in_a = 0;
  double in_b = 0;
  double out = 0;
};

/// Aggregate execution statistics for one engine operation, summed over all
/// tiled passes.
struct ExecStats {
  /// Device passes executed (1 when no tiling was needed).
  size_t passes = 0;
  /// The feed discipline the engine resolved for this operation (meaningful
  /// for the membership/join families; selection always streams fixed).
  arrays::FeedMode resolved_mode = arrays::FeedMode::kMarching;
  /// Which executor ran the operation's passes (the device's backend
  /// resolved per Engine::ResolveBackend).
  fastpath::Backend backend = fastpath::Backend::kRtl;
  /// True iff `cycles`/`makespan_cycles` were derived from the closed-form
  /// timing model (fast path) rather than measured from the simulator. The
  /// counts are equal either way — the fast path's analytic contract — but
  /// analytic passes pulse no cells, so the cell-utilisation ratios below
  /// are meaningless and defined as 0.
  bool analytic_timing = false;
  /// Total pulses across passes (the cost if every pass serialised).
  size_t cycles = 0;
  /// Critical-path pulses across the device's chips: the makespan of the
  /// deterministic tile-order greedy schedule (each pass goes to the chip
  /// that frees up first) over the per-pass pulse counts. Equals `cycles`
  /// when num_chips == 1; with C chips on balanced tiles it approaches
  /// cycles / C.
  size_t makespan_cycles = 0;
  /// Total busy cell-pulses and cell count (max across passes).
  size_t busy_cell_cycles = 0;
  size_t num_compute_cells = 0;
  /// Chips the operation's tiles were spread across (the engine's
  /// num_chips()); denominator of MakespanUtilization().
  size_t num_chips = 1;
  /// Fault-tolerance counters; all stay zero without a fault plan.
  /// Tile attempts that failed detection (parity hits, invariant trips,
  /// stalls, dead-chip refusals).
  size_t faults_detected = 0;
  /// Tile attempts beyond each tile's first (every retry runs on the next
  /// usable chip in cyclic order).
  size_t tile_retries = 0;
  /// Shadow re-executions sampled for checksum cross-checking, and how many
  /// of them disagreed with the primary run.
  size_t shadow_runs = 0;
  size_t shadow_mismatches = 0;
  /// Chips not quarantined when the operation finished; equals num_chips on
  /// healthy hardware.
  size_t healthy_chips = 1;
  /// Scratchpad/DMA counters (S25), derived from the same deterministic
  /// greedy tile→chip schedule as `makespan_cycles`, so they are identical
  /// across backends and across serial/parallel dispatch.
  /// Transfer pulses (mvin + preload + mvout) summed over every tile.
  size_t dma_cycles = 0;
  /// Pulses the double-buffered schedule hid relative to full
  /// load→compute→drain serialisation, summed over chips; 0 with overlap
  /// off.
  size_t overlap_cycles = 0;
  /// Memory-inclusive critical path: the max over chips of each chip's DMA
  /// schedule makespan (compute + un-hidden transfer pulses), summed over
  /// tile batches like `makespan_cycles`. With overlap off this is exactly
  /// makespan_cycles + dma_cycles on one chip.
  size_t memory_makespan_cycles = 0;
  /// Whether the operation's tile feeds were double-buffered.
  bool overlap_enabled = false;

  /// Serial utilisation: busy cell-pulses over cells × summed pulses
  /// (`cycles`). Denominator = the cell-pulses ONE chip offers when it runs
  /// every pass back to back, so this measures how busy the array fabric is
  /// within the passes themselves, independent of multi-chip parallelism.
  /// (Under multi-chip runs it is NOT a wall-clock utilisation — use
  /// MakespanUtilization() for that.)
  double Utilization() const {
    // Analytic (fast-path) passes simulate no pulses: dividing busy cells
    // by analytic cycle counts would be a category error, so — like the
    // zero-makespan guard below — the ratio is defined as 0.
    if (analytic_timing) return 0.0;
    const double denom = static_cast<double>(num_compute_cells) *
                         static_cast<double>(cycles);
    return denom == 0 ? 0.0 : static_cast<double>(busy_cell_cycles) / denom;
  }

  /// Wall-clock utilisation: busy cell-pulses over cells × makespan pulses ×
  /// chips. Denominator = the cell-pulses the whole device (all chips) offers
  /// during the operation's critical path, so idle chips and tile imbalance
  /// count against it. Equal to Utilization() when num_chips == 1.
  double MakespanUtilization() const {
    if (analytic_timing) return 0.0;
    const double denom = static_cast<double>(num_compute_cells) *
                         static_cast<double>(makespan_cycles) *
                         static_cast<double>(num_chips == 0 ? 1 : num_chips);
    return denom == 0 ? 0.0 : static_cast<double>(busy_cell_cycles) / denom;
  }

  /// Fraction of the memory-inclusive critical path spent computing:
  /// makespan_cycles / memory_makespan_cycles. Overlap hides transfer
  /// pulses behind compute, so on → closer to 1, off → the §9 pipelining
  /// bubble shows up as the gap. Valid for analytic (fast-path) timing too
  /// — both counters are schedule-model quantities, not simulator
  /// measurements. 0 when no DMA accounting ran.
  double MemoryMakespanUtilization() const {
    return memory_makespan_cycles == 0
               ? 0.0
               : static_cast<double>(makespan_cycles) /
                     static_cast<double>(memory_makespan_cycles);
  }
};

/// Result of one engine operation.
struct EngineResult {
  rel::Relation relation;
  ExecStats stats;

  explicit EngineResult(rel::Relation r) : relation(std::move(r)) {}
};

/// The end-user entry point: runs every relational operation of the paper on
/// a (simulated) systolic device, transparently decomposing operands that
/// exceed the device capacity into sub-problems, exactly as §8 prescribes
/// ("one can simply partition this matrix into sub-problems small enough to
/// fit on the array").
///
/// Semantics match the reference implementations in
/// relational/ops_reference.h; outputs preserve first-operand order.
class Engine {
 public:
  explicit Engine(DeviceConfig device = {});

  /// An engine driving `shared_pool`'s workers instead of spawning its own —
  /// how the S24 server gives every session a view of the SAME physical
  /// device: sessions' passes interleave fairly inside the pool (see
  /// ChipPool::RunAll) rather than each session pretending to own a machine.
  /// Null `shared_pool` falls back to a private pool, built only for a
  /// device whose passes run on the RTL simulator (ResolveBackend); a
  /// single-chip or fast device spawns no threads. device.num_chips should
  /// match shared_pool->num_chips() so tile scheduling and stats agree with
  /// the worker count.
  Engine(DeviceConfig device, std::shared_ptr<ChipPool> shared_pool);

  const DeviceConfig& device() const { return device_; }

  /// Chips the engine actually drives (device().num_chips clamped to >= 1).
  size_t num_chips() const;

  /// A ∩ B (§4). Requires union-compatible operands.
  Result<EngineResult> Intersect(const rel::Relation& a,
                                 const rel::Relation& b) const;

  /// A - B (§4.3).
  Result<EngineResult> Subtract(const rel::Relation& a,
                                const rel::Relation& b) const;

  /// remove-duplicates(A) (§5); keeps first occurrences in order.
  Result<EngineResult> RemoveDuplicates(const rel::Relation& a) const;

  /// A ∪ B (§5).
  Result<EngineResult> Union(const rel::Relation& a,
                             const rel::Relation& b) const;

  /// π_columns(A) (§5).
  Result<EngineResult> Project(const rel::Relation& a,
                               const std::vector<size_t>& columns) const;

  /// A ⋈ B (§6): equi-, multi-column and θ-joins per `spec`.
  Result<EngineResult> Join(const rel::Relation& a, const rel::Relation& b,
                            const rel::JoinSpec& spec) const;

  /// A ÷ B (§7).
  Result<EngineResult> Divide(const rel::Relation& a, const rel::Relation& b,
                              const rel::DivisionSpec& spec) const;

  /// σ over a conjunction of `column θ constant` predicates, on the
  /// selection array (a one-row fixed device; see arrays/selection_array.h).
  /// Runs in a single pass regardless of |A| (A streams through).
  Result<EngineResult> Select(
      const rel::Relation& a,
      const std::vector<arrays::SelectionPredicate>& predicates) const;

  /// The executor the engine's passes will run on: the device's backend,
  /// with kFast forced back to the RTL simulator while a fault plan is
  /// installed (fault injection needs pulse-level fidelity).
  fastpath::Backend ResolveBackend() const;

  /// Whether the scratchpad layer will double-buffer this engine's tile
  /// feeds (device().overlap is on).
  bool ResolveOverlap() const;

  /// A copy of this engine whose device is pinned to `mode`, sharing this
  /// engine's chip pool (so the copy is cheap and spawns no threads). The
  /// §9 machine uses this to honor a planner feed-mode hint on one step
  /// without rebuilding the device.
  Engine WithMode(arrays::FeedMode mode) const;

  /// The chip-health ledger, shared by engine copies; null without a fault
  /// plan. Exposed so callers (tests, the §9 machine's reporting) can
  /// inspect quarantine state after operations.
  const ChipHealth* health() const { return health_.get(); }

 private:
  /// Capacity of one operand block per pass under `mode`. `bottom` selects
  /// the B side (which differs from A in fixed mode).
  size_t BlockCapacity(arrays::FeedMode mode, bool bottom) const;

  /// One §8 sub-problem: tuples [a_start, a_start + a_count) of `a` and,
  /// when `b` is set, [b_start, b_start + b_count) of `b`; the ranges lie
  /// inside their operands. A tile without a B slice takes the first
  /// b_count tuples of its own A block as its B block, read from the same
  /// bank (one mvin, no preload). Only RTL tiles stage their slices; the
  /// fast backend reads the counts and the operands' arities.
  struct Tile {
    const rel::Relation* a = nullptr;
    size_t a_start = 0;
    size_t a_count = 0;
    const rel::Relation* b = nullptr;
    size_t b_start = 0;
    size_t b_count = 0;
  };

  /// An index-addressed tiling: tile t's slices are derived from t by `at`
  /// (which must be safe to call from any chip's thread), so no tile list
  /// is stored however many tiles there are.
  struct TileGrid {
    size_t size = 0;
    std::function<Tile(size_t)> at;
  };

  /// §8's rectangular grid of ceil(|a|/cap_a) x ceil(|b|/cap_b) block
  /// pairs, A-block-major; caps are clamped to the operands, and the grid
  /// is empty when either operand is.
  static TileGrid BlockGrid(const rel::Relation& a, size_t cap_a,
                            const rel::Relation& b, size_t cap_b);

  /// §5's dedup grid: block pairs (p, q <= p) of `a` against itself,
  /// p-major. A diagonal tile carries no B slice (its edge rule is the
  /// strict lower triangle); a tile below the diagonal compares full blocks,
  /// since every such pair already has j < i globally.
  static TileGrid TriangleGrid(const rel::Relation& a, size_t cap);

  /// §5's dedup in §8's fixed-B strips: strip q preloads block q of `a`,
  /// the head of its own slice, and streams the suffix [q * cap, |a|) past
  /// it under the strict lower triangle, so every pair j < i with j in
  /// block q meets once. One pass per block instead of one per block pair.
  static TileGrid StripGrid(const rel::Relation& a, size_t cap);

  /// Writes tile t's pass record and its drained bytes (`traffic->out`);
  /// `traffic` arrives with the feed bytes of `slices` filled in. Called in
  /// tile order; it may cache per block row.
  using TileRecord =
      std::function<void(size_t tile, const Tile& slices,
                         arrays::ArrayRunInfo* info, TileTraffic* traffic)>;

  /// A tiling under one feed discipline with its closed-form tile records —
  /// what kAuto's guard compares and what the fast backend reports for every
  /// operator. Division and selection have one discipline each and ignore
  /// `mode`.
  struct Tiling {
    arrays::FeedMode mode = arrays::FeedMode::kMarching;
    TileGrid grid;
    TileRecord record;
  };

  /// The tiling an operation runs: `tiling` of the one discipline
  /// arrays::FeedModeCandidates leaves (the device's explicit mode, or
  /// fixed-B on an even row count, where marching pairs never meet), or
  /// under kAuto `tiling(kFixedB)` where NoWorse than `tiling(kMarching)`
  /// (see DeviceConfig::mode). With a fault plan installed kAuto keeps
  /// marching.
  /// InvalidArgument, before any grid is built, when no discipline is left:
  /// explicit marching on an even row count.
  Result<Tiling> ChooseTiling(
      const std::function<Tiling(arrays::FeedMode)>& tiling) const;

  /// The guard's rule: whether `preferred`'s exact schedule is no worse
  /// than `other`'s on cycles, makespan and memory makespan. `other`'s
  /// cycles over the usable chips bound both its makespans from below, so
  /// its records are summed only until they reach `preferred`'s memory
  /// makespan, which bounds `preferred`'s three counters from above, and its
  /// DMA schedule is walked only when they do not: rejecting a large grid
  /// costs only its first tiles' records.
  bool NoWorse(const Tiling& preferred, const Tiling& other) const;

  /// The RTL backend's per-tile entry point, called with the tile index and
  /// the staged blocks; returns what the operator's merge keeps of the tile
  /// and writes the pass record to `info`.
  template <typename TileOut>
  using TileKernel = std::function<Result<TileOut>(
      size_t tile, const rel::Relation& block_a, const rel::Relation& block_b,
      arrays::ArrayRunInfo* info)>;

  /// The fast backend's entry point for an operator: §8 tiling never changes
  /// the result its tiles merge into, so it is computed once, over whole
  /// operands, and the tiling's closed-form records stand in for the tiles'
  /// pass records.
  template <typename Out>
  using WholeKernel = std::function<Result<Out>()>;

  /// The single tile-dispatch path of every operator. Resolves the backend
  /// and stamps it into `stats`. On the fast backend, merges the tiling's
  /// closed-form records and runs `fast` once: no tile is staged or gets its
  /// own output. On RTL, runs every tile through RunTiled: each attempt
  /// stages the tile's slices into fresh scratchpad banks, runs `rtl` on the
  /// staged blocks, drains the banks and records the tile's feed traffic,
  /// `drain_bytes` of output included; `checksum` backs the shadow
  /// cross-check; `merge` folds the tile outputs, in tile order, into the
  /// operator's result, so it is bit-identical across chip counts. Either
  /// way merges the batch's schedule into `stats` via MergePassInfos. An
  /// empty batch runs no tile but still stamps the device fields of
  /// `stats`.
  template <typename TileOut, typename Out>
  Result<Out> DispatchTiles(
      const Tiling& tiling, const TileKernel<TileOut>& rtl,
      const WholeKernel<Out>& fast,
      const std::function<Result<Out>(std::vector<TileOut>)>& merge,
      const std::function<uint64_t(const TileOut&)>& checksum,
      const std::function<double(const TileOut&)>& drain_bytes,
      ExecStats* stats) const;

  /// Runs `count` independent tile tasks — across the chip pool when the
  /// device has several chips, serially in tile order otherwise — and
  /// returns the lowest-tile-index non-OK status. Tasks must write results
  /// only into their own tile's slots and be re-runnable for one tile: with
  /// a fault plan installed every attempt runs inside a faults::FaultScope,
  /// detected failures are retried on the next usable chip (striking /
  /// quarantining per the recovery policy, hard Unavailable only when no
  /// usable chip remains), fault counters are folded into `stats`, and
  /// `tile_checksum` (checksum of the tile's slot) is compared across the
  /// sampled shadow re-execution.
  Status RunTiled(size_t count, const std::function<Status(size_t tile)>& task,
                  ExecStats* stats,
                  const std::function<uint64_t(size_t tile)>& tile_checksum)
      const;

  /// Streams `grid`'s tile records, in tile order, through the greedy chip
  /// schedule — each pass to the usable chip that frees first, summing
  /// passes / cycles / busy cell-pulses into `stats` exactly as the serial
  /// path would — and through each chip's DmaQueue, which schedules the
  /// tile's mvin (A feed), preload (B feed), compute and mvout as they are
  /// queued under ResolveOverlap(); adds the batch's makespans and DMA
  /// counters and stamps the chip counts. Holds O(chips) state however many
  /// tiles the grid has.
  void MergePassInfos(const TileGrid& grid, const TileRecord& record,
                      ExecStats* stats) const;

  /// Width check against device_.columns.
  Status CheckWidth(size_t width) const;

  /// OR-accumulating membership over all (A-block, B-block) tile pairs, or
  /// for `dedup` over the triangle or, fixed-B and fault-free, the strips
  /// when the guard finds them no worse: returns per-A-tuple bits of
  /// "matches something in B" (`dedup`: an earlier tuple of A).
  Result<BitVector> TiledMembership(const rel::Relation& a,
                                    const rel::Relation& b, bool dedup,
                                    ExecStats* stats) const;

  DeviceConfig device_;
  /// Shared by engine copies (the §9 machine stores engines by value); null
  /// when num_chips() == 1, or on a fast device given no shared pool, so
  /// neither costs threads.
  std::shared_ptr<ChipPool> pool_;
  /// Chip-health ledger for fault-tolerant scheduling; created iff the
  /// device has a fault plan, and shared by engine copies so strikes
  /// accumulate across operations exactly as on one physical device.
  std::shared_ptr<ChipHealth> health_;
};

}  // namespace db
}  // namespace systolic

#endif  // SYSTOLIC_CORE_ENGINE_H_
