#ifndef SYSTOLIC_SYSTEM_SCRATCHPAD_SCRATCHPAD_H_
#define SYSTOLIC_SYSTEM_SCRATCHPAD_SCRATCHPAD_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "system/scratchpad/memory.h"

namespace systolic {
namespace spad {

/// The decoupled scratchpad/DMA layer between the §9 memory modules and the
/// systolic arrays (DESIGN S25). §9 pipelines disk→memory→array transfers —
/// "the output of the array is pipelined back into another memory" — but a
/// naive tile dispatch still runs every §8 tile as load→compute→drain with
/// an inter-tile bubble. This layer models the fix both related designs use:
/// each chip owns a pair of scratchpad banks and an asynchronous DMA engine
/// with mvin / preload / compute / mvout semantics, so tile N+1's operand
/// feed streams into the idle bank while tile N computes and tile N−1's
/// result drains back through the crossbar.
///
/// The layer is a *timing and accounting* model: functional staging is exact
/// (a staged block is a bit-identical slice of the source relation, restaged
/// in full on every retry attempt), and the DMA schedule is a deterministic
/// closed form over per-transfer cycle costs — so results and the existing
/// `cycles`/`makespan_cycles` statistics are byte-identical whether overlap
/// is on or off; only the new memory-inclusive counters move.

/// Whether tile operand feeds overlap with compute and drain.
enum class OverlapPolicy {
  /// Fully serialised load→compute→drain per tile (the pre-S25 behaviour).
  kOff,
  /// Double-buffered: feeds stream into the idle bank during compute. Never
  /// lengthens the modeled critical path, so it is the default.
  kOn,
};

const char* OverlapPolicyToString(OverlapPolicy policy);

/// Parses "on" / "off"; returns false on anything else.
bool ParseOverlapPolicy(const std::string& token, OverlapPolicy* policy);

/// Crossbar port rate used for DMA costing: one 8-byte element code per
/// pulse, matching Machine::CrossbarBytesPerSecond's derivation from the
/// device input rate.
inline constexpr double kBytesPerPulse = 8.0;

/// Scratchpad banks per chip: double buffering, as in the related designs'
/// ping-pong operand staging.
inline constexpr size_t kBankPairs = 2;

/// Pulses to move `bytes` through one crossbar port (ceil at the port rate).
size_t TransferCycles(double bytes);

/// Bytes of `num_tuples` tuples of `arity` element codes under the machine
/// storage encoding (8 bytes per code) — the same model as RelationBytes.
double TupleBytes(size_t num_tuples, size_t arity);

/// Bytes drained for a `num_bits` membership bit vector (packed, ceil to a
/// whole byte).
double BitDrainBytes(size_t num_bits);

/// Accounts one crossbar feed out of a §9 memory module and returns the
/// bytes moved (0 for an empty module). This is the ONLY sanctioned way for
/// execution layers to charge a MemoryModule read — project_lint rule 4
/// keeps direct AccountRead calls inside the scratchpad layer.
double CrossbarFeed(machine::MemoryModule& module);

/// One scratchpad bank: stages an operand block out of a source relation and
/// tracks the byte traffic in and out. Staging is functional (the returned
/// block is the exact slice) and replayable: re-staging resets the bank to a
/// full fresh feed, which is what a retried tile attempt must see — never a
/// half-drained bank.
class ScratchpadBank {
 public:
  /// Stages tuples [start, start+count) of `source` (clamped to the source
  /// size) into the bank, replacing any previous content and resetting the
  /// drain cursor; returns the staged block, valid until the next Stage and
  /// no longer than `source`. A sub-range is copied out as a multi-relation
  /// (a staged block is an intermediate, like every engine tile slice); a
  /// slice spanning the whole source streams in place, uncopied. Byte
  /// traffic accumulates across stagings, so a retried tile pays for its
  /// replayed feed.
  const rel::Relation& Stage(const rel::Relation& source, size_t start,
                             size_t count);

  /// Bytes currently staged (the last Stage's block).
  double staged_bytes() const { return staged_bytes_; }

  /// Cumulative bytes streamed into the bank across all stagings.
  double bytes_in() const { return bytes_in_; }

  /// Drains `bytes` of results out of the bank. Draining more than is staged
  /// is a schedule fault: the bank cannot emit words it never held.
  void Drain(double bytes);

  /// Cumulative bytes drained out of the bank.
  double bytes_out() const { return bytes_out_; }

 private:
  std::optional<rel::Relation> copy_;  // the last sub-range staged
  double staged_bytes_ = 0;
  double drained_bytes_ = 0;
  double bytes_in_ = 0;
  double bytes_out_ = 0;
};

/// DMA command kinds, mirroring the related systolic-accelerator ISA:
/// mvin (stream an operand block into a bank), preload (stage the fixed
/// operand), compute (run the array pass), mvout (drain the result).
enum class DmaOp {
  kMvin,
  kPreload,
  kCompute,
  kMvout,
};

const char* DmaOpToString(DmaOp op);

/// One queued command: which tile it belongs to, the bank pair it occupies,
/// its cost in pulses, and (for transfers) the bytes moved.
struct DmaCommand {
  DmaOp op = DmaOp::kMvin;
  size_t tile = 0;
  size_t bank = 0;
  size_t cycles = 0;
  double bytes = 0;
};

/// One scheduled command occurrence: [start, end) in chip-local pulses.
struct DmaEvent {
  DmaCommand command;
  size_t start = 0;
  size_t end = 0;
};

bool operator==(const DmaCommand& a, const DmaCommand& b);
bool operator==(const DmaEvent& a, const DmaEvent& b);

/// Renders "mvin tile=0 bank=0 [0,4)" — the golden-trace diff surface.
std::string ToString(const DmaEvent& event);

/// The per-chip asynchronous DMA command queue. Tiles enqueue their commands
/// together, in increasing tile order (mvin, preload, compute, mvout), and
/// the queue schedules each command as it arrives — it keeps no command
/// list, so a chip's state is O(bank pairs) however many tiles it runs. The
/// deterministic timeline follows the chip's resources:
///
///   * one DMA load port — operand feeds (mvin/preload) serialise on it —
///     and one DMA store port — result drains (mvout) serialise on it, so a
///     drain never blocks the next tile's loads;
///   * one compute unit — passes serialise in tile order;
///   * `num_bank_pairs` scratchpad bank pairs — the k-th tile queued
///     occupies pair (k % pairs) from its first transfer until its mvout
///     ends, so with 2 pairs tile N+1 may stream in while tile N computes
///     and tile N−1 drains, but tile N+2 must wait for tile N's bank.
///
/// With overlap off the queue degenerates to full serialisation: every
/// command starts when the previous one ends, reproducing the bubble-ridden
/// load→compute→drain baseline exactly (makespan == sum of costs).
class DmaQueue {
 public:
  /// When `trace` is non-null, every queued command's scheduled event is
  /// appended to it in queue order — the golden-trace test surface.
  explicit DmaQueue(bool overlap, size_t num_bank_pairs = kBankPairs,
                    std::vector<DmaEvent>* trace = nullptr);

  /// Enqueue one tile-phase command. Zero-byte transfers cost nothing and
  /// are dropped (a reused or absent operand queues no DMA work). A command
  /// for a tile below the last one queued — a revisit — is a schedule fault.
  void Mvin(size_t tile, double bytes);
  void Preload(size_t tile, double bytes);
  void Compute(size_t tile, size_t cycles);
  void Mvout(size_t tile, double bytes);

  /// Makespan in pulses of the commands queued so far.
  size_t Makespan() const { return makespan_; }

  /// Sum of transfer pulses (mvin + preload + mvout) over all commands.
  size_t TransferCycleTotal() const { return transfer_total_; }

  /// Sum of ALL command pulses — the overlap-off makespan by construction.
  size_t SerialCycleTotal() const { return serial_total_; }

 private:
  /// Schedules one command: opens a new tile (next bank pair) when `tile`
  /// differs from the current one.
  void Enqueue(DmaOp op, size_t tile, size_t cycles, double bytes);

  bool overlap_;
  size_t num_bank_pairs_;
  std::vector<DmaEvent>* trace_;
  /// Resource free times: load port, store port, compute unit, bank pairs.
  size_t load_free_ = 0;
  size_t store_free_ = 0;
  size_t compute_free_ = 0;
  std::vector<size_t> bank_free_;
  /// The open tile: its id, bank pair, when its operands are resident and
  /// when its last command ends; `tiles_` counts tiles opened so far.
  size_t tiles_ = 0;
  size_t tile_ = 0;
  size_t bank_ = 0;
  size_t load_end_ = 0;
  size_t tile_end_ = 0;
  size_t makespan_ = 0;
  size_t transfer_total_ = 0;
  size_t serial_total_ = 0;
};

}  // namespace spad
}  // namespace systolic

#endif  // SYSTOLIC_SYSTEM_SCRATCHPAD_SCRATCHPAD_H_
