#ifndef SYSTOLIC_SYSTEM_MACHINE_H_
#define SYSTOLIC_SYSTEM_MACHINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "durability/durable_catalog.h"
#include "perfmodel/estimates.h"
#include "system/disk_unit.h"
#include "system/scratchpad/memory.h"
#include "system/scratchpad/scratchpad.h"
#include "system/transaction.h"
#include "util/result.h"
#include "verify/verifier.h"

namespace systolic {
namespace machine {

/// How steps within a dependency level are assigned to the device
/// instances of their kind.
enum class DeviceScheduling {
  /// Steps go to devices in arrival order.
  kRoundRobin,
  /// Longest-processing-time-first: steps sorted by cost, each assigned to
  /// the least-loaded device — the classic 4/3-approximate makespan
  /// heuristic. §9 observes that "the execution order of systolic devices
  /// varies greatly from one transaction to another"; this is the
  /// scheduler's answer.
  kLpt,
};

/// Static shape of the §9 machine (Fig. 9-1).
struct MachineConfig {
  /// Memory modules on the crossbar.
  size_t num_memories = 8;
  /// Physical shape shared by the systolic devices (0s = unbounded).
  db::DeviceConfig device;
  /// Per-kind overrides: Fig. 9-1 draws distinct "Intersect" and "Join"
  /// boxes, and a real machine would size them differently (a join device
  /// is narrow — one column per join attribute — while intersection needs
  /// full tuple width). Kinds not listed use `device`.
  std::map<OpKind, db::DeviceConfig> device_configs;
  /// Device instances per operation kind; kinds not listed get one device.
  /// Several instances allow steps of the same kind to run concurrently.
  std::map<OpKind, size_t> device_counts;
  /// Timing model for the devices (§8).
  perf::Technology technology = perf::Technology::Conservative1980();
  /// Disk model (§8).
  perf::DiskModel disk_model;
  /// Crossbar port bandwidth. 0 derives it from the device input rate (one
  /// tuple per two pulses), satisfying §9's "high capacity for data
  /// transfer" requirement by construction.
  double crossbar_bytes_per_second = 0;
  /// Step-to-device assignment within a level.
  DeviceScheduling scheduling = DeviceScheduling::kRoundRobin;
  /// When set, every engine of the machine drives THIS worker pool instead
  /// of spawning its own — the S24 server hands all session machines one
  /// pool so their passes interleave on the same simulated chips.
  /// device.num_chips (and any per-kind override) should equal
  /// shared_pool->num_chips().
  std::shared_ptr<db::ChipPool> shared_pool;
};

/// Per-step execution record.
struct StepReport {
  size_t step_index = 0;
  OpKind op = OpKind::kIntersect;
  std::string output;
  size_t level = 0;
  /// Which instance of the op's device pool ran the step.
  size_t device_slot = 0;
  /// Array passes/cycles (summed over §8 decomposition tiles).
  db::ExecStats exec;
  /// Modeled seconds in the array and moving data through the crossbar.
  double compute_seconds = 0;
  double transfer_seconds = 0;
  double bytes_moved = 0;
};

/// Whole-transaction execution record.
struct TransactionReport {
  std::vector<StepReport> steps;
  /// Sum of step times — the cost if every operation serialised.
  double serial_seconds = 0;
  /// Critical-path cost with level-parallel execution on the available
  /// devices ("several operations may be run concurrently", §9).
  double makespan_seconds = 0;
  /// Crossbar reconfigurations (one per step: connect sources and sink).
  size_t crossbar_configurations = 0;
  double bytes_through_crossbar = 0;
};

/// The integrated systolic database machine of §9: disk, memory modules and
/// systolic devices joined by a crossbar switch. Relations are read from
/// disk into memories, pipelined through a device per relational operation
/// with results landing in fresh memories, and finally written back to disk
/// (or returned to the caller).
class Machine {
 public:
  explicit Machine(MachineConfig config);

  DiskUnit& disk() { return disk_; }
  const MachineConfig& config() const { return config_; }
  const std::vector<MemoryModule>& memories() const { return memories_; }

  /// Reads a relation from disk into a free memory module and names the
  /// buffer after the relation. Fails with Capacity if no module is free.
  Status LoadFromDisk(const std::string& relation_name);

  /// Places a relation directly into a free memory module under `name`
  /// (bypasses the disk; for data arriving from the host CPU).
  Status StoreBuffer(const std::string& name, rel::Relation relation);

  /// Looks up a named buffer.
  Result<const rel::Relation*> Buffer(const std::string& name) const;

  /// Names of all currently materialised buffers, sorted.
  std::vector<std::string> BufferNames() const;

  /// Frees the module holding `name`.
  Status ReleaseBuffer(const std::string& name);

  /// Runs a transaction: schedules its steps into dependency levels, runs
  /// each step on a device of the matching kind (concurrently within a
  /// level, up to the configured device counts), and leaves each step's
  /// result in a fresh memory module named by the step's output.
  ///
  /// When the verify gate is enabled (default in Debug builds), the static
  /// verifier (DESIGN S22) types the transaction and re-derives its §3.2/§8
  /// schedule invariants against the live buffer catalog first; a violation
  /// rejects the whole transaction with kVerifyFailed — naming pass, node
  /// and invariant — before any device runs.
  Result<TransactionReport> Execute(const Transaction& transaction);

  /// Runs the S22 static verifier over `transaction` against the machine's
  /// current buffers and device table without executing anything. This is
  /// what the gate calls; the shell's VERIFY verb surfaces the report.
  Result<verify::VerifyReport> VerifyTransaction(
      const Transaction& transaction) const;

  /// Gate switch: defaults on in Debug builds, off in Release (the gate
  /// re-derives every schedule, and release callers opt in explicitly —
  /// e.g. the verify_plan CI tool).
  void set_verify_enabled(bool enabled) { verify_enabled_ = enabled; }
  bool verify_enabled() const { return verify_enabled_; }

  /// Executes several transactions as one batch: their steps are pooled and
  /// scheduled together, so independent steps of different transactions run
  /// concurrently on the device pools (§9's "a single transaction or a set
  /// of transactions"). Buffer names must be disjoint across the batch.
  Result<TransactionReport> ExecuteBatch(
      const std::vector<Transaction>& transactions);

  /// Writes buffer `name` back to disk under `disk_name`.
  Status WriteBackToDisk(const std::string& name,
                         const std::string& disk_name);

  /// Installs a deterministic fault plan (null = perfect hardware) on every
  /// device of the machine and rebuilds the engines; chip health resets.
  /// Surfaced in the shell as `SET FAULTS ...`.
  void InstallFaultPlan(std::shared_ptr<const faults::FaultPlan> plan,
                        faults::RecoveryOptions recovery = {});

  /// Selects the execution backend for every device of the machine and
  /// rebuilds the engines. A fast device still falls back to the RTL
  /// simulator per Engine::ResolveBackend whenever a fault plan is
  /// installed. Surfaced in the shell as `SET BACKEND rtl|fast`.
  void SetBackendPolicy(fastpath::Backend backend);
  fastpath::Backend backend_policy() const { return config_.device.backend; }

  /// Selects the scratchpad overlap policy (S25) for every device of the
  /// machine and rebuilds the engines. Purely a memory-timing model: results
  /// and the compute-only cycle counts are identical under every policy.
  /// Surfaced in the shell as `SET MEMORY overlap=on|off`.
  void SetMemoryPolicy(spad::OverlapPolicy policy);
  spad::OverlapPolicy memory_policy() const { return config_.device.overlap; }

  /// Opens (creating or crash-recovering) a durable catalog directory
  /// (DESIGN S21), puts every recovered relation on the disk unit, and
  /// enables durability: STORE and durable COMMITs are WAL-logged and
  /// fsync'd before they are acknowledged. Surfaced in the shell as
  /// `OPEN <dir>`. `injector`, when non-null, must outlive the machine; the
  /// crash fuzzer uses it to cut the write path mid-operation.
  Status OpenDurable(const std::string& directory,
                     durability::CrashInjector* injector = nullptr);

  /// The open durable session, or null before OpenDurable.
  durability::DurableCatalog* durable() { return durable_.get(); }
  const durability::DurableCatalog* durable() const { return durable_.get(); }

  /// Toggles logging on the open session (`SET DURABILITY on|off`); fails
  /// with NotFound before OpenDurable. While off, STORE and COMMIT skip the
  /// durable layer entirely — the hot path is exactly the pre-durability
  /// one.
  Status SetDurabilityEnabled(bool enabled);
  bool durability_enabled() const {
    return (durable_ != nullptr || commit_sink_ != nullptr) &&
           durability_enabled_;
  }

  /// Persists the named buffers as ONE atomic WAL group (all-or-nothing on
  /// recovery) and mirrors them on the disk unit; returns the number of
  /// records written — 0 when durability is off or disabled.
  Result<size_t> PersistBuffers(const std::vector<std::string>& names);

  /// One atomic durable write set: (disk name, relation) puts, all
  /// acknowledged together or not at all.
  using CommitSink = std::function<Result<size_t>(
      const std::vector<std::pair<std::string, const rel::Relation*>>&)>;

  /// Routes durable commits through `sink` instead of a locally owned
  /// DurableCatalog — how the S24 server points every session machine at
  /// its shared cross-session group-commit pipeline. The sink receives the
  /// write set of one atomic group and returns the records committed; an
  /// error (IO, or a snapshot conflict's Abort) means nothing was
  /// acknowledged and the machine leaves its modeled disk untouched.
  /// Installing a sink enables durability (SET DURABILITY still toggles
  /// it per session); a null sink restores the local-catalog path.
  void set_commit_sink(CommitSink sink) {
    commit_sink_ = std::move(sink);
    durability_enabled_ = commit_sink_ != nullptr;
  }
  bool has_commit_sink() const { return commit_sink_ != nullptr; }

  /// Read-side twin of the commit sink: consulted by LoadFromDisk BEFORE
  /// the private disk unit. Returning a relation means "the caller's disk
  /// copy of this name is missing or stale — mirror this one first";
  /// returning null falls through to the disk unit. The S24 session backs
  /// this with its pinned snapshot image, so relations committed by other
  /// sessions fault in lazily (mirrored only when actually loaded) instead of
  /// being mirrored eagerly on every snapshot refresh.
  using DiskSource = std::function<const rel::Relation*(const std::string&)>;

  void set_disk_source(DiskSource source) {
    disk_source_ = std::move(source);
  }

 private:
  Result<size_t> AllocateModule(const std::string& name);
  double CrossbarBytesPerSecond() const;
  size_t DeviceCount(OpKind kind) const;
  const db::Engine& EngineFor(OpKind kind) const;
  /// Applies `update` to the default device and every per-kind override,
  /// then rebuilds the engines from the updated configs (chip health
  /// resets).
  void ReconfigureDevices(const std::function<void(db::DeviceConfig&)>& update);

  MachineConfig config_;
  DiskUnit disk_;
  db::Engine engine_;
  std::map<OpKind, db::Engine> engines_;
  std::vector<MemoryModule> memories_;
  std::map<std::string, size_t> buffer_to_module_;
  std::unique_ptr<durability::DurableCatalog> durable_;
  CommitSink commit_sink_;
  DiskSource disk_source_;
  bool durability_enabled_ = false;
#ifdef NDEBUG
  bool verify_enabled_ = false;
#else
  bool verify_enabled_ = true;
#endif
};

}  // namespace machine
}  // namespace systolic

#endif  // SYSTOLIC_SYSTEM_MACHINE_H_
