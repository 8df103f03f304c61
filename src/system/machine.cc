#include "system/machine.h"

#include <algorithm>

namespace systolic {
namespace machine {

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      disk_(config_.disk_model),
      engine_(config_.device, config_.shared_pool) {
  memories_.reserve(config_.num_memories);
  for (size_t m = 0; m < config_.num_memories; ++m) {
    memories_.emplace_back("mem" + std::to_string(m));
  }
  for (const auto& [kind, device] : config_.device_configs) {
    engines_.emplace(kind, db::Engine(device, config_.shared_pool));
  }
}

const db::Engine& Machine::EngineFor(OpKind kind) const {
  auto it = engines_.find(kind);
  return it == engines_.end() ? engine_ : it->second;
}

void Machine::ReconfigureDevices(
    const std::function<void(db::DeviceConfig&)>& update) {
  update(config_.device);
  engine_ = db::Engine(config_.device, config_.shared_pool);
  engines_.clear();
  for (auto& [kind, device] : config_.device_configs) {
    update(device);
    engines_.emplace(kind, db::Engine(device, config_.shared_pool));
  }
}

void Machine::InstallFaultPlan(std::shared_ptr<const faults::FaultPlan> plan,
                               faults::RecoveryOptions recovery) {
  ReconfigureDevices([&](db::DeviceConfig& device) {
    device.faults = plan;
    device.recovery = recovery;
  });
}

void Machine::SetBackendPolicy(fastpath::Backend backend) {
  ReconfigureDevices(
      [backend](db::DeviceConfig& device) { device.backend = backend; });
}

void Machine::SetMemoryPolicy(spad::OverlapPolicy policy) {
  ReconfigureDevices(
      [policy](db::DeviceConfig& device) { device.overlap = policy; });
}

double Machine::CrossbarBytesPerSecond() const {
  if (config_.crossbar_bytes_per_second > 0) {
    return config_.crossbar_bytes_per_second;
  }
  // Match the device consumption rate: one 8-byte element per pulse per
  // column; conservatively one tuple (arity unknown here) per two pulses at
  // 8 bytes/element — use a per-port figure of 8 bytes per pulse.
  const double pulse_seconds = config_.technology.bit_comparison_ns * 1e-9;
  return 8.0 / pulse_seconds;
}

size_t Machine::DeviceCount(OpKind kind) const {
  auto it = config_.device_counts.find(kind);
  if (it == config_.device_counts.end()) return 1;
  return std::max<size_t>(1, it->second);
}

Result<size_t> Machine::AllocateModule(const std::string& name) {
  if (buffer_to_module_.count(name) != 0) {
    return Status::AlreadyExists("buffer '" + name + "' already exists");
  }
  for (size_t m = 0; m < memories_.size(); ++m) {
    if (!memories_[m].occupied()) {
      buffer_to_module_.emplace(name, m);
      return m;
    }
  }
  return Status::Capacity("all " + std::to_string(memories_.size()) +
                          " memory modules are occupied");
}

Status Machine::LoadFromDisk(const std::string& relation_name) {
  if (disk_source_ != nullptr) {
    // Fault in a missing/stale shared relation; the Read below still
    // charges the modeled transfer time.
    if (const rel::Relation* shared = disk_source_(relation_name)) {
      disk_.Put(relation_name, *shared);
    }
  }
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation relation, disk_.Read(relation_name));
  return StoreBuffer(relation_name, std::move(relation));
}

Status Machine::StoreBuffer(const std::string& name, rel::Relation relation) {
  SYSTOLIC_ASSIGN_OR_RETURN(size_t module, AllocateModule(name));
  memories_[module].Store(std::move(relation));
  return Status::OK();
}

Result<const rel::Relation*> Machine::Buffer(const std::string& name) const {
  auto it = buffer_to_module_.find(name);
  if (it == buffer_to_module_.end()) {
    return Status::NotFound("no buffer named '" + name + "'");
  }
  return memories_[it->second].Contents();
}

std::vector<std::string> Machine::BufferNames() const {
  std::vector<std::string> names;
  names.reserve(buffer_to_module_.size());
  for (const auto& [name, module] : buffer_to_module_) names.push_back(name);
  return names;
}

Status Machine::ReleaseBuffer(const std::string& name) {
  auto it = buffer_to_module_.find(name);
  if (it == buffer_to_module_.end()) {
    return Status::NotFound("no buffer named '" + name + "'");
  }
  memories_[it->second].Clear();
  buffer_to_module_.erase(it);
  return Status::OK();
}

Status Machine::WriteBackToDisk(const std::string& name,
                                const std::string& disk_name) {
  SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation, Buffer(name));
  // Durable first: only an fsync'd write may be acknowledged, and a failed
  // log write must leave the modeled disk untouched.
  if (durability_enabled()) {
    if (commit_sink_ != nullptr) {
      SYSTOLIC_RETURN_NOT_OK(commit_sink_({{disk_name, relation}}).status());
    } else {
      SYSTOLIC_RETURN_NOT_OK(durable_->Put(disk_name, *relation));
    }
  }
  disk_.Write(disk_name, *relation);
  return Status::OK();
}

Status Machine::OpenDurable(const std::string& directory,
                            durability::CrashInjector* injector) {
  if (durable_ != nullptr) {
    return Status::AlreadyExists("durable directory '" +
                                 durable_->directory() + "' is already open");
  }
  SYSTOLIC_ASSIGN_OR_RETURN(
      durable_, durability::DurableCatalog::Open(directory,
                                                 durability::Io(injector)));
  for (const std::string& name : durable_->catalog().RelationNames()) {
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation,
                              durable_->catalog().GetRelation(name));
    disk_.Put(name, *relation);
  }
  durability_enabled_ = true;
  return Status::OK();
}

Status Machine::SetDurabilityEnabled(bool enabled) {
  if (durable_ == nullptr && commit_sink_ == nullptr) {
    return Status::NotFound(
        "no durable directory is open (use OPEN <dir> first)");
  }
  durability_enabled_ = enabled;
  return Status::OK();
}

Result<size_t> Machine::PersistBuffers(const std::vector<std::string>& names) {
  if (!durability_enabled() || names.empty()) return static_cast<size_t>(0);
  if (commit_sink_ != nullptr) {
    // Server-session path: hand the whole write set to the shared
    // group-commit pipeline as one atomic group; mirror to the modeled
    // disk only once the group is acknowledged.
    std::vector<std::pair<std::string, const rel::Relation*>> puts;
    puts.reserve(names.size());
    for (const std::string& name : names) {
      SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation, Buffer(name));
      puts.emplace_back(name, relation);
    }
    SYSTOLIC_ASSIGN_OR_RETURN(const size_t records, commit_sink_(puts));
    for (const auto& [name, relation] : puts) disk_.Write(name, *relation);
    return records;
  }
  for (const std::string& name : names) {
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation, Buffer(name));
    Status staged = durable_->LogPut(name, *relation);
    if (!staged.ok()) {
      durable_->Abort();
      return staged;
    }
  }
  const size_t records = durable_->staged_records();
  const Status committed = durable_->Commit();
  if (!committed.ok()) {
    durable_->Abort();  // un-acknowledged; don't leak the group to later ops
    return committed;
  }
  for (const std::string& name : names) {
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation, Buffer(name));
    disk_.Write(name, *relation);
  }
  return records;
}

Result<verify::VerifyReport> Machine::VerifyTransaction(
    const Transaction& transaction) const {
  // The memory modules ARE the catalog: every operand is materialised, so
  // the verifier gets exact cardinalities to instantiate the §3.2/§8
  // invariants with.
  std::map<std::string, verify::InputStats> inputs;
  for (const auto& [name, module] : buffer_to_module_) {
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation,
                              memories_[module].Contents());
    verify::InputStats stats;
    stats.schema = relation->schema();
    stats.num_tuples = relation->num_tuples();
    stats.exact = true;
    inputs.emplace(name, std::move(stats));
  }
  verify::DeviceTable devices;
  devices.default_device = config_.device;
  devices.overrides = config_.device_configs;
  return verify::VerifyTransaction(transaction, inputs, devices);
}

Result<TransactionReport> Machine::Execute(const Transaction& transaction) {
  std::vector<std::string> inputs;
  for (const auto& [name, module] : buffer_to_module_) {
    inputs.push_back(name);
  }
  // The machine's own validation first, so a malformed transaction gets the
  // same status whether or not the verify gate below is on.
  SYSTOLIC_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> levels,
                            transaction.Schedule(inputs));
  if (verify_enabled_) {
    SYSTOLIC_ASSIGN_OR_RETURN(const verify::VerifyReport gate_report,
                              VerifyTransaction(transaction));
    (void)gate_report;  // the shell's VERIFY verb prints it; the gate only
                        // cares that every pass accepted
  }

  TransactionReport report;
  const double crossbar_rate = CrossbarBytesPerSecond();

  for (size_t level = 0; level < levels.size(); ++level) {
    std::vector<StepReport> level_reports;

    for (size_t step_index : levels[level]) {
      const PlanStep& step = transaction.steps()[step_index];
      SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* left, Buffer(step.left));
      const rel::Relation* right = nullptr;
      if (IsBinaryOp(step.op)) {
        SYSTOLIC_ASSIGN_OR_RETURN(right, Buffer(step.right));
      }

      // Configure the crossbar: sources -> device -> destination memory.
      // Feeds route through the scratchpad layer (S25): CrossbarFeed is the
      // one sanctioned way to charge a module read (project_lint rule 4).
      ++report.crossbar_configurations;
      auto left_it = buffer_to_module_.find(step.left);
      double bytes = spad::CrossbarFeed(memories_[left_it->second]);
      if (right != nullptr) {
        auto right_it = buffer_to_module_.find(step.right);
        bytes += spad::CrossbarFeed(memories_[right_it->second]);
      }

      // A planner feed hint pins the feed discipline for this step; the
      // pinned copy shares the device's chip pool, so this costs no threads.
      const db::Engine& configured_engine = EngineFor(step.op);
      const db::Engine device_engine =
          step.has_feed_hint ? configured_engine.WithMode(step.feed_hint)
                             : configured_engine;
      Result<db::EngineResult> executed = [&]() -> Result<db::EngineResult> {
        switch (step.op) {
          case OpKind::kIntersect:
            return device_engine.Intersect(*left, *right);
          case OpKind::kDifference:
            return device_engine.Subtract(*left, *right);
          case OpKind::kRemoveDuplicates:
            return device_engine.RemoveDuplicates(*left);
          case OpKind::kUnion:
            return device_engine.Union(*left, *right);
          case OpKind::kProject:
            return device_engine.Project(*left, step.columns);
          case OpKind::kJoin:
            return device_engine.Join(*left, *right, step.join);
          case OpKind::kDivide:
            return device_engine.Divide(*left, *right, step.division);
          case OpKind::kSelect:
            return device_engine.Select(*left, step.predicates);
        }
        return Status::Internal("unknown op kind");
      }();
      if (!executed.ok()) return executed.status();

      bytes += RelationBytes(executed->relation);

      StepReport sr;
      sr.step_index = step_index;
      sr.op = step.op;
      sr.output = step.output;
      sr.level = level;
      sr.exec = executed->stats;
      // Critical-path pulses: on a multi-chip device (num_chips > 1) the §8
      // tiles run concurrently, so the step's wall time is the makespan, not
      // the pulse sum. Identical when num_chips == 1.
      sr.compute_seconds = perf::SecondsForCycles(
          config_.technology, executed->stats.makespan_cycles);
      sr.transfer_seconds = bytes / crossbar_rate;
      sr.bytes_moved = bytes;

      report.serial_seconds += sr.compute_seconds + sr.transfer_seconds;
      report.bytes_through_crossbar += bytes;
      level_reports.push_back(sr);

      SYSTOLIC_RETURN_NOT_OK(
          StoreBuffer(step.output, std::move(executed->relation)));
    }

    // Assign the level's steps to device instances per the configured
    // policy and add the level's critical path to the makespan.
    std::map<OpKind, std::vector<size_t>> by_kind;
    for (size_t i = 0; i < level_reports.size(); ++i) {
      by_kind[level_reports[i].op].push_back(i);
    }
    double level_makespan = 0;
    for (auto& [kind, indices] : by_kind) {
      const size_t pool = DeviceCount(kind);
      if (config_.scheduling == DeviceScheduling::kLpt) {
        std::sort(indices.begin(), indices.end(), [&](size_t x, size_t y) {
          const auto cost = [&](size_t i) {
            return level_reports[i].compute_seconds +
                   level_reports[i].transfer_seconds;
          };
          return cost(x) > cost(y);
        });
      }
      std::vector<double> load(pool, 0.0);
      size_t next = 0;
      for (size_t i : indices) {
        size_t slot = 0;
        if (config_.scheduling == DeviceScheduling::kLpt) {
          slot = static_cast<size_t>(
              std::min_element(load.begin(), load.end()) - load.begin());
        } else {
          slot = next++ % pool;
        }
        level_reports[i].device_slot = slot;
        load[slot] += level_reports[i].compute_seconds +
                      level_reports[i].transfer_seconds;
      }
      for (double busy : load) level_makespan = std::max(level_makespan, busy);
    }
    for (StepReport& sr : level_reports) report.steps.push_back(sr);
    report.makespan_seconds += level_makespan;
  }
  return report;
}

Result<TransactionReport> Machine::ExecuteBatch(
    const std::vector<Transaction>& transactions) {
  Transaction merged;
  for (const Transaction& txn : transactions) merged.Concat(txn);
  return Execute(merged);
}

}  // namespace machine
}  // namespace systolic
