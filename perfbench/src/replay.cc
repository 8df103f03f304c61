#include "replay.h"

#include <ctime>
#include <utility>

#include "system/scratchpad/memory.h"
#include "verify/verifier.h"

namespace perfbench {

namespace {

using systolic::Result;
using systolic::Status;
namespace db = systolic::db;
namespace planner = systolic::planner;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* Family(machine::OpKind op) {
  switch (op) {
    case machine::OpKind::kIntersect: return "intersect";
    case machine::OpKind::kJoin: return "join";
    case machine::OpKind::kRemoveDuplicates: return "dedup";
    case machine::OpKind::kDivide: return "divide";
    case machine::OpKind::kSelect: return "select";
    default: return "other";
  }
}

db::DeviceConfig DeviceFor(const WorkloadSpec& spec) {
  db::DeviceConfig device;
  device.rows = spec.rows;
  device.num_chips = spec.chips;
  systolic::fastpath::ParseBackendPolicy(spec.backend, &device.backend);
  return device;
}

}  // namespace

void LayerStats::Merge(const LayerStats& other) {
  for (const auto& [family, samples] : other.engine_ms) {
    auto& mine = engine_ms[family];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
  load_ms.insert(load_ms.end(), other.load_ms.begin(), other.load_ms.end());
  engine_wall_s += other.engine_wall_s;
  engine_cpu_s += other.engine_cpu_s;
  passes += other.passes;
  queries += other.queries;
  fast_ns += other.fast_ns;
  fast_cells += other.fast_cells;
  rtl_cycles += other.rtl_cycles;
  rtl_wall_s += other.rtl_wall_s;
  rtl_busy_cell_cycles += other.rtl_busy_cell_cycles;
  rtl_offered_cell_cycles += other.rtl_offered_cell_cycles;
  dma_cycles += other.dma_cycles;
  overlap_cycles += other.overlap_cycles;
  crossbar_bytes += other.crossbar_bytes;
  est_pulses += other.est_pulses;
  est_pulses_before += other.est_pulses_before;
  put_bytes += other.put_bytes;
}

ReplayStack::ReplayStack(const Workload& workload,
                         systolic::server::Server* server,
                         std::shared_ptr<db::ChipPool> pool,
                         std::string durable_dir, size_t conn)
    : workload_(workload),
      server_(server),
      pool_(std::move(pool)),
      durable_dir_(std::move(durable_dir)),
      conn_(conn),
      device_(DeviceFor(workload.spec())),
      engine_(device_, pool_) {
  for (const auto& [name, relation] : workload_.base()) {
    planner::InputInfo info;
    info.schema = relation.schema();
    info.num_tuples = relation.num_tuples();
    info.duplicate_free = planner::ProvablyDuplicateFree(relation);
    catalog_.emplace(name, std::move(info));
  }
}

Status ReplayStack::MirrorExecute(const std::string& line) {
  SYSTOLIC_ASSIGN_OR_RETURN(
      const systolic::server::Session::RequestOutcome outcome,
      mirror_->ExecuteRequest(mirror_next_id_++, line));
  if (outcome.payload.rfind("OK\n", 0) != 0) {
    return Status::Internal("mirror '" + line + "': " + outcome.payload);
  }
  return Status::OK();
}

Status ReplayStack::Init() {
  SYSTOLIC_ASSIGN_OR_RETURN(mirror_, server_->Connect());
  for (const std::string& line : workload_.setup_lines()) {
    SYSTOLIC_RETURN_NOT_OK(MirrorExecute(line));
  }

  machine::MachineConfig config;
  config.num_memories = workload_.base().size() + 16;
  config.device = device_;
  if (device_.num_chips > 1) config.shared_pool = pool_;
  machine_ = std::make_unique<machine::Machine>(config);
  for (const auto& [name, relation] : workload_.base()) {
    machine_->disk().Put(name, relation);
  }
  for (const auto& [name, relation] : workload_.shared()) {
    machine_->disk().Put(name, *relation);
  }
  interpreter_ =
      std::make_unique<machine::CommandInterpreter>(machine_.get(), &out_);
  for (const std::string& line : workload_.setup_lines()) {
    // The private machine has no durable catalog to switch off.
    if (line == "SET DURABILITY off") continue;
    SYSTOLIC_RETURN_NOT_OK(interpreter_->Execute(line));
  }
  if (workload_.spec().durable_writes) {
    SYSTOLIC_ASSIGN_OR_RETURN(
        durable_, systolic::durability::DurableCatalog::Open(durable_dir_));
  }
  return Status::OK();
}

Status ReplayStack::RunCore(const machine::PlanStep& step,
                            std::map<std::string, rel::Relation>* produced,
                            uint64_t parent, uint64_t trace, Tracer* tracer,
                            LayerStats* stats) {
  const auto operand = [&](const std::string& name) -> const rel::Relation* {
    if (name.empty()) return nullptr;
    const auto it = produced->find(name);
    if (it != produced->end()) return &it->second;
    return &workload_.base().at(name);
  };
  const rel::Relation* left = operand(step.left);
  const rel::Relation* right = operand(step.right);
  const db::Engine engine =
      step.has_feed_hint ? engine_.WithMode(step.feed_hint) : engine_;

  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  Result<db::EngineResult> result = [&]() -> Result<db::EngineResult> {
    SpanScope span(tracer, "core", parent, trace, /*replayed=*/true);
    switch (step.op) {
      case machine::OpKind::kIntersect: return engine.Intersect(*left, *right);
      case machine::OpKind::kJoin: return engine.Join(*left, *right, step.join);
      case machine::OpKind::kRemoveDuplicates:
        return engine.RemoveDuplicates(*left);
      case machine::OpKind::kDivide:
        return engine.Divide(*left, *right, step.division);
      case machine::OpKind::kSelect:
        return engine.Select(*left, step.predicates);
      default: return Status::InvalidArgument("unsupported replay step");
    }
  }();
  const double wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  if (!result.ok()) return result.status();

  const db::ExecStats& exec = result->stats;
  stats->engine_ms[Family(step.op)].push_back(wall_s * 1e3);
  stats->engine_wall_s += wall_s;
  stats->engine_cpu_s += cpu_s;
  stats->passes += exec.passes;
  stats->dma_cycles += static_cast<double>(exec.dma_cycles);
  stats->overlap_cycles += static_cast<double>(exec.overlap_cycles);
  stats->crossbar_bytes += machine::RelationBytes(*left) +
                           machine::RelationBytes(result->relation);
  if (right != nullptr) {
    stats->crossbar_bytes += machine::RelationBytes(*right);
  }
  if (exec.backend == systolic::fastpath::Backend::kFast) {
    const double n_a = static_cast<double>(left->num_tuples());
    const double n_b = right != nullptr ? static_cast<double>(right->num_tuples())
                       : step.op == machine::OpKind::kSelect ? 1.0
                                                              : n_a;
    stats->fast_ns += wall_s * 1e9;
    stats->fast_cells += n_a * n_b;
  } else {
    stats->rtl_cycles += static_cast<double>(exec.cycles);
    stats->rtl_wall_s += wall_s;
    stats->rtl_busy_cell_cycles += static_cast<double>(exec.busy_cell_cycles);
    stats->rtl_offered_cell_cycles +=
        static_cast<double>(exec.num_compute_cells) *
        static_cast<double>(exec.cycles);
  }
  produced->insert_or_assign(step.output, std::move(result->relation));
  return Status::OK();
}

Status ReplayStack::Replay(const Request& request,
                           const std::vector<uint64_t>& wire_spans,
                           uint64_t trace, Tracer* tracer, LayerStats* stats) {
  if (request.shape != nullptr) ++stats->queries;
  for (size_t i = 0; i < request.frames.size(); ++i) {
    const Frame& frame = request.frames[i];
    uint64_t session_span = 0;
    const Clock::time_point session_start = Clock::now();
    {
      SpanScope session(tracer, "session", wire_spans[i], trace, true);
      session_span = session.id();
      SYSTOLIC_RETURN_NOT_OK(MirrorExecute(request.mirror_frames[i].line));
    }
    if (frame.shared_load) {
      stats->load_ms.push_back(Ms(Clock::now() - session_start));
    }
    if (!frame.puts.empty()) {
      uint64_t group_span = 0;
      {
        SpanScope group(tracer, "shared_catalog", session_span, trace, true);
        group_span = group.id();
        std::vector<std::pair<std::string, const rel::Relation*>> puts;
        for (const auto& [name, relation] : frame.puts) {
          puts.emplace_back("g" + name, relation);
          // The mirror's STORE/COMMIT and this group both reach the WAL.
          stats->put_bytes += 2 * machine::RelationBytes(*relation);
        }
        SYSTOLIC_RETURN_NOT_OK(
            server_->catalog()
                .CommitGroup(server_->catalog().Snapshot()->version, puts)
                .status());
      }
      SpanScope wal(tracer, "durability", group_span, trace, true);
      for (const auto& [name, relation] : frame.puts) {
        SYSTOLIC_RETURN_NOT_OK(durable_->LogPut("r" + name, *relation));
      }
      SYSTOLIC_RETURN_NOT_OK(durable_->Commit());
    }

    // The engine and planner replays run after the system span closes: they
    // stand for work inside it, like every replayed child.
    uint64_t system_span = 0;
    {
      SpanScope system(tracer, "system", session_span, trace, true);
      system_span = system.id();
      out_.str("");
      SYSTOLIC_RETURN_NOT_OK(interpreter_->Execute(frame.line));
    }
    std::map<std::string, rel::Relation> produced;
    if (frame.step != nullptr) {
      SYSTOLIC_RETURN_NOT_OK(RunCore(request.shape->txn.steps().front(),
                                     &produced, system_span, trace, tracer,
                                     stats));
    } else if (frame.commit_verb) {
      planner::PlannerOptions options;
      options.params.default_device = device_;
      Result<planner::PlannedTransaction> planned =
          Status::Internal("not planned");
      {
        SpanScope plan(tracer, "planner", system_span, trace, true);
        planned = planner::PlanTransaction(request.shape->txn, catalog_,
                                           options);
      }
      SYSTOLIC_RETURN_NOT_OK(planned.status());
      stats->est_pulses += planned->est_total_pulses;
      stats->est_pulses_before += planned->est_total_pulses_before;
      {
        SpanScope verify(tracer, "verify", 0, trace, false);
        systolic::verify::DeviceTable devices;
        devices.default_device = device_;
        SYSTOLIC_RETURN_NOT_OK(
            systolic::verify::VerifyPlannedTransaction(*planned, catalog_,
                                                       devices)
                .status());
      }
      for (const machine::PlanStep& step : planned->transaction.steps()) {
        SYSTOLIC_RETURN_NOT_OK(
            RunCore(step, &produced, system_span, trace, tracer, stats));
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
