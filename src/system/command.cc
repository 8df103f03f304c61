#include "system/command.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "planner/plan.h"
#include "util/strings.h"

namespace systolic {
namespace machine {

namespace {

/// Whitespace tokenizer.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

Result<rel::ComparisonOp> ParseOp(const std::string& token) {
  if (token == "=") return rel::ComparisonOp::kEq;
  if (token == "!=") return rel::ComparisonOp::kNe;
  if (token == "<") return rel::ComparisonOp::kLt;
  if (token == "<=") return rel::ComparisonOp::kLe;
  if (token == ">") return rel::ComparisonOp::kGt;
  if (token == ">=") return rel::ComparisonOp::kGe;
  return Status::InvalidArgument("unknown comparison '" + token + "'");
}

/// Parses a literal according to the domain's type and encodes it via
/// Lookup (selection constants must already be members of dictionary
/// domains — a value nothing was encoded with cannot match anything, and
/// surfacing NotFound beats silently selecting nothing).
Result<rel::Code> ParseConstant(const std::string& token,
                                const rel::Domain& domain) {
  switch (domain.type()) {
    case rel::ValueType::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(token, &v)) {
        return Status::InvalidArgument("cannot parse '" + token +
                                       "' as int64");
      }
      return domain.Lookup(rel::Value::Int64(v));
    }
    case rel::ValueType::kBool:
      if (token == "true") return domain.Lookup(rel::Value::Bool(true));
      if (token == "false") return domain.Lookup(rel::Value::Bool(false));
      return Status::InvalidArgument("cannot parse '" + token + "' as bool");
    case rel::ValueType::kString:
      return domain.Lookup(rel::Value::String(token));
  }
  return Status::Internal("unknown value type");
}

/// "a b -> out" shapes: verifies and strips the arrow.
Status ExpectArrow(const std::vector<std::string>& tokens, size_t at) {
  if (at >= tokens.size() || tokens[at] != "->") {
    return Status::InvalidArgument("expected '->' before the output name");
  }
  if (at + 1 != tokens.size() - 1) {
    return Status::InvalidArgument("expected exactly one output name after '->'");
  }
  return Status::OK();
}

/// Streams a multi-line planner report with the shell's "-- " line prefix.
void PrintPrefixed(std::ostream* out, const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) (*out) << "-- " << line << "\n";
}

}  // namespace

bool CommandInterpreter::IsRelationalVerb(const std::string& verb) {
  return verb == "INTERSECT" || verb == "DIFFERENCE" || verb == "UNION" ||
         verb == "DEDUP" || verb == "PROJECT" || verb == "SELECT" ||
         verb == "JOIN" || verb == "DIVIDE";
}

Result<std::pair<Transaction, std::string>> CommandInterpreter::ParseRelational(
    const std::vector<std::string>& tokens) {
  const std::string& verb = tokens[0];

  if (verb == "INTERSECT" || verb == "DIFFERENCE" || verb == "UNION") {
    if (tokens.size() != 5) {
      return Status::InvalidArgument("usage: " + verb + " <a> <b> -> <out>");
    }
    SYSTOLIC_RETURN_NOT_OK(ExpectArrow(tokens, 3));
    Transaction txn;
    if (verb == "INTERSECT") {
      txn.Intersect(tokens[1], tokens[2], tokens[4]);
    } else if (verb == "DIFFERENCE") {
      txn.Difference(tokens[1], tokens[2], tokens[4]);
    } else {
      txn.Union(tokens[1], tokens[2], tokens[4]);
    }
    return std::make_pair(std::move(txn), tokens[4]);
  }

  if (verb == "DEDUP") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument("usage: DEDUP <in> -> <out>");
    }
    SYSTOLIC_RETURN_NOT_OK(ExpectArrow(tokens, 2));
    Transaction txn;
    txn.RemoveDuplicates(tokens[1], tokens[3]);
    return std::make_pair(std::move(txn), tokens[3]);
  }

  if (verb == "PROJECT") {
    if (tokens.size() != 5) {
      return Status::InvalidArgument(
          "usage: PROJECT <in> <col>[,<col>...] -> <out>");
    }
    SYSTOLIC_RETURN_NOT_OK(ExpectArrow(tokens, 3));
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Schema schema,
                              OperandSchema(tokens[1]));
    std::vector<size_t> columns;
    for (const std::string& name : Split(tokens[2], ',')) {
      SYSTOLIC_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(name));
      columns.push_back(index);
    }
    Transaction txn;
    txn.Project(tokens[1], std::move(columns), tokens[4]);
    return std::make_pair(std::move(txn), tokens[4]);
  }

  if (verb == "SELECT") {
    // SELECT <in> WHERE <col> <op> <value> [AND ...] -> <out>
    if (tokens.size() < 8 || tokens[2] != "WHERE") {
      return Status::InvalidArgument(
          "usage: SELECT <in> WHERE <col> <op> <value> [AND ...] -> <out>");
    }
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Schema schema,
                              OperandSchema(tokens[1]));
    std::vector<arrays::SelectionPredicate> predicates;
    size_t pos = 3;
    while (true) {
      if (pos + 2 >= tokens.size()) {
        return Status::InvalidArgument("truncated predicate in SELECT");
      }
      SYSTOLIC_ASSIGN_OR_RETURN(size_t column,
                                schema.ColumnIndex(tokens[pos]));
      SYSTOLIC_ASSIGN_OR_RETURN(rel::ComparisonOp op, ParseOp(tokens[pos + 1]));
      SYSTOLIC_ASSIGN_OR_RETURN(
          rel::Code constant,
          ParseConstant(tokens[pos + 2], *schema.column(column).domain));
      predicates.push_back({column, op, constant});
      pos += 3;
      if (pos < tokens.size() && tokens[pos] == "AND") {
        ++pos;
        continue;
      }
      break;
    }
    SYSTOLIC_RETURN_NOT_OK(ExpectArrow(tokens, pos));
    Transaction txn;
    txn.Select(tokens[1], std::move(predicates), tokens[pos + 1]);
    return std::make_pair(std::move(txn), tokens[pos + 1]);
  }

  if (verb == "JOIN" || verb == "DIVIDE") {
    // JOIN <a> <b> ON <colA> <op> <colB> -> <out>
    if (tokens.size() != 9 || tokens[3] != "ON") {
      return Status::InvalidArgument("usage: " + verb +
                                     " <a> <b> ON <colA> <op> <colB> -> <out>");
    }
    SYSTOLIC_RETURN_NOT_OK(ExpectArrow(tokens, 7));
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Schema left,
                              OperandSchema(tokens[1]));
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Schema right,
                              OperandSchema(tokens[2]));
    SYSTOLIC_ASSIGN_OR_RETURN(size_t left_col, left.ColumnIndex(tokens[4]));
    SYSTOLIC_ASSIGN_OR_RETURN(rel::ComparisonOp op, ParseOp(tokens[5]));
    SYSTOLIC_ASSIGN_OR_RETURN(size_t right_col, right.ColumnIndex(tokens[6]));
    Transaction txn;
    if (verb == "JOIN") {
      txn.Join(tokens[1], tokens[2],
               rel::JoinSpec{{left_col}, {right_col}, op}, tokens[8]);
    } else {
      if (op != rel::ComparisonOp::kEq) {
        return Status::InvalidArgument("DIVIDE requires '=' between columns");
      }
      txn.Divide(tokens[1], tokens[2],
                 rel::DivisionSpec{{left_col}, {right_col}}, tokens[8]);
    }
    return std::make_pair(std::move(txn), tokens[8]);
  }

  return Status::InvalidArgument("unknown relational command '" + verb + "'");
}

Result<rel::Schema> CommandInterpreter::OperandSchema(
    const std::string& name) const {
  const Result<const rel::Relation*> buffer = machine_->Buffer(name);
  if (buffer.ok()) return (*buffer)->schema();
  if (in_transaction_) {
    // A pending step's output: compile the queued steps into a logical plan
    // and read the annotated schema off the producing node.
    // Schemas need no duplicate-freedom proofs: an empty read set skips
    // them.
    SYSTOLIC_ASSIGN_OR_RETURN(auto inputs, Catalog(Transaction()));
    const Result<planner::LogicalPlan> plan =
        planner::LogicalPlan::FromTransaction(pending_, inputs);
    if (plan.ok()) {
      for (const planner::Node& n : plan->nodes()) {
        if (!n.is_input && n.name == name) return n.schema;
      }
    }
  }
  return Status::NotFound("no buffer named '" + name + "'");
}

Result<std::map<std::string, planner::InputInfo>> CommandInterpreter::Catalog(
    const Transaction& txn) const {
  std::set<std::string> reads;
  for (const PlanStep& step : txn.steps()) {
    reads.insert(step.left);
    if (IsBinaryOp(step.op)) reads.insert(step.right);
  }
  std::map<std::string, planner::InputInfo> inputs;
  for (const std::string& name : machine_->BufferNames()) {
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation,
                              machine_->Buffer(name));
    planner::InputInfo info;
    info.schema = relation->schema();
    info.num_tuples = relation->num_tuples();
    info.duplicate_free =
        reads.count(name) != 0 && planner::ProvablyDuplicateFree(*relation);
    inputs.emplace(name, std::move(info));
  }
  return inputs;
}

Result<planner::PlannedTransaction> CommandInterpreter::Plan(
    const Transaction& txn) const {
  SYSTOLIC_ASSIGN_OR_RETURN(auto inputs, Catalog(txn));
  planner::PlannerOptions options;
  options.enable_rewrites = planner_on_;
  const MachineConfig& config = machine_->config();
  options.params.default_device = config.device;
  options.params.device_configs = config.device_configs;
  options.params.device_counts = config.device_counts;
  return planner::PlanTransaction(txn, inputs, options);
}

Status CommandInterpreter::RunStep(Transaction transaction,
                                   const std::string& output) {
  SYSTOLIC_ASSIGN_OR_RETURN(TransactionReport report,
                            machine_->Execute(transaction));
  StepReport step = report.steps.at(0);
  StampDurability(&step.exec);
  SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* result,
                            machine_->Buffer(output));
  (*out_) << "-- " << OpKindToString(step.op) << " -> " << output << ": "
          << result->num_tuples() << " tuples, " << step.exec.passes
          << " passes";
  if (step.op != OpKind::kDivide && step.op != OpKind::kSelect) {
    // The membership family and joins name the discipline they ran.
    (*out_) << " (" << arrays::FeedModeToString(step.exec.resolved_mode)
            << ")";
  }
  (*out_) << ", " << step.exec.cycles << " pulses";
  if (step.exec.backend == fastpath::Backend::kFast) {
    (*out_) << " (fast, analytic)";
  }
  (*out_) << ", " << step.exec.dma_cycles << " dma pulses ("
          << step.exec.overlap_cycles << " overlapped)";
  PrintFaultCounters(step.exec);
  (*out_) << "\n";
  return PersistSinks(transaction.SinkOutputs());
}

void CommandInterpreter::PrintFaultCounters(const db::ExecStats& exec) {
  if (machine_->config().device.faults == nullptr) return;
  (*out_) << ", " << exec.faults_detected << " faults, " << exec.tile_retries
          << " retries, " << exec.healthy_chips << "/" << exec.num_chips
          << " chips";
}

void CommandInterpreter::PrintBackendPolicy() {
  const fastpath::Backend backend = machine_->backend_policy();
  if (backend == fastpath::Backend::kRtl) return;
  (*out_) << "-- backend: " << fastpath::BackendToString(backend)
          << " (packed bitwise kernels, analytic pulse counts";
  if (machine_->config().device.faults != nullptr) {
    (*out_) << "; falls back to rtl while faults are installed";
  }
  (*out_) << ")\n";
}

void CommandInterpreter::PrintMemoryPolicy() {
  const spad::OverlapPolicy policy = machine_->memory_policy();
  (*out_) << "-- memory: overlap " << spad::OverlapPolicyToString(policy)
          << " (scratchpad double-buffering "
          << (policy == spad::OverlapPolicy::kOff
                  ? "off: tiles serialise load->compute->drain"
                  : "on: tile N+1 streams in while tile N computes")
          << ")\n";
}

void CommandInterpreter::PrintFaultPolicy() {
  const auto& plan = machine_->config().device.faults;
  if (plan == nullptr) return;
  const auto& recovery = machine_->config().device.recovery;
  (*out_) << "-- faults: seed=" << plan->seed() << ", " << plan->num_chips()
          << " chips (" << plan->num_dead()
          << " dead); detected failures retry on the next usable chip, "
          << "quarantine after " << recovery.strike_limit << " strikes\n";
}

Status CommandInterpreter::PersistSinks(const std::vector<std::string>& sinks) {
  SYSTOLIC_ASSIGN_OR_RETURN(const size_t records,
                            machine_->PersistBuffers(sinks));
  if (records > 0) {
    if (const durability::DurableCatalog* durable = machine_->durable()) {
      (*out_) << "-- durability: committed " << records << " relation"
              << (records == 1 ? "" : "s") << " ("
              << durable->wal_live_records()
              << " wal records since checkpoint chk-"
              << durable->checkpoint_id() << ")\n";
    } else {
      // Server-session path: the WAL lives behind the shared group-commit
      // pipeline, so report only what this session was acknowledged for.
      (*out_) << "-- durability: committed " << records << " relation"
              << (records == 1 ? "" : "s") << " (group commit)\n";
    }
  }
  return Status::OK();
}

void CommandInterpreter::StampDurability(db::ExecStats* exec) const {
  // A server session's counters come from its own ledger: the machine-local
  // catalog is absent there, and a shared catalog's totals would
  // cross-pollute concurrent sessions' stats.
  if (has_session_ && session_.durability_stats != nullptr) {
    const durability::DurabilityStats stats = session_.durability_stats();
    exec->wal_records = stats.wal_records;
    exec->checkpoints = stats.checkpoints;
    exec->recovered_records = stats.recovered_records;
    return;
  }
  const durability::DurableCatalog* durable = machine_->durable();
  if (durable == nullptr) return;
  exec->wal_records = durable->stats().wal_records;
  exec->checkpoints = durable->stats().checkpoints;
  exec->recovered_records = durable->stats().recovered_records;
}

void CommandInterpreter::PrintDurabilityPolicy() {
  const durability::DurableCatalog* durable = machine_->durable();
  if (durable == nullptr) {
    if (machine_->has_commit_sink()) {
      (*out_) << "-- durability: "
              << (machine_->durability_enabled() ? "on" : "off")
              << ", shared catalog (cross-session group commit)\n";
    }
    return;
  }
  (*out_) << "-- durability: "
          << (machine_->durability_enabled() ? "on" : "off") << ", dir "
          << durable->directory() << ", checkpoint chk-"
          << durable->checkpoint_id() << ", " << durable->wal_live_records()
          << " wal records to replay; session " << durable->stats().wal_records
          << " logged, " << durable->stats().checkpoints << " checkpoints, "
          << durable->stats().recovered_records << " recovered\n";
}

void CommandInterpreter::PrintSessionInfo() {
  if (!has_session_) return;
  (*out_) << "-- session: id " << session_.session_id << ", isolation "
          << session_.isolation << "\n";
}

Status CommandInterpreter::SetSession(const std::vector<std::string>& tokens) {
  if (!has_session_) {
    return Status::InvalidArgument(
        "SET SESSION works only under the server (connect via --serve / "
        "--connect)");
  }
  if (tokens.size() < 3) {
    return Status::InvalidArgument(
        "usage: SET SESSION <key> ...; valid keys: ISOLATION");
  }
  if (tokens[2] == "ISOLATION") {
    if (tokens.size() != 4 || tokens[3] != "snapshot") {
      return Status::InvalidArgument(
          "usage: SET SESSION ISOLATION snapshot (readers pin an immutable "
          "catalog image; the only supported mode)");
    }
    (*out_) << "-- session " << session_.session_id
            << ": isolation snapshot\n";
    return Status::OK();
  }
  return Status::InvalidArgument("unknown SET SESSION key '" + tokens[2] +
                                 "'; valid keys: ISOLATION");
}

Status CommandInterpreter::PrintVerify(
    const Transaction& txn, const planner::PlannedTransaction& planned) {
  SYSTOLIC_ASSIGN_OR_RETURN(auto catalog, Catalog(txn));
  verify::DeviceTable devices;
  devices.default_device = machine_->config().device;
  devices.overrides = machine_->config().device_configs;
  SYSTOLIC_ASSIGN_OR_RETURN(
      const verify::VerifyReport report,
      verify::VerifyPlannedTransaction(planned, catalog, devices));
  (*out_) << "-- " << report.ToString() << "\n";
  return Status::OK();
}

void CommandInterpreter::PrintHelp() {
  (*out_) << "-- commands:\n"
          << "--   LOAD <disk-name> | STORE <name> AS <disk-name> | "
             "PRINT <name> | RELEASE <name>\n"
          << "--   INTERSECT|DIFFERENCE|UNION <a> <b> -> <out> | "
             "DEDUP <in> -> <out>\n"
          << "--   PROJECT <in> <col>[,<col>...] -> <out>\n"
          << "--   SELECT <in> WHERE <col> <op> <value> [AND ...] -> <out>\n"
          << "--   JOIN|DIVIDE <a> <b> ON <colA> <op> <colB> -> <out>\n"
          << "--   BEGIN | COMMIT | ABORT | EXPLAIN [<command>]\n"
          << "--   VERIFY [<command>]  (static verifier: typing, schedule "
             "invariants, rewrite certificates)\n"
          << "--   OPEN <dir> | CHECKPOINT  (crash-safe durability)\n"
          << "--   SET PLANNER on|off | SET DURABILITY on|off | "
             "SET FAULTS seed=<n> ... | SET FAULTS off\n"
          << "--   SET BACKEND rtl|fast  (fast: packed bitwise kernels "
             "with analytic pulse counts)\n"
          << "--   SET MEMORY overlap=on|off  (scratchpad "
             "double-buffering of tile feeds)\n"
          << "--   SET SESSION ISOLATION snapshot  (server sessions)\n"
          << "--   HELP\n";
  PrintSessionInfo();
}

Status CommandInterpreter::Dispatch(Transaction transaction,
                                    const std::string& output) {
  if (in_transaction_) {
    pending_.Concat(transaction);
    (*out_) << "-- queued step -> " << output << "\n";
    return Status::OK();
  }
  return RunStep(std::move(transaction), output);
}

Status CommandInterpreter::CommitPlanned(Transaction txn) {
  // The planner preserves sink names; capture them before the rewrite so
  // the durable commit persists exactly the user-visible results.
  const std::vector<std::string> sinks = txn.SinkOutputs();
  SYSTOLIC_ASSIGN_OR_RETURN(planner::PlannedTransaction planned, Plan(txn));
  (*out_) << "-- planner: " << planned.rewrites.ToString() << "; est "
          << static_cast<size_t>(planned.est_total_pulses) << " pulses (naive "
          << static_cast<size_t>(planned.est_total_pulses_before) << ")\n";
  SYSTOLIC_ASSIGN_OR_RETURN(TransactionReport report,
                            machine_->Execute(planned.transaction));
  (*out_) << "-- committed " << report.steps.size() << " steps: serial "
          << report.serial_seconds * 1e6 << " us, makespan "
          << report.makespan_seconds * 1e6 << " us, "
          << report.crossbar_configurations << " crossbar configs\n";
  size_t measured = 0;
  size_t faults = 0;
  size_t retries = 0;
  for (const StepReport& step : report.steps) {
    measured += step.exec.cycles;
    faults += step.exec.faults_detected;
    retries += step.exec.tile_retries;
  }
  (*out_) << "-- planner: measured " << measured << " pulses\n";
  if (machine_->config().device.faults != nullptr) {
    (*out_) << "-- faults: " << faults << " detected, " << retries
            << " tile retries\n";
  }
  // Planner-introduced intermediates are not part of the result: free their
  // memory modules. (Elided original intermediates were never stored.)
  for (const std::string& temp : planned.temp_buffers) {
    const Status released = machine_->ReleaseBuffer(temp);
    if (!released.ok() && !released.IsNotFound()) return released;
  }
  return PersistSinks(sinks);
}

Status CommandInterpreter::SetFaults(const std::vector<std::string>& tokens) {
  static constexpr char kUsage[] =
      "usage: SET FAULTS off | SET FAULTS seed=<n> [rate=<r>] [dead=<c,...>] "
      "[strikes=<n>] [shadow=<r>]";
  if (tokens.size() == 3 && tokens[2] == "off") {
    machine_->InstallFaultPlan(nullptr);
    (*out_) << "-- faults off\n";
    return Status::OK();
  }
  if (tokens.size() < 3) return Status::InvalidArgument(kUsage);
  int64_t seed = -1;
  double rate = 0;
  double shadow = 0;
  faults::RecoveryOptions recovery;
  std::vector<size_t> dead;
  for (size_t i = 2; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) return Status::InvalidArgument(kUsage);
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "seed") {
      if (!ParseInt64(value, &seed) || seed < 0) {
        return Status::InvalidArgument("SET FAULTS: bad seed '" + value + "'");
      }
    } else if (key == "rate" || key == "shadow") {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || parsed < 0 || parsed > 1) {
        return Status::InvalidArgument("SET FAULTS: bad " + key + " '" +
                                       value + "' (want 0..1)");
      }
      (key == "rate" ? rate : shadow) = parsed;
    } else if (key == "strikes") {
      int64_t strikes = 0;
      if (!ParseInt64(value, &strikes) || strikes < 1) {
        return Status::InvalidArgument("SET FAULTS: bad strikes '" + value +
                                       "'");
      }
      recovery.strike_limit = static_cast<size_t>(strikes);
    } else if (key == "dead") {
      for (size_t start = 0; start <= value.size();) {
        const size_t comma = std::min(value.find(',', start), value.size());
        int64_t chip = -1;
        if (!ParseInt64(value.substr(start, comma - start), &chip) ||
            chip < 0) {
          return Status::InvalidArgument("SET FAULTS: bad dead chip list '" +
                                         value + "'");
        }
        dead.push_back(static_cast<size_t>(chip));
        start = comma + 1;
      }
    } else {
      return Status::InvalidArgument(kUsage);
    }
  }
  if (seed < 0) return Status::InvalidArgument(kUsage);
  const size_t chips =
      std::max<size_t>(1, machine_->config().device.num_chips);
  // One knob scales all transient classes: flips at `rate`, drops at half,
  // stuck lines at a quarter of it.
  auto plan = std::make_shared<faults::FaultPlan>(faults::FaultPlan::Uniform(
      static_cast<uint64_t>(seed), chips, rate, rate / 2, rate / 4));
  for (size_t chip : dead) {
    if (chip >= chips) {
      return Status::InvalidArgument("SET FAULTS: dead chip " +
                                     std::to_string(chip) +
                                     " out of range (device has " +
                                     std::to_string(chips) + ")");
    }
    plan->chip(chip).dead = true;
  }
  recovery.shadow_fraction = shadow;
  machine_->InstallFaultPlan(plan, recovery);
  (*out_) << "-- faults on: seed=" << seed << ", rate=" << rate << ", "
          << chips << " chips (" << dead.size() << " dead), strike limit "
          << recovery.strike_limit << "\n";
  return Status::OK();
}

Status CommandInterpreter::Execute(const std::string& line) {
  const std::string stripped(Trim(line.substr(0, line.find('#'))));
  if (stripped.empty()) return Status::OK();
  const std::vector<std::string> tokens = Tokenize(stripped);
  const std::string& verb = tokens[0];

  if (verb == "BEGIN") {
    if (in_transaction_) {
      return Status::InvalidArgument("already inside a transaction");
    }
    in_transaction_ = true;
    pending_ = Transaction();
    (*out_) << "-- transaction started\n";
    return Status::OK();
  }
  if (verb == "ABORT") {
    if (!in_transaction_) {
      return Status::InvalidArgument("no transaction to abort");
    }
    in_transaction_ = false;
    pending_ = Transaction();
    (*out_) << "-- transaction aborted\n";
    return Status::OK();
  }
  if (verb == "SET") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument(
          "usage: SET <key> ...; valid keys: PLANNER, DURABILITY, FAULTS, "
          "BACKEND, SESSION, MEMORY");
    }
    if (tokens[1] == "FAULTS") {
      return SetFaults(tokens);
    }
    if (tokens[1] == "SESSION") {
      return SetSession(tokens);
    }
    if (tokens[1] == "BACKEND") {
      fastpath::Backend backend;
      if (tokens.size() != 3 || !fastpath::ParseBackendPolicy(tokens[2],
                                                              &backend)) {
        return Status::InvalidArgument(
            "usage: SET BACKEND <value>; valid values: rtl, fast");
      }
      machine_->SetBackendPolicy(backend);
      (*out_) << "-- backend " << tokens[2] << "\n";
      return Status::OK();
    }
    if (tokens[1] == "MEMORY") {
      constexpr const char* kUsage =
          "usage: SET MEMORY overlap=<value>; valid values: on, off";
      spad::OverlapPolicy policy;
      if (tokens.size() != 3 || tokens[2].rfind("overlap=", 0) != 0 ||
          !spad::ParseOverlapPolicy(tokens[2].substr(8), &policy)) {
        return Status::InvalidArgument(kUsage);
      }
      machine_->SetMemoryPolicy(policy);
      (*out_) << "-- memory overlap " << tokens[2].substr(8) << "\n";
      return Status::OK();
    }
    if (tokens[1] == "PLANNER" || tokens[1] == "DURABILITY") {
      if (tokens.size() != 3 || (tokens[2] != "on" && tokens[2] != "off")) {
        return Status::InvalidArgument("usage: SET " + tokens[1] + " on|off");
      }
      const bool on = tokens[2] == "on";
      if (tokens[1] == "PLANNER") {
        planner_on_ = on;
        (*out_) << "-- planner " << tokens[2] << "\n";
      } else {
        SYSTOLIC_RETURN_NOT_OK(machine_->SetDurabilityEnabled(on));
        (*out_) << "-- durability " << tokens[2] << "\n";
      }
      return Status::OK();
    }
    return Status::InvalidArgument("unknown SET key '" + tokens[1] +
                                   "'; valid keys: PLANNER, DURABILITY, "
                                   "FAULTS, BACKEND, SESSION, MEMORY");
  }
  if (verb == "OPEN") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: OPEN <dir>");
    }
    SYSTOLIC_RETURN_NOT_OK(machine_->OpenDurable(tokens[1]));
    const durability::DurableCatalog* durable = machine_->durable();
    (*out_) << "-- opened " << tokens[1] << ": "
            << durable->catalog().RelationNames().size()
            << " relations, checkpoint chk-" << durable->checkpoint_id()
            << ", recovered " << durable->stats().recovered_records
            << " wal records\n";
    return Status::OK();
  }
  if (verb == "CHECKPOINT") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("usage: CHECKPOINT");
    }
    durability::DurableCatalog* durable = machine_->durable();
    if (durable == nullptr) {
      return Status::NotFound(
          "no durable directory is open (use OPEN <dir> first)");
    }
    SYSTOLIC_RETURN_NOT_OK(durable->Checkpoint());
    (*out_) << "-- checkpoint chk-" << durable->checkpoint_id() << ": "
            << durable->catalog().RelationNames().size()
            << " relations, wal reset\n";
    return Status::OK();
  }
  if (verb == "HELP") {
    PrintHelp();
    return Status::OK();
  }
  if (verb == "EXPLAIN") {
    if (tokens.size() > 1) {
      // EXPLAIN <relational command>: plan and print, execute nothing.
      const std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
      if (!IsRelationalVerb(rest[0])) {
        return Status::InvalidArgument(
            "EXPLAIN expects a relational command, got '" + rest[0] + "'");
      }
      SYSTOLIC_ASSIGN_OR_RETURN(auto parsed, ParseRelational(rest));
      SYSTOLIC_ASSIGN_OR_RETURN(planner::PlannedTransaction planned,
                                Plan(parsed.first));
      PrintPrefixed(out_, planned.ToString());
      SYSTOLIC_RETURN_NOT_OK(PrintVerify(parsed.first, planned));
      PrintBackendPolicy();
      PrintMemoryPolicy();
      PrintFaultPolicy();
      PrintDurabilityPolicy();
      PrintSessionInfo();
      return Status::OK();
    }
    if (!in_transaction_) {
      return Status::InvalidArgument(
          "EXPLAIN works inside a transaction (or as EXPLAIN <command>)");
    }
    SYSTOLIC_ASSIGN_OR_RETURN(auto levels, pending_.Schedule(
        machine_->BufferNames()));
    (*out_) << "-- plan: " << pending_.steps().size() << " steps in "
            << levels.size() << " levels\n";
    for (size_t l = 0; l < levels.size(); ++l) {
      (*out_) << "   level " << l << ":";
      for (size_t s_idx : levels[l]) {
        (*out_) << " " << OpKindToString(pending_.steps()[s_idx].op) << "->"
                << pending_.steps()[s_idx].output;
      }
      (*out_) << "\n";
    }
    SYSTOLIC_ASSIGN_OR_RETURN(planner::PlannedTransaction planned,
                              Plan(pending_));
    PrintPrefixed(out_, planned.ToString());
    SYSTOLIC_RETURN_NOT_OK(PrintVerify(pending_, planned));
    PrintBackendPolicy();
    PrintMemoryPolicy();
    PrintFaultPolicy();
    PrintDurabilityPolicy();
    PrintSessionInfo();
    return Status::OK();
  }
  if (verb == "VERIFY") {
    if (tokens.size() > 1) {
      // VERIFY <relational command>: plan and statically verify, execute
      // nothing.
      const std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
      if (!IsRelationalVerb(rest[0])) {
        return Status::InvalidArgument(
            "VERIFY expects a relational command, got '" + rest[0] + "'");
      }
      SYSTOLIC_ASSIGN_OR_RETURN(auto parsed, ParseRelational(rest));
      SYSTOLIC_ASSIGN_OR_RETURN(planner::PlannedTransaction planned,
                                Plan(parsed.first));
      return PrintVerify(parsed.first, planned);
    }
    if (!in_transaction_) {
      return Status::InvalidArgument(
          "VERIFY works inside a transaction (or as VERIFY <command>)");
    }
    SYSTOLIC_ASSIGN_OR_RETURN(planner::PlannedTransaction planned,
                              Plan(pending_));
    return PrintVerify(pending_, planned);
  }
  if (verb == "COMMIT") {
    if (!in_transaction_) {
      return Status::InvalidArgument("no transaction to commit");
    }
    in_transaction_ = false;
    Transaction txn = std::move(pending_);
    pending_ = Transaction();
    if (planner_on_) return CommitPlanned(std::move(txn));
    SYSTOLIC_ASSIGN_OR_RETURN(TransactionReport report,
                              machine_->Execute(txn));
    (*out_) << "-- committed " << report.steps.size() << " steps: serial "
            << report.serial_seconds * 1e6 << " us, makespan "
            << report.makespan_seconds * 1e6 << " us, "
            << report.crossbar_configurations << " crossbar configs\n";
    if (machine_->config().device.faults != nullptr) {
      size_t faults = 0;
      size_t retries = 0;
      for (const StepReport& step : report.steps) {
        faults += step.exec.faults_detected;
        retries += step.exec.tile_retries;
      }
      (*out_) << "-- faults: " << faults << " detected, " << retries
              << " tile retries\n";
    }
    return PersistSinks(txn.SinkOutputs());
  }

  if (verb == "LOAD") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: LOAD <disk-name>");
    }
    SYSTOLIC_RETURN_NOT_OK(machine_->LoadFromDisk(tokens[1]));
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* loaded,
                              machine_->Buffer(tokens[1]));
    (*out_) << "-- loaded " << tokens[1] << ": " << loaded->num_tuples()
            << " tuples\n";
    return Status::OK();
  }
  if (verb == "PRINT") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: PRINT <name>");
    }
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation,
                              machine_->Buffer(tokens[1]));
    (*out_) << relation->ToString();
    return Status::OK();
  }
  if (verb == "STORE") {
    if (tokens.size() != 4 || tokens[2] != "AS") {
      return Status::InvalidArgument("usage: STORE <name> AS <disk-name>");
    }
    SYSTOLIC_RETURN_NOT_OK(machine_->WriteBackToDisk(tokens[1], tokens[3]));
    (*out_) << "-- stored " << tokens[1] << " as " << tokens[3] << "\n";
    return Status::OK();
  }
  if (verb == "RELEASE") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: RELEASE <name>");
    }
    return machine_->ReleaseBuffer(tokens[1]);
  }

  if (IsRelationalVerb(verb)) {
    SYSTOLIC_ASSIGN_OR_RETURN(auto parsed, ParseRelational(tokens));
    return Dispatch(std::move(parsed.first), parsed.second);
  }

  return Status::InvalidArgument("unknown command '" + verb + "'");
}

Status CommandInterpreter::ExecuteScript(std::istream& in) {
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const Status status = Execute(line);
    if (!status.ok()) {
      return Status(status.code(), "line " + std::to_string(line_number) +
                                       ": " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace machine
}  // namespace systolic
