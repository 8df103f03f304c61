#ifndef SYSTOLIC_SYSTEM_COMMAND_H_
#define SYSTOLIC_SYSTEM_COMMAND_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "planner/physical.h"
#include "system/machine.h"
#include "util/status.h"

namespace systolic {
namespace machine {

/// Hooks the S24 server installs on a session's interpreter so the command
/// layer can surface the session it runs inside: EXPLAIN/HELP print the
/// session line and SET SESSION introspects it.
struct SessionContext {
  uint64_t session_id = 0;
  /// Human-readable isolation mode ("snapshot" for server sessions).
  std::string isolation = "none";
};

/// A line-oriented command language over the §9 machine, for the query
/// shell example and scripted end-to-end tests. One relational command = one
/// single-step transaction on the machine (operands and results live in the
/// machine's memory modules). Columns are referred to by name; constants are
/// parsed per the column's domain type (int64 literals, bare strings,
/// true/false).
///
/// Commands (case-sensitive keywords; '#' starts a comment):
///   LOAD <disk-name>
///   INTERSECT <a> <b> -> <out>
///   DIFFERENCE <a> <b> -> <out>
///   UNION <a> <b> -> <out>
///   DEDUP <in> -> <out>
///   PROJECT <in> <col>[,<col>...] -> <out>
///   SELECT <in> WHERE <col> <op> <value> [AND <col> <op> <value>...] -> <out>
///   JOIN <a> <b> ON <colA> <op> <colB> -> <out>
///   DIVIDE <a> <b> ON <colA> = <colB> -> <out>
///   PRINT <name>
///   STORE <name> AS <disk-name>
///   RELEASE <name>
///   OPEN <dir> | CHECKPOINT | SET DURABILITY on|off
///   VERIFY [<relational command>]
///   HELP
/// where <op> is one of = != < <= > >=.
///
/// Verification: VERIFY <command> (anywhere) or bare VERIFY (inside a
/// transaction, over the pending steps) plans the command and runs the S22
/// static verifier — typing, §3.2/§8 schedule invariants, and re-proof of
/// the planner's rewrite certificates — printing a one-line report without
/// executing anything. EXPLAIN prints the same "-- verify:" line. Failures
/// name the rejecting pass, the offending node and the violated invariant.
///
/// Durability: OPEN attaches a crash-safe catalog directory (DESIGN S21) —
/// creating it, or recovering checkpoint + WAL tail after a crash. From
/// then on STORE and the sink outputs of every committed command/transaction
/// are WAL-logged and fsync'd before the shell acknowledges (a transaction's
/// sinks form one atomic group), CHECKPOINT rewrites the catalog with the
/// atomic rename-swap protocol and resets the WAL, and SET DURABILITY off
/// suspends logging (the hot path reverts to the in-memory one). OPEN and
/// CHECKPOINT belong to the embedded shell: a server session commits
/// through the server's shared catalog and has no directory of its own.
///
/// Transactions: by default each relational command runs immediately as a
/// one-step transaction. Between BEGIN and COMMIT, relational commands are
/// collected instead and executed together on COMMIT, so independent steps
/// run concurrently on the machine's device pools (§9). ABORT discards the
/// pending steps. Inside a transaction, PROJECT/SELECT/JOIN/DIVIDE operands
/// may also name pending step outputs: their column names resolve through
/// the planner's annotated logical plan of the queued steps.
///
/// Planning: COMMIT runs the pending transaction through the cost-based
/// query planner (src/planner) by default — semantics-preserving rewrites,
/// feed-mode hints, and LPT-friendly step ordering; result buffers are
/// bit-identical to the literal path. SET PLANNER off|on toggles this
/// (off = execute the steps exactly as written). EXPLAIN inside a
/// transaction prints the dependency levels plus the planner's before/after
/// logical plans and the costed physical plan, without executing;
/// EXPLAIN <relational command> does the same for a single command anywhere.
class CommandInterpreter {
 public:
  /// Does not take ownership; `out` receives PRINT output and per-command
  /// execution summaries.
  CommandInterpreter(Machine* machine, std::ostream* out)
      : machine_(machine), out_(out) {}

  /// Executes one command line. Blank lines and comments succeed as no-ops.
  Status Execute(const std::string& line);

  /// Executes every line of `in`, stopping at the first error (which is
  /// returned annotated with its line number).
  Status ExecuteScript(std::istream& in);

  bool planner_enabled() const { return planner_on_; }
  void set_planner_enabled(bool on) { planner_on_ = on; }

  /// True between BEGIN and COMMIT/ABORT; the server defers snapshot
  /// refreshes while a transaction is open so its reads stay repeatable.
  bool in_transaction() const { return in_transaction_; }

  /// Installs (or clears, with an empty optional-like default) the session
  /// hooks; owned by the server, must outlive the interpreter's use.
  void set_session(SessionContext context) {
    session_ = std::move(context);
    has_session_ = true;
  }

 private:
  Status RunStep(Transaction transaction, const std::string& output);
  /// Routes a parsed one-step transaction: executes it immediately, or
  /// appends it to the pending transaction inside BEGIN/COMMIT.
  Status Dispatch(Transaction transaction, const std::string& output);
  /// COMMIT through the planner: plan, execute, report estimated vs
  /// measured pulses, release planner temp buffers.
  Status CommitPlanned(Transaction txn);
  /// SET FAULTS off | SET FAULTS seed=<n> [rate=<r>] [dead=<c,...>]
  /// [strikes=<n>] [shadow=<r>]: installs or clears a fault plan on every
  /// device of the machine.
  Status SetFaults(const std::vector<std::string>& tokens);
  /// Appends ", F faults, R retries, H/C chips" to an execution summary
  /// line when a fault plan is installed; no-op otherwise.
  void PrintFaultCounters(const db::ExecStats& exec);
  /// One "-- faults: ..." line describing the installed plan and recovery
  /// policy (printed by EXPLAIN); no-op without a plan.
  void PrintFaultPolicy();

  /// "-- backend: ..." line for EXPLAIN; silent on the default (rtl)
  /// backend, matching PrintFaultPolicy's silence on perfect hardware.
  void PrintBackendPolicy();

  /// "-- memory: ..." scratchpad overlap-policy line for EXPLAIN; printed
  /// under every policy, the default (overlap on) included.
  void PrintMemoryPolicy();
  /// Durably commits the named buffers as one atomic WAL group, mirrors
  /// them to the modeled disk and prints a "-- durability:" line; no-op
  /// (and silent) when durability is off.
  Status PersistSinks(const std::vector<std::string>& sinks);
  /// One "-- durability: ..." line describing the open session (printed by
  /// EXPLAIN); no-op without one.
  void PrintDurabilityPolicy();
  /// One "-- session: ..." line (id, isolation); no-op outside a server
  /// session.
  void PrintSessionInfo();
  /// SET SESSION <key> ...: introspection over the server session; unknown
  /// keys name the valid ones (PR 4/6 error-message convention).
  Status SetSession(const std::vector<std::string>& tokens);
  /// Runs the S22 static verifier over `planned`, the plan of `txn`
  /// (certificates against the catalog, then typing + timing) and prints
  /// its one-line report; rejects with kVerifyFailed naming pass, node and
  /// invariant.
  Status PrintVerify(const Transaction& txn,
                     const planner::PlannedTransaction& planned);
  /// The HELP verb: one line per command family.
  void PrintHelp();

  /// True for the relational verbs ParseRelational understands.
  static bool IsRelationalVerb(const std::string& verb);
  /// Parses one relational command (tokens start at the verb) into a
  /// single-step transaction plus its output buffer name.
  Result<std::pair<Transaction, std::string>> ParseRelational(
      const std::vector<std::string>& tokens);

  /// Snapshot of the machine's buffers as the planner's catalog: every
  /// buffer's name, schema and count, since Transaction::Schedule checks
  /// output names against all of them. Duplicate-freedom costs a sort, so
  /// it is proven only for the buffers some step of `txn` reads; the rest
  /// read as unproven.
  Result<std::map<std::string, planner::InputInfo>> Catalog(
      const Transaction& txn) const;
  /// Schema of `name`: a materialised buffer, or — inside a transaction — a
  /// pending step's output (derived via the planner's logical plan).
  Result<rel::Schema> OperandSchema(const std::string& name) const;
  /// Plans `txn` against the current catalog and machine device shapes.
  Result<planner::PlannedTransaction> Plan(const Transaction& txn) const;

  Machine* machine_;
  std::ostream* out_;
  bool in_transaction_ = false;
  bool planner_on_ = true;
  Transaction pending_;
  bool has_session_ = false;
  SessionContext session_;
};

}  // namespace machine
}  // namespace systolic

#endif  // SYSTOLIC_SYSTEM_COMMAND_H_
