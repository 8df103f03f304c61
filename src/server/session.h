#ifndef SYSTOLIC_SERVER_SESSION_H_
#define SYSTOLIC_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "server/scheduler.h"
#include "server/shared_catalog.h"
#include "system/command.h"
#include "system/machine.h"

namespace systolic {
namespace server {

/// One client's session state on the S24 server: a private §9 machine
/// (buffers, SET PLANNER/BACKEND/FAULTS/DURABILITY all scoped here) whose
/// engines drive the server's SHARED chip pool, whose reads see a pinned
/// immutable catalog image (snapshot isolation), and whose durable commits
/// flow through the shared cross-session group-commit pipeline.
///
/// Snapshot discipline: before every command executed OUTSIDE a transaction
/// the session re-pins the newest published image (an O(1) pointer swap —
/// a relation reaches the private disk unit lazily, when a LOAD actually
/// reads it, and shares the image's tuples rather than copying them);
/// between BEGIN and COMMIT the pin is frozen, so a
/// transaction's reads are repeatable and its COMMIT is conflict-checked
/// against exactly the snapshot it read. Commits that lose
/// first-committer-wins surface as Aborted — the transaction's effects stay
/// session-private and the client retries against a fresh snapshot.
///
/// A Session is used by ONE client thread at a time (the server enforces
/// this); cross-session state (catalog, scheduler, chip pool) is internally
/// synchronized. That single-driver discipline is why this class carries no
/// mutex and no GUARDED_BY annotations: the attach/steal protocol in
/// Server (Slot::attached under the kServer-rank mutex) hands the whole
/// session from one handler thread to the next, release-to-acquire, before
/// any field here is touched (DESIGN §2.10).
class Session {
 public:
  /// `catalog` and `scheduler` must outlive the session. `config` should
  /// carry the server's shared_pool and chip count.
  Session(uint64_t id, SharedCatalog* catalog, FairScheduler* scheduler,
          machine::MachineConfig config);

  uint64_t id() const { return id_; }

  /// The resume token this session is addressable by (DESIGN S26); minted by
  /// the server at admission.
  const std::string& token() const { return token_; }
  void set_token(std::string token) { token_ = std::move(token); }

  /// Executes one command line after admission through the fair-share
  /// scheduler; returns everything the command printed. The embedded entry
  /// point (tests, benches); network requests go through ExecuteRequest,
  /// whose ERR replies also carry what a failed command printed.
  Result<std::string> Execute(const std::string& line);

  /// One protocol-v2 request (DESIGN S26): the full wire payload for request
  /// `id`, plus how it was produced.
  struct RequestOutcome {
    /// "OK\n<output>", "ERR <status>\n<output>", or "RETRY <status>\n".
    std::string payload;
    /// Replayed from the reply cache (the id was already executed).
    bool from_cache = false;
    /// Answered from a WAL-recovered ack (committed before the last crash).
    bool recovered_dedup = false;
    /// Pre-execution admission bounce: the id was NOT consumed; the client
    /// must back off and resend the SAME id.
    bool retryable = false;
  };

  /// Executes request `id` exactly once. Ids are per-session and
  /// monotonically increasing; a resend of the last id replays the cached
  /// reply without re-execution, an id at or below the WAL-recovered ack
  /// high-water mark is answered "already committed", and anything else
  /// non-monotonic is an InvalidArgument protocol error. Only one in-flight
  /// request per session means caching the LAST reply suffices.
  Result<RequestOutcome> ExecuteRequest(uint64_t id, const std::string& line);

  /// Marks this session as resumed from crash recovery: requests up to
  /// `request_id` (which committed `records` relations) are deduplicated,
  /// and — the in-memory id sequence having died with the old process — the
  /// first incoming id above the mark is accepted unconditionally.
  void AdoptRecoveredAck(uint64_t request_id, uint64_t records);

  /// The last request id consumed (0 before any v2 request).
  uint64_t last_request_id() const { return last_request_id_; }

  /// Per-session durability counters: records THIS session pushed through
  /// the shared group-commit pipeline (never another session's).
  const durability::DurabilityStats& durability_stats() const {
    return durability_stats_;
  }

  /// The version this session's reads are pinned at.
  uint64_t snapshot_version() const { return pinned_version_; }

  machine::Machine& machine() { return machine_; }
  machine::CommandInterpreter& interpreter() { return interpreter_; }

 private:
  /// Pins the newest catalog image (O(1) — relations fault in lazily via
  /// the machine's disk source). Called only between transactions.
  void RefreshSnapshot();

  /// Runs one line on the interpreter once the snapshot is pinned and
  /// admission granted; the command status, with its output in out_.
  Status RunAdmitted(const std::string& line);

  uint64_t id_;
  std::string token_;
  SharedCatalog* catalog_;
  FairScheduler* scheduler_;
  machine::Machine machine_;
  std::ostringstream out_;
  machine::CommandInterpreter interpreter_;
  std::shared_ptr<const CatalogImage> pinned_;
  uint64_t pinned_version_ = 0;
  /// name -> image relation last mirrored onto the disk unit; pointer
  /// equality with the pinned entry means the disk copy is current.
  std::map<std::string, std::shared_ptr<const rel::Relation>> mirrored_;
  durability::DurabilityStats durability_stats_;

  // ---- S26 request-reliability state ----
  uint64_t last_request_id_ = 0;
  std::string last_reply_;
  bool have_last_reply_ = false;
  /// In-flight v2 request id, visible to the commit sink for WAL ack
  /// tagging; 0 outside ExecuteRequest (embedded commits go untagged).
  uint64_t current_request_id_ = 0;
  uint64_t recovered_ack_id_ = 0;
  uint64_t recovered_ack_records_ = 0;
  bool has_recovered_ack_ = false;
  /// True until the first v2 request is consumed: the first id initializes
  /// the sequence (a reconnecting client's ids continue where its previous
  /// session — possibly lost to a crash or reap — left off); monotonicity is
  /// enforced from then on.
  bool accept_any_first_id_ = true;
};

}  // namespace server
}  // namespace systolic

#endif  // SYSTOLIC_SERVER_SESSION_H_
