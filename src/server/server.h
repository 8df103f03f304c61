#ifndef SYSTOLIC_SERVER_SERVER_H_
#define SYSTOLIC_SERVER_SERVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/shared_catalog.h"
#include "system/machine.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace systolic {
namespace server {

/// Shape of the S24 server (+ the S26 reliability knobs).
struct ServerConfig {
  /// Per-session machine shape (memories, device sizes, planner defaults).
  /// The server overrides device.num_chips and shared_pool to point every
  /// session at the one shared pool.
  machine::MachineConfig machine;
  /// Chips in the shared pool (>= 1).
  size_t num_chips = 1;
  /// Concurrent client sessions admitted; further Connects get Capacity.
  size_t max_sessions = 64;
  /// Plans running on the pool at once; 0 = num_chips.
  size_t max_concurrent_plans = 0;
  /// Bounded admission queue beyond the running plans.
  size_t max_queued_plans = 64;
  /// Crash-safe catalog directory; empty = in-memory shared catalog.
  std::string durable_dir;
  /// Io (optionally carrying a CrashInjector) for the durable catalog — the
  /// chaos fuzzer cuts the server's write path through this.
  durability::Io durable_io;
  /// Idle budget (ms): a connection that sends no frame for this long is
  /// closed, and a detached (resumable) session idle this long is reaped —
  /// a slow-loris client cannot pin an admission slot. <= 0 disables both.
  int idle_timeout_ms = 30'000;
  /// Per-poll IO budget (ms) once a frame is in flight, for reads AND
  /// writes; <= 0 means no budget (block indefinitely).
  int io_timeout_ms = 10'000;
  /// Replies longer than this are truncated into a well-formed ERR frame
  /// instead of killing the connection. 0 = the wire's own kMaxFrameBytes;
  /// tests lower it to exercise the truncation path cheaply.
  size_t max_reply_bytes = 0;
  /// Stamped into resume tokens ("b<boot>-s<n>"). Give each incarnation
  /// over one durable directory a distinct boot id so fresh tokens cannot
  /// collide with tokens recovered from the WAL (minting also skips
  /// recovered tokens, so any value is safe — this just keeps them tidy).
  uint64_t boot_id = 1;
};

/// Server-wide counters (DESIGN S24 + the S26 reliability layer).
/// Per-session ExecStats live in the sessions.
struct ServerStats {
  size_t sessions_admitted = 0;
  size_t sessions_rejected = 0;
  size_t active_sessions = 0;
  /// v2 reconnects that re-attached an existing or recovered session.
  size_t sessions_resumed = 0;
  /// Sessions disconnected by the idle-timeout reaper.
  size_t sessions_reaped = 0;
  /// Transient accept() failures retried instead of killing Serve.
  size_t accept_retries = 0;
  /// Retried request ids answered from the per-session reply cache.
  size_t replies_from_cache = 0;
  /// Retried request ids answered from WAL-recovered acks (post-crash).
  size_t recovered_dedups = 0;
  /// Replies exceeding the frame limit, truncated instead of dropped.
  size_t oversize_replies = 0;
  FairScheduler::Stats scheduler;
  GroupCommitStats group_commit;
};

/// The concurrent multi-session front end over one shared §9 machine
/// substrate (DESIGN S24), hardened for real networks by the S26
/// request-reliability layer: protocol-v2 request ids with a per-session
/// reply cache (exactly-once effects under at-least-once delivery, WAL-acked
/// across crashes), poll-guarded deadlines on every read/write, idle-session
/// reaping, resumable sessions (a torn connection detaches its session; a
/// HELLO with the session token re-attaches it), and a graceful DRAIN mode
/// next to the hard SHUTDOWN.
///
/// Embedded use (tests, benches): Create + Connect/Resume, drive sessions
/// from your own threads. Network use: Listen + Serve accept length-framed
/// connections ([u32 LE payload length][payload]) speaking protocol v2 —
/// see protocol.h for the frame grammar; a connection whose first frame is
/// not a HELLO gets one ERR frame and is closed.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits a new session (Capacity beyond max_sessions). The session is
  /// driven by ONE caller thread at a time; its token() can Resume it later.
  Result<std::shared_ptr<Session>> Connect() EXCLUDES(mutex_);

  /// Re-attaches the session named by `token`: a live detached session, or —
  /// after a crash — a fresh session primed with the WAL-recovered ack
  /// high-water mark so retried commits are deduplicated. NotFound for an
  /// unknown token; Capacity when a fresh admission would exceed the limit.
  Result<std::shared_ptr<Session>> Resume(const std::string& token)
      EXCLUDES(mutex_);

  /// Releases a session's slot.
  void Disconnect(uint64_t session_id) EXCLUDES(mutex_);

  SharedCatalog& catalog() { return *catalog_; }
  FairScheduler& scheduler() { return *scheduler_; }
  ServerStats stats() const EXCLUDES(mutex_);

  /// Binds and listens on `port` (0 = ephemeral); port() reports the bound
  /// one.
  Status Listen(uint16_t port) EXCLUDES(mutex_);
  uint16_t port() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return port_;
  }

  /// Accept loop: one thread per connection, one session per connection.
  /// Blocks until RequestShutdown / RequestDrain (or the protocol SHUTDOWN /
  /// DRAIN lines). Shutdown tears every connection down immediately; drain
  /// stops accepting, lets every in-flight command finish and be replied to,
  /// waits for the cross-session group commit to quiesce, then closes. Call
  /// from the owning thread after Listen.
  Status Serve();

  /// Asynchronously stops Serve (hard): safe from any thread, including a
  /// connection handler.
  void RequestShutdown();

  /// Asynchronously drains Serve (graceful): stop accepting, finish
  /// in-flight commands, flush group commit, close.
  void RequestDrain();

 private:
  explicit Server(ServerConfig config);

  /// Per-session bookkeeping guarded by mutex_. `attached` = a network
  /// handler owns the session now; detached network sessions are resumable
  /// until the reaper collects them.
  struct Slot {
    std::shared_ptr<Session> session;
    bool attached = false;
    bool busy = false;  ///< Executing a command right now.
    bool close_after_reply = false;  ///< Drain/steal: finish, reply, close.
    bool network = false;  ///< Ever network-attached (reapable).
    Wire* wire = nullptr;  ///< Attached connection's wire (for steal/drain).
    std::chrono::steady_clock::time_point last_active;
  };

  void HandleConnection(int fd) EXCLUDES(mutex_);
  /// The v2 session loop (after a HELLO); `token` empty = new session.
  void HandleV2(Wire& wire, const std::string& token) EXCLUDES(mutex_);

  /// Writes `payload`, substituting a well-formed truncated ERR reply when
  /// it exceeds the frame limit (the connection survives oversized PRINTs).
  Status WriteReply(Wire& wire, const std::string& payload) EXCLUDES(mutex_);

  /// Admission + slot/token bookkeeping; caller holds mutex_.
  Result<std::shared_ptr<Session>> AdmitLocked(bool network)
      REQUIRES(mutex_);
  /// Resumes `token` from the WAL: its session died with the previous
  /// incarnation, but its commits' acks survived, so a fresh session takes
  /// over the token primed to deduplicate any retried committed request.
  /// NotFound when the WAL holds no ack for `token`.
  Result<std::shared_ptr<Session>> ResumeRecoveredLocked(
      const std::string& token, bool network) REQUIRES(mutex_);
  /// Mints "b<boot>-s<n>", skipping live and WAL-recovered tokens. Calls
  /// into the shared catalog under mutex_ — legal because kServer is
  /// ACQUIRED_BEFORE kSharedCatalog in the lock hierarchy (DESIGN §2.10).
  std::string MintTokenLocked() REQUIRES(mutex_);
  /// Attach (or steal) the v2 session for `token`; empty = admit new.
  /// Returns the session, waiting out a concurrent handler on a steal
  /// (mutex_ is released while waiting, like every CondVar wait).
  Result<std::shared_ptr<Session>> AttachV2(const std::string& token,
                                            Wire* wire) REQUIRES(mutex_);
  /// Detach-or-disconnect at v2 handler exit.
  void ReleaseV2(uint64_t session_id, bool disconnect) EXCLUDES(mutex_);

  void ReaperLoop() EXCLUDES(mutex_);

  ServerConfig config_;
  std::shared_ptr<db::ChipPool> pool_;
  std::unique_ptr<SharedCatalog> catalog_;
  std::unique_ptr<FairScheduler> scheduler_;
  /// Bumped by the sessions themselves; atomic, so not under mutex_.
  DedupCounters dedup_;

  /// kServer: the OUTERMOST rank — handler threads hold mutex_ while
  /// calling into the shared catalog (MintTokenLocked → RecoveredAckFor).
  mutable util::Mutex mutex_{util::LockRank::kServer, "server"};
  /// Woken when a slot detaches, a session disconnects, or drain/shutdown
  /// starts; steal waits and the Serve drain barrier sleep on it.
  util::CondVar slots_cv_;
  uint64_t next_session_id_ GUARDED_BY(mutex_) = 1;
  uint64_t token_nonce_ GUARDED_BY(mutex_) = 1;
  std::map<uint64_t, Slot> slots_ GUARDED_BY(mutex_);
  /// token -> session id.
  std::map<std::string, uint64_t> tokens_ GUARDED_BY(mutex_);
  size_t sessions_admitted_ GUARDED_BY(mutex_) = 0;
  size_t sessions_rejected_ GUARDED_BY(mutex_) = 0;
  size_t sessions_resumed_ GUARDED_BY(mutex_) = 0;
  size_t sessions_reaped_ GUARDED_BY(mutex_) = 0;
  size_t accept_retries_ GUARDED_BY(mutex_) = 0;
  size_t oversize_replies_ GUARDED_BY(mutex_) = 0;

  int listen_fd_ GUARDED_BY(mutex_) = -1;
  uint16_t port_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
  bool draining_ GUARDED_BY(mutex_) = false;
  uint64_t next_wire_id_ GUARDED_BY(mutex_) = 1;
  std::map<uint64_t, Wire*> live_wires_ GUARDED_BY(mutex_);
  std::vector<std::thread> connection_threads_ GUARDED_BY(mutex_);
  /// Started by Serve, joined by Serve/~Server — only the owning thread
  /// touches the thread object itself, so it is not guarded.
  std::thread reaper_;
  util::CondVar reaper_cv_;
  bool reaper_stop_ GUARDED_BY(mutex_) = false;
};

/// Scope of Reply, one command's verdict as ReliableClient::Execute returns
/// it. The connection itself is ReliableClient (reliable_client.h), the one
/// client of protocol v2.
struct Client {
  /// One command's round trip.
  struct Reply {
    bool ok = false;
    /// The status text after "ERR " (empty when ok).
    std::string error;
    /// Everything the command printed on the server.
    std::string output;
  };
};

/// Splits a reply payload into Client::Reply; DataCorruption on a malformed
/// verdict line. ReliableClient parses every HELLO ack and reply with it.
Result<Client::Reply> ParseReplyPayload(const std::string& payload);

}  // namespace server
}  // namespace systolic

#endif  // SYSTOLIC_SERVER_SERVER_H_
