#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/strings.h"

namespace systolic {
namespace server {

namespace {

/// config knob -> Wire timeout argument (<= 0 disables the deadline).
int BudgetMs(int configured) { return configured > 0 ? configured : -1; }

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<Server>> Server::Create(ServerConfig config) {
  auto server = std::unique_ptr<Server>(new Server(std::move(config)));
  ServerConfig& cfg = server->config_;
  cfg.num_chips = std::max<size_t>(1, cfg.num_chips);
  if (cfg.num_chips > 1) {
    server->pool_ = std::make_shared<db::ChipPool>(cfg.num_chips);
  }
  cfg.machine.device.num_chips = cfg.num_chips;
  cfg.machine.shared_pool = server->pool_;
  if (cfg.durable_dir.empty()) {
    server->catalog_ = std::make_unique<SharedCatalog>();
  } else {
    SYSTOLIC_ASSIGN_OR_RETURN(
        server->catalog_, SharedCatalog::Open(cfg.durable_dir, cfg.durable_io));
  }
  const size_t concurrent = cfg.max_concurrent_plans == 0
                                ? cfg.num_chips
                                : cfg.max_concurrent_plans;
  server->scheduler_ =
      std::make_unique<FairScheduler>(concurrent, cfg.max_queued_plans);
  return server;
}

Server::~Server() {
  RequestShutdown();
  // Serve() joins its own threads; if it was never entered (embedded use or
  // shutdown raced the accept loop), join what remains here.
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(&mutex_);
    threads.swap(connection_threads_);
    reaper_stop_ = true;
  }
  reaper_cv_.NotifyAll();
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  if (reaper_.joinable()) reaper_.join();
}

std::string Server::MintTokenLocked() {
  for (;;) {
    std::string token = "b" + std::to_string(config_.boot_id) + "-s" +
                        std::to_string(token_nonce_++);
    uint64_t acked = 0;
    uint64_t records = 0;
    // Never collide with a live token or one the WAL remembers: a recovered
    // token still keys a crashed client's dedup claim.
    if (tokens_.count(token) == 0 &&
        !catalog_->RecoveredAckFor(token, &acked, &records)) {
      return token;
    }
  }
}

Result<std::shared_ptr<Session>> Server::AdmitLocked(bool network) {
  if (slots_.size() >= config_.max_sessions) {
    ++sessions_rejected_;
    return Status::Capacity(
        "server is full: " + std::to_string(slots_.size()) +
        " active sessions (limit " + std::to_string(config_.max_sessions) +
        ")");
  }
  const uint64_t id = next_session_id_++;
  auto session = std::make_shared<Session>(id, catalog_.get(),
                                           scheduler_.get(), config_.machine);
  session->set_token(MintTokenLocked());
  Slot slot;
  slot.session = session;
  slot.network = network;
  slot.last_active = Now();
  slots_.emplace(id, std::move(slot));
  tokens_[session->token()] = id;
  ++sessions_admitted_;
  return session;
}

Result<std::shared_ptr<Session>> Server::Connect() {
  util::MutexLock lock(&mutex_);
  return AdmitLocked(/*network=*/false);
}

Result<std::shared_ptr<Session>> Server::Resume(const std::string& token) {
  util::MutexLock lock(&mutex_);
  const auto tok = tokens_.find(token);
  if (tok != tokens_.end()) {
    const auto slot = slots_.find(tok->second);
    if (slot != slots_.end()) {
      ++sessions_resumed_;
      return slot->second.session;
    }
  }
  uint64_t acked = 0;
  uint64_t records = 0;
  if (catalog_->RecoveredAckFor(token, &acked, &records)) {
    SYSTOLIC_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                              AdmitLocked(/*network=*/false));
    tokens_.erase(session->token());
    session->set_token(token);
    tokens_[token] = session->id();
    session->AdoptRecoveredAck(acked, records);
    ++sessions_resumed_;
    return session;
  }
  return Status::NotFound("unknown session token '" + token +
                          "' (expired, reaped, or never issued)");
}

void Server::Disconnect(uint64_t session_id) {
  util::MutexLock lock(&mutex_);
  const auto it = slots_.find(session_id);
  if (it == slots_.end()) return;
  tokens_.erase(it->second.session->token());
  slots_.erase(it);
  slots_cv_.NotifyAll();
}

ServerStats Server::stats() const {
  ServerStats stats;
  {
    util::MutexLock lock(&mutex_);
    stats.sessions_admitted = sessions_admitted_;
    stats.sessions_rejected = sessions_rejected_;
    stats.active_sessions = slots_.size();
    stats.sessions_resumed = sessions_resumed_;
    stats.sessions_reaped = sessions_reaped_;
    stats.accept_retries = accept_retries_;
    stats.replies_from_cache = replies_from_cache_;
    stats.recovered_dedups = recovered_dedups_;
    stats.oversize_replies = oversize_replies_;
  }
  stats.scheduler = scheduler_->stats();
  stats.group_commit = catalog_->stats();
  return stats;
}

Status Server::Listen(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + ErrnoString(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IOError(std::string("bind: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status status =
        Status::IOError(std::string("getsockname: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  util::MutexLock lock(&mutex_);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status Server::Serve() {
  int listen_fd;
  {
    util::MutexLock lock(&mutex_);
    if (listen_fd_ < 0) {
      return Status::InvalidArgument("Serve before Listen");
    }
    listen_fd = listen_fd_;
    reaper_stop_ = false;
  }
  if (config_.idle_timeout_ms > 0) {
    reaper_ = std::thread([this] { ReaperLoop(); });
  }
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        // Transient: an aborted handshake or fd exhaustion must not kill the
        // accept loop permanently — back off briefly and keep serving.
        bool stopping;
        {
          util::MutexLock lock(&mutex_);
          stopping = shutdown_ || draining_;
          if (!stopping) ++accept_retries_;
        }
        if (stopping) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      break;  // listener closed by RequestShutdown/RequestDrain, or fatal
    }
    util::MutexLock lock(&mutex_);
    if (shutdown_ || draining_) {
      ::close(fd);
      break;
    }
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
  bool drain;
  {
    util::MutexLock lock(&mutex_);
    drain = draining_ && !shutdown_;
    if (!drain) {
      // Hard stop: tear every connection down; handlers unblock and exit.
      for (auto& [id, wire] : live_wires_) wire->ShutdownBoth();
    }
    // Drain: RequestDrain already unblocked idle connections and marked busy
    // ones close_after_reply; handlers finish their in-flight command, write
    // the reply, and exit on their own.
  }
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(&mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  {
    util::MutexLock lock(&mutex_);
    reaper_stop_ = true;
  }
  reaper_cv_.NotifyAll();
  if (reaper_.joinable()) reaper_.join();
  if (drain) {
    // Every handler has replied and returned; wait out the group-commit
    // leader so every acknowledged commit is fsync'd before Serve returns.
    catalog_->Quiesce();
  }
  return Status::OK();
}

void Server::RequestShutdown() {
  util::MutexLock lock(&mutex_);
  shutdown_ = true;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, wire] : live_wires_) wire->ShutdownBoth();
  reaper_cv_.NotifyAll();
  slots_cv_.NotifyAll();
}

void Server::RequestDrain() {
  util::MutexLock lock(&mutex_);
  if (shutdown_ || draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, slot] : slots_) {
    if (!slot.attached) continue;
    slot.close_after_reply = true;
    // Idle connections are parked in ReadFrame: unblock them now. Busy ones
    // finish their admitted command and see close_after_reply at the reply.
    if (!slot.busy && slot.wire != nullptr) slot.wire->ShutdownBoth();
  }
  reaper_cv_.NotifyAll();
  slots_cv_.NotifyAll();
}

void Server::ReaperLoop() {
  const auto idle = std::chrono::milliseconds(config_.idle_timeout_ms);
  const auto tick =
      std::max(std::chrono::milliseconds(10),
               std::chrono::milliseconds(config_.idle_timeout_ms / 4));
  util::MutexLock lock(&mutex_);
  while (!reaper_stop_) {
    // Pacing sleep guarded by the loop predicate: timeout and notify both
    // fall through to a sweep (idempotent; a drain/shutdown notify just
    // sweeps early), and reaper_stop_ is re-checked under mutex_ before
    // every sleep, so a stop can never be missed.
    (void)reaper_cv_.WaitFor(&mutex_, tick);
    if (reaper_stop_) break;
    const auto now = Now();
    for (auto it = slots_.begin(); it != slots_.end();) {
      Slot& slot = it->second;
      // Only detached NETWORK sessions: embedded sessions are driven by
      // caller threads on their own schedule, and attached ones are covered
      // by the connection's own idle deadline.
      if (slot.network && !slot.attached && now - slot.last_active >= idle) {
        tokens_.erase(slot.session->token());
        it = slots_.erase(it);
        ++sessions_reaped_;
      } else {
        ++it;
      }
    }
  }
}

Status Server::WriteReply(Wire& wire, const std::string& payload) {
  const int io = BudgetMs(config_.io_timeout_ms);
  const size_t limit = config_.max_reply_bytes == 0
                           ? kMaxFrameBytes
                           : std::min(config_.max_reply_bytes, kMaxFrameBytes);
  if (payload.size() <= limit) {
    Status wrote = WriteFrame(wire, payload, io);
    if (!wrote.IsCapacity()) return wrote;
  }
  // An oversized reply (a PRINT bigger than the frame limit) must not
  // silently kill the connection: substitute a well-formed truncated ERR
  // carrying a prefix of the output.
  {
    util::MutexLock lock(&mutex_);
    ++oversize_replies_;
  }
  const size_t nl = payload.find('\n');
  std::string body =
      nl == std::string::npos ? "" : payload.substr(nl + 1, 4096);
  if (!body.empty() && body.back() != '\n') body += '\n';
  std::string err =
      "ERR " +
      Status::Capacity("reply of " + std::to_string(payload.size()) +
                       " bytes exceeds the " + std::to_string(limit) +
                       "-byte frame limit; output truncated")
          .ToString() +
      "\n" + body + "-- output truncated to the first 4096 bytes\n";
  return WriteFrame(wire, err, io);
}

void Server::HandleConnection(int fd) {
  PosixWire wire(fd);
  uint64_t wire_id;
  {
    util::MutexLock lock(&mutex_);
    wire_id = next_wire_id_++;
    live_wires_[wire_id] = &wire;
  }
  const int io = BudgetMs(config_.io_timeout_ms);
  bool clean_eof = false;
  Result<std::string> first =
      ReadFrame(wire, &clean_eof, BudgetMs(config_.idle_timeout_ms), io);
  std::string token;
  if (first.ok() && ParseHello(*first, &token)) {
    HandleV2(wire, token);
  } else if (first.ok()) {
    // Not a HELLO: refuse before admitting anything, so a stray peer never
    // holds a session slot and a bare SHUTDOWN or DRAIN controls nothing.
    const Status refused =
        Status::InvalidArgument("the first frame must be HELLO v2 [<token>]");
    (void)WriteFrame(wire, "ERR " + refused.ToString() + "\n", io);
  } else if (first.status().IsDataCorruption()) {
    // Unframeable garbage: the stream cannot be resynchronised, but the
    // offender still gets a clean verdict before the close.
    (void)WriteFrame(wire, "ERR " + first.status().ToString() + "\n", io);
  }
  util::MutexLock lock(&mutex_);
  live_wires_.erase(wire_id);
}

Result<std::shared_ptr<Session>> Server::AttachV2(const std::string& token,
                                                  Wire* wire) {
  for (;;) {
    if (shutdown_ || draining_) {
      return Status::Unavailable("server is stopping");
    }
    if (token.empty()) break;  // fresh admission below
    const auto tok = tokens_.find(token);
    if (tok == tokens_.end()) {
      uint64_t acked = 0;
      uint64_t records = 0;
      if (catalog_->RecoveredAckFor(token, &acked, &records)) {
        // The session died with the previous incarnation, but its commits'
        // acks survived in the WAL: resume into a fresh session primed to
        // deduplicate any retried committed request.
        SYSTOLIC_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                                  AdmitLocked(/*network=*/true));
        tokens_.erase(session->token());
        session->set_token(token);
        tokens_[token] = session->id();
        session->AdoptRecoveredAck(acked, records);
        Slot& slot = slots_[session->id()];
        slot.attached = true;
        slot.wire = wire;
        slot.last_active = Now();
        ++sessions_resumed_;
        return session;
      }
      return Status::NotFound("unknown session token '" + token +
                              "' (expired, reaped, or never issued)");
    }
    const auto it = slots_.find(tok->second);
    if (it == slots_.end()) continue;
    Slot& slot = it->second;
    if (!slot.attached) {
      slot.attached = true;
      slot.network = true;
      slot.wire = wire;
      slot.last_active = Now();
      ++sessions_resumed_;
      return slot.session;
    }
    // Steal: the token holder reconnected (its old connection is dead or
    // dying). Tear the old attachment down and wait for its handler to
    // finish any in-flight command and detach — the reply lands in the cache
    // for the retry. Predicate-guarded: sleep only while the stolen slot is
    // still attached; a spurious wakeup re-checks and goes back to sleep
    // instead of racing the old handler for the slot.
    slot.close_after_reply = true;
    if (slot.wire != nullptr) slot.wire->ShutdownBoth();
    while (!shutdown_ && !draining_) {
      const auto t = tokens_.find(token);
      if (t == tokens_.end()) break;  // reaped/disconnected while we slept
      const auto s = slots_.find(t->second);
      if (s == slots_.end() || !s->second.attached) break;
      slots_cv_.Wait(&mutex_);
    }
    // Loop back and re-evaluate from scratch: the slot may have detached,
    // vanished entirely, or the server may be stopping.
  }
  SYSTOLIC_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                            AdmitLocked(/*network=*/true));
  Slot& slot = slots_[session->id()];
  slot.attached = true;
  slot.wire = wire;
  slot.last_active = Now();
  return session;
}

void Server::ReleaseV2(uint64_t session_id, bool disconnect) {
  util::MutexLock lock(&mutex_);
  const auto it = slots_.find(session_id);
  if (it != slots_.end()) {
    Slot& slot = it->second;
    slot.attached = false;
    slot.busy = false;
    slot.close_after_reply = false;
    slot.wire = nullptr;
    slot.last_active = Now();
    if (disconnect || shutdown_ || draining_) {
      tokens_.erase(slot.session->token());
      slots_.erase(it);
    }
  }
  slots_cv_.NotifyAll();
}

void Server::HandleV2(Wire& wire, const std::string& token) {
  const int io = BudgetMs(config_.io_timeout_ms);
  std::shared_ptr<Session> session;
  {
    util::MutexLock lock(&mutex_);
    Result<std::shared_ptr<Session>> attached = AttachV2(token, &wire);
    if (!attached.ok()) {
      const Status status = attached.status();
      lock.Unlock();
      // Admission pressure is retryable (same HELLO, later); everything else
      // (unknown token, stopping server) is a hard verdict.
      const char* verdict = status.IsCapacity() ? "RETRY " : "ERR ";
      (void)WriteFrame(wire, verdict + status.ToString() + "\n", io);
      return;
    }
    session = std::move(attached).ValueOrDie();
  }
  const uint64_t sid = session->id();
  if (!WriteReply(wire, "OK\ntoken " + session->token() + " last " +
                            std::to_string(session->last_request_id()) +
                            "\n")
           .ok()) {
    ReleaseV2(sid, /*disconnect=*/false);
    return;
  }
  bool disconnect = false;
  for (;;) {
    bool clean_eof = false;
    Result<std::string> frame =
        ReadFrame(wire, &clean_eof, BudgetMs(config_.idle_timeout_ms), io);
    if (!frame.ok()) {
      if (frame.status().IsDataCorruption()) {
        (void)WriteFrame(wire, "ERR " + frame.status().ToString() + "\n", io);
      }
      if (IsWireTimeout(frame.status())) {
        // Slow loris: the connection idled out. Free the admission slot now.
        util::MutexLock lock(&mutex_);
        ++sessions_reaped_;
        disconnect = true;
      }
      // A clean EOF without BYE or a torn stream both detach: the client may
      // be mid-reconnect and will resume by token.
      break;
    }
    if (*frame == "BYE") {
      (void)WriteReply(wire, "OK\n-- goodbye\n");
      disconnect = true;
      break;
    }
    if (*frame == "SHUTDOWN") {
      (void)WriteReply(wire, "OK\n-- server stopping\n");
      RequestShutdown();
      disconnect = true;
      break;
    }
    if (*frame == "DRAIN") {
      (void)WriteReply(wire, "OK\n-- server draining\n");
      RequestDrain();
      disconnect = true;
      break;
    }
    uint64_t id = 0;
    std::string line;
    if (!ParseRequest(*frame, &id, &line)) {
      (void)WriteReply(
          wire, "ERR " +
                    Status::InvalidArgument(
                        "malformed v2 frame (expected REQ <id>\\n<command>)")
                        .ToString() +
                    "\n");
      break;  // detach; a correct client can still resume
    }
    {
      util::MutexLock lock(&mutex_);
      const auto it = slots_.find(sid);
      if (it != slots_.end()) {
        it->second.busy = true;
        it->second.last_active = Now();
      }
    }
    Result<Session::RequestOutcome> outcome = session->ExecuteRequest(id, line);
    bool close_now = false;
    {
      util::MutexLock lock(&mutex_);
      const auto it = slots_.find(sid);
      if (it != slots_.end()) {
        it->second.busy = false;
        it->second.last_active = Now();
        close_now = it->second.close_after_reply;
      }
      if (outcome.ok() && outcome->from_cache) ++replies_from_cache_;
      if (outcome.ok() && outcome->recovered_dedup) ++recovered_dedups_;
    }
    slots_cv_.NotifyAll();
    if (!outcome.ok()) {
      // Protocol violation (non-monotonic id): verdict, then detach.
      (void)WriteReply(wire, "ERR " + outcome.status().ToString() + "\n");
      break;
    }
    if (!WriteReply(wire, outcome->payload).ok()) break;
    if (close_now) break;
  }
  ReleaseV2(sid, disconnect);
}

Result<Client::Reply> ParseReplyPayload(const std::string& payload) {
  const size_t newline = payload.find('\n');
  const std::string verdict =
      newline == std::string::npos ? payload : payload.substr(0, newline);
  Client::Reply reply;
  reply.output =
      newline == std::string::npos ? "" : payload.substr(newline + 1);
  if (verdict == "OK") {
    reply.ok = true;
  } else if (verdict.rfind("ERR ", 0) == 0) {
    reply.error = verdict.substr(4);
  } else {
    return Status::DataCorruption("malformed reply verdict '" + verdict +
                                  "'");
  }
  return reply;
}

}  // namespace server
}  // namespace systolic
