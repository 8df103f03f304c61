#include "server/protocol.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "faults/fault_plan.h"
#include "util/strings.h"

namespace systolic {
namespace server {

namespace {

constexpr char kTimeoutTag[] = "wire deadline expired";

Status TimeoutStatus(const char* op) {
  return Status::IOError(std::string(kTimeoutTag) + " during " + op);
}

/// Polls `fd` for `events`; OK when ready, timeout/IOError otherwise.
Status PollFor(int fd, short events, int timeout_ms, const char* op) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + ErrnoString(errno));
    }
    if (ready == 0) return TimeoutStatus(op);
    // POLLERR/POLLHUP fall through: the recv/send that follows reports the
    // precise verdict (EOF vs ECONNRESET).
    return Status::OK();
  }
}

}  // namespace

bool IsWireTimeout(const Status& status) {
  return status.IsIOError() &&
         status.message().rfind(kTimeoutTag, 0) == 0;
}

// ---- PosixWire -------------------------------------------------------------

PosixWire::PosixWire(int fd) : fd_(fd) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

PosixWire::~PosixWire() { Close(); }

Result<std::unique_ptr<PosixWire>> PosixWire::Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + ErrnoString(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IOError(std::string("connect: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  return std::make_unique<PosixWire>(fd);
}

Result<size_t> PosixWire::Send(const char* data, size_t size, int timeout_ms) {
  if (fd_ < 0) return Status::IOError("send on a closed wire");
  for (;;) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return Status::IOError("send wrote zero bytes");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SYSTOLIC_RETURN_NOT_OK(PollFor(fd_, POLLOUT, timeout_ms, "send"));
      continue;
    }
    return Status::IOError(std::string("send: ") + ErrnoString(errno));
  }
}

Result<size_t> PosixWire::Recv(char* data, size_t size, int timeout_ms) {
  if (fd_ < 0) return Status::IOError("recv on a closed wire");
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SYSTOLIC_RETURN_NOT_OK(PollFor(fd_, POLLIN, timeout_ms, "recv"));
      continue;
    }
    return Status::IOError(std::string("recv: ") + ErrnoString(errno));
  }
}

void PosixWire::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void PosixWire::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- framing ---------------------------------------------------------------

namespace {

Status SendAll(Wire& wire, const char* data, size_t size, int timeout_ms) {
  size_t sent = 0;
  while (sent < size) {
    SYSTOLIC_ASSIGN_OR_RETURN(
        const size_t n, wire.Send(data + sent, size - sent, timeout_ms));
    sent += n;
  }
  return Status::OK();
}

/// NotFound = clean end-of-stream before any byte. The first byte waits up
/// to `first_timeout_ms`; later bytes each wait up to `timeout_ms`.
Status RecvAll(Wire& wire, char* data, size_t size, bool* clean_eof,
               int first_timeout_ms, int timeout_ms) {
  size_t got = 0;
  while (got < size) {
    SYSTOLIC_ASSIGN_OR_RETURN(
        const size_t n,
        wire.Recv(data + got, size - got,
                  got == 0 ? first_timeout_ms : timeout_ms));
    if (n == 0) {
      if (clean_eof != nullptr && got == 0) {
        *clean_eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::IOError("connection closed mid-frame");
    }
    got += n;
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(Wire& wire, const std::string& payload, int timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::Capacity("frame exceeds " + std::to_string(kMaxFrameBytes) +
                            " bytes");
  }
  const uint32_t size = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>(size & 0xff),
                    static_cast<char>((size >> 8) & 0xff),
                    static_cast<char>((size >> 16) & 0xff),
                    static_cast<char>((size >> 24) & 0xff)};
  SYSTOLIC_RETURN_NOT_OK(SendAll(wire, header, sizeof(header), timeout_ms));
  return SendAll(wire, payload.data(), payload.size(), timeout_ms);
}

Result<std::string> ReadFrame(Wire& wire, bool* clean_eof,
                              int first_byte_timeout_ms, int timeout_ms) {
  char header[4];
  SYSTOLIC_RETURN_NOT_OK(RecvAll(wire, header, sizeof(header), clean_eof,
                                 first_byte_timeout_ms, timeout_ms));
  const uint32_t size = static_cast<uint32_t>(
      static_cast<unsigned char>(header[0]) |
      (static_cast<unsigned char>(header[1]) << 8) |
      (static_cast<unsigned char>(header[2]) << 16) |
      (static_cast<unsigned char>(header[3]) << 24));
  if (size > kMaxFrameBytes) {
    return Status::DataCorruption("frame length " + std::to_string(size) +
                                  " exceeds the protocol maximum");
  }
  // The buffer grows as bytes arrive, 64 KiB first and then doubling, so a
  // peer that sends only a header pins one chunk, not the length it claims.
  constexpr size_t kFirstChunkBytes = 64u << 10;
  std::string payload;
  while (payload.size() < size) {
    const size_t got = payload.size();
    payload.resize(
        std::min<size_t>(size, std::max(kFirstChunkBytes, 2 * got)));
    SYSTOLIC_RETURN_NOT_OK(RecvAll(wire, payload.data() + got,
                                   payload.size() - got, nullptr, timeout_ms,
                                   timeout_ms));
  }
  return payload;
}

// ---- protocol v2 codec ----------------------------------------------------

std::string EncodeHello(const std::string& token) {
  if (token.empty()) return kHelloMagic;
  return std::string(kHelloMagic) + " " + token;
}

bool ParseHello(const std::string& payload, std::string* token) {
  const std::string magic(kHelloMagic);
  if (payload.rfind(magic, 0) != 0) return false;
  token->clear();
  if (payload.size() > magic.size() && payload[magic.size()] == ' ') {
    *token = payload.substr(magic.size() + 1);
    // A token with framing characters could never have been minted; treat it
    // as absent rather than letting it key the session maps.
    if (token->find_first_of(" \n") != std::string::npos) token->clear();
  }
  return true;
}

std::string EncodeRequest(uint64_t id, const std::string& line) {
  return "REQ " + std::to_string(id) + "\n" + line;
}

bool ParseRequest(const std::string& payload, uint64_t* id,
                  std::string* line) {
  if (payload.rfind("REQ ", 0) != 0) return false;
  const size_t nl = payload.find('\n');
  if (nl == std::string::npos) return false;
  int64_t parsed = 0;
  if (!ParseInt64(payload.substr(4, nl - 4), &parsed) || parsed <= 0) {
    return false;
  }
  *id = static_cast<uint64_t>(parsed);
  *line = payload.substr(nl + 1);
  return true;
}

uint64_t BackoffDelayMs(uint64_t seed, uint64_t attempt, uint64_t base_ms,
                        uint64_t cap_ms) {
  uint64_t delay = base_ms;
  for (uint64_t i = 0; i < attempt && delay < cap_ms; ++i) delay *= 2;
  if (delay > cap_ms) delay = cap_ms;
  // Jitter in [delay/2, delay], keyed like the crash planner's cut schedule
  // so concurrent clients' retry storms decorrelate deterministically.
  const uint64_t key =
      faults::MixFaultKey(faults::MixFaultKey(seed ^ 0xbacc'0ffeULL) ^ attempt);
  const uint64_t half = delay / 2;
  return delay - (half == 0 ? 0 : key % (half + 1));
}

}  // namespace server
}  // namespace systolic
