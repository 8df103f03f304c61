#ifndef SYSTOLIC_SERVER_PROTOCOL_H_
#define SYSTOLIC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/result.h"

namespace systolic {
namespace server {

/// The S26 wire layer: the length-framed protocol ([u32 LE payload length]
/// [payload]) from S24, lifted onto a byte-stream abstraction (`Wire`) so the
/// chaos injector can sit between the framing code and the socket, plus the
/// protocol-v2 request codec that gives every command a per-session
/// monotonically increasing request id (the retry/dedup contract — see
/// DESIGN S26).
///
/// Protocol v2 frames (all plain text payloads):
///   client -> server  "HELLO v2"             new session
///   client -> server  "HELLO v2 <token>"     resume the named session
///   server -> client  "OK\ntoken <token> last <id>\n"
///   client -> server  "REQ <id>\n<command>"  execute exactly once
///   server -> client  "OK\n<output>" | "ERR <status>\n<output>"
///                     | "RETRY <status>\n"   pre-execution bounce: the
///                                            request was NOT consumed; back
///                                            off and resend the SAME id
///   client -> server  "BYE"                  clean end of session
///   client -> server  "DRAIN" | "SHUTDOWN"   server-wide control
/// A first frame that is not a HELLO gets one "ERR invalid-argument: ..."
/// frame and the connection is closed; no session is admitted.

/// Upper bound for one frame payload; a PRINT of anything fits.
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// A duplex byte stream. `timeout_ms` bounds ONE poll-guarded operation:
/// negative = block indefinitely, 0 = must be ready now. Short reads/writes
/// are normal; the framing helpers loop.
class Wire {
 public:
  virtual ~Wire() = default;

  /// Sends at least 1 byte (short sends allowed); IOError on a broken or
  /// timed-out stream.
  virtual Result<size_t> Send(const char* data, size_t size,
                              int timeout_ms) = 0;

  /// Receives up to `size` bytes; 0 = clean end of stream.
  virtual Result<size_t> Recv(char* data, size_t size, int timeout_ms) = 0;

  /// Unblocks any peer thread parked in Send/Recv (both directions die).
  virtual void ShutdownBoth() = 0;

  virtual void Close() = 0;
};

/// `Wire` over a connected socket, nonblocking + poll so every operation can
/// carry a deadline (the S26 slow-loris defence on the server and the reply
/// deadline on the client).
class PosixWire final : public Wire {
 public:
  /// Takes ownership of a connected `fd` (sets O_NONBLOCK).
  explicit PosixWire(int fd);
  ~PosixWire() override;
  PosixWire(const PosixWire&) = delete;
  PosixWire& operator=(const PosixWire&) = delete;

  /// Connects to 127.0.0.1:`port`.
  static Result<std::unique_ptr<PosixWire>> Dial(uint16_t port);

  Result<size_t> Send(const char* data, size_t size, int timeout_ms) override;
  Result<size_t> Recv(char* data, size_t size, int timeout_ms) override;
  void ShutdownBoth() override;
  void Close() override;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// True iff `status` is a Wire deadline expiry (as opposed to a broken
/// stream): retryable for clients, a reap verdict for the server.
bool IsWireTimeout(const Status& status);

/// Frames `payload` onto the wire. Capacity (before any byte is sent) when
/// the payload exceeds kMaxFrameBytes — the caller can substitute a
/// truncated reply; IOError on a broken/timed-out stream.
Status WriteFrame(Wire& wire, const std::string& payload, int timeout_ms = -1);

/// Reads one frame. `first_byte_timeout_ms` bounds the idle wait for the
/// frame to START (the server's idle budget); `timeout_ms` bounds each
/// subsequent poll once bytes are flowing (the io budget). NotFound with
/// `*clean_eof = true` = the stream ended cleanly between frames;
/// DataCorruption = over-limit length (the connection is unusable: the
/// stream cannot be resynchronised). The payload buffer grows with the
/// bytes that arrive, so a length header alone pins at most 64 KiB.
Result<std::string> ReadFrame(Wire& wire, bool* clean_eof,
                              int first_byte_timeout_ms = -1,
                              int timeout_ms = -1);

// ---- protocol v2 codec ----------------------------------------------------

inline constexpr char kHelloMagic[] = "HELLO v2";

/// "HELLO v2" (empty token = new session) or "HELLO v2 <token>".
std::string EncodeHello(const std::string& token);

/// Parses a HELLO payload; false when `payload` is not a HELLO at all (the
/// server refuses such a connection). A HELLO with a malformed tail yields an
/// empty token.
bool ParseHello(const std::string& payload, std::string* token);

/// "REQ <id>\n<command>".
std::string EncodeRequest(uint64_t id, const std::string& line);

/// Parses a request frame; false when `payload` is not "REQ ..."-shaped
/// (a control line, or a malformed frame the server answers with ERR).
bool ParseRequest(const std::string& payload, uint64_t* id,
                  std::string* line);

/// Deterministic capped exponential backoff with seeded jitter: attempt 0
/// waits ~base_ms, each attempt doubles, capped at cap_ms; the jitter
/// multiplies by [0.5, 1.0] keyed on (seed, attempt) so retry storms from
/// concurrent clients decorrelate reproducibly.
uint64_t BackoffDelayMs(uint64_t seed, uint64_t attempt, uint64_t base_ms,
                        uint64_t cap_ms);

}  // namespace server
}  // namespace systolic

#endif  // SYSTOLIC_SERVER_PROTOCOL_H_
