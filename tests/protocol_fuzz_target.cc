// Fuzz target over the protocol-v2 decoders, the code that reads a peer's
// bytes off the socket. It is a plain libFuzzer entry point:
// `-fsanitize=fuzzer` can drive it, and in builds without libFuzzer the
// seeded corpus-mutation test in protocol_fuzz_test.cc does.
//
// Input: byte 0 sets the chunk size (1-16 bytes per Recv, so every partial
// read of the framing code runs), and the remaining bytes are what a peer
// sent. The target streams them through an in-memory Wire into ReadFrame
// until the stream ends or breaks, and hands every frame to ParseHello,
// ParseRequest and ParseReplyPayload. Properties:
//   - no input aborts;
//   - a length header over kMaxFrameBytes is DataCorruption, and a frame
//     whose bytes are all there is read back byte for byte;
//   - whatever ParseHello or ParseRequest accepts, re-encoded with
//     EncodeHello or EncodeRequest, parses back to the same token, or the
//     same id and line.
// A broken property aborts through SYSTOLIC_CHECK, as a crash does under
// libFuzzer.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "server/protocol.h"
#include "server/server.h"
#include "util/logging.h"

namespace {

using namespace systolic;
using namespace systolic::server;

/// Hands out a fixed byte string at most `chunk` bytes per Recv, then a
/// clean end of stream. Sends vanish.
class MemoryWire final : public Wire {
 public:
  MemoryWire(const uint8_t* data, size_t size, size_t chunk)
      : data_(data), size_(size), chunk_(chunk) {}

  Result<size_t> Send(const char* /*data*/, size_t size,
                      int /*timeout_ms*/) override {
    return size;
  }
  Result<size_t> Recv(char* data, size_t size, int /*timeout_ms*/) override {
    const size_t n = std::min({size, chunk_, size_ - read_});
    std::memcpy(data, data_ + read_, n);
    read_ += n;
    return n;
  }
  void ShutdownBoth() override {}
  void Close() override {}

  size_t read() const { return read_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t chunk_;
  size_t read_ = 0;
};

void CheckParsers(const std::string& frame) {
  std::string token;
  if (ParseHello(frame, &token)) {
    std::string again;
    SYSTOLIC_CHECK(ParseHello(EncodeHello(token), &again) && again == token)
        << "HELLO token '" << token << "' does not survive re-encoding";
  }
  uint64_t id = 0;
  std::string line;
  if (ParseRequest(frame, &id, &line)) {
    uint64_t id_again = 0;
    std::string line_again;
    SYSTOLIC_CHECK(
        ParseRequest(EncodeRequest(id, line), &id_again, &line_again) &&
        id_again == id && line_again == line)
        << "REQ " << id << " does not survive re-encoding";
  }
  static_cast<void>(ParseReplyPayload(frame));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t* stream = data + 1;
  const size_t length = size - 1;
  MemoryWire wire(stream, length, 1 + data[0] % 16);
  for (;;) {
    const size_t at = wire.read();
    bool clean_eof = false;
    const Result<std::string> frame = ReadFrame(wire, &clean_eof);
    if (length - at >= 4) {
      const uint32_t claimed = static_cast<uint32_t>(stream[at]) |
                               static_cast<uint32_t>(stream[at + 1]) << 8 |
                               static_cast<uint32_t>(stream[at + 2]) << 16 |
                               static_cast<uint32_t>(stream[at + 3]) << 24;
      if (claimed > kMaxFrameBytes) {
        SYSTOLIC_CHECK(frame.status().IsDataCorruption())
            << "length " << claimed << " read as " << frame.status().ToString();
        return 0;
      }
      if (length - at - 4 >= claimed) {
        SYSTOLIC_CHECK(frame.ok() &&
                       *frame == std::string(reinterpret_cast<const char*>(
                                                 stream + at + 4),
                                             claimed))
            << "a whole " << claimed << "-byte frame at offset " << at
            << " read back wrong: " << frame.status().ToString();
      }
    }
    if (!frame.ok()) return 0;
    CheckParsers(*frame);
  }
}
