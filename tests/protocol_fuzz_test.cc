// Seeded corpus-mutation test for the protocol-v2 decoder fuzz target
// (protocol_fuzz_target.cc), for builds without libFuzzer. The corpus is
// the frame streams server_test puts on the wire, in both directions; each
// seed runs 40 mutants of every stream — up to six drops, duplicates or
// swaps of frames, length headers set to the edges around the payload and
// kMaxFrameBytes, flipped, inserted or dropped bytes, and truncation — each
// under a chunk byte of its own. A failing seed reproduces exactly.
// SYSTOLIC_FUZZ_SEEDS sets the number of seeds.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_harness.h"
#include "gtest/gtest.h"
#include "server/protocol.h"
#include "util/rng.h"

namespace systolic {
namespace server {
namespace {

/// One frame as it goes on the wire: a length header (normally the payload
/// size) and the payload.
struct Frame {
  uint32_t length;
  std::string payload;
};

/// A peer's byte stream: framed payloads, then raw bytes (a torn frame or
/// unframed garbage).
struct Stream {
  std::vector<Frame> frames;
  std::string tail;
};

Stream Framed(const std::vector<std::string>& payloads,
              std::string tail = "") {
  Stream stream;
  for (const std::string& payload : payloads) {
    stream.frames.push_back({static_cast<uint32_t>(payload.size()), payload});
  }
  stream.tail = std::move(tail);
  return stream;
}

std::string Header(uint32_t length) {
  std::string header(4, '\0');
  for (size_t i = 0; i < 4; ++i) {
    header[i] = static_cast<char>(length >> (8 * i) & 0xff);
  }
  return header;
}

/// What server_test sends and what its servers, real and fake, answer.
std::vector<Stream> Corpus() {
  return {
      Framed({EncodeHello(""), EncodeRequest(1, "LOAD A"),
              EncodeRequest(2, "PRINT nothing"), "SHUTDOWN"}),
      Framed({EncodeHello("b1-s1"), EncodeRequest(2, "PRINT A"), "BYE"}),
      Framed({EncodeHello(""), EncodeRequest(1, "LOAD A"),
              EncodeRequest(2, "DEDUP A -> buf0"),
              EncodeRequest(3, "STORE buf0 AS w0_0"), "DRAIN"}),
      Framed({EncodeHello(""), EncodeRequest(1, "LOAD big"),
              EncodeRequest(2, "PRINT big"), EncodeRequest(3, "LOAD small")}),
      Framed({"LOAD A"}),
      Framed({"SHUTDOWN"}),
      Framed({"OK\ntoken b1-s1 last 0\n", "OK\n-- loaded A: 3 tuples\n",
              "ERR not-found: no buffer named 'nothing'\n",
              "RETRY capacity: admission queue is full (64 plans waiting, "
              "limit 64); retry when the device pool drains\n",
              "OK\n-- server stopping\n"}),
      Framed({"OK\ntoken fake last 0\n", "WHAT\nnot a verdict\n"}),
      Framed({}, "GET / HTTP/1.1\r\n\r\n"),
      Framed({}, Header(64) + "LOAD A\n\n"),
  };
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
}

/// A length at an edge the decoder must accept or refuse cleanly.
uint32_t EdgeLength(Rng& rng, uint32_t size) {
  switch (rng.Uniform(0, 5)) {
    case 0: return 0;
    case 1: return size == 0 ? 0 : size - 1;
    case 2: return size + 1;
    case 3: return static_cast<uint32_t>(kMaxFrameBytes);
    case 4: return static_cast<uint32_t>(kMaxFrameBytes) + 1;
    default: return UINT32_MAX;
  }
}

/// Applies one random frame-level mutation to `stream`.
void MutateFrames(Rng& rng, Stream* stream) {
  std::vector<Frame>& frames = stream->frames;
  if (frames.empty()) {
    frames.push_back({8, "HELLO v2"});
    return;
  }
  const size_t at = Pick(rng, frames.size());
  switch (rng.Uniform(0, 4)) {
    case 0:
      frames.erase(frames.begin() + static_cast<std::ptrdiff_t>(at));
      return;
    case 1:
      frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(at),
                    frames[at]);
      return;
    case 2:
      std::swap(frames[at], frames[Pick(rng, frames.size())]);
      return;
    case 3:
      frames[at].length =
          EdgeLength(rng, static_cast<uint32_t>(frames[at].payload.size()));
      return;
    default: {
      // A payload byte changes; the header still tells the truth.
      std::string& payload = frames[at].payload;
      if (payload.empty()) return;
      payload[Pick(rng, payload.size())] =
          static_cast<char>(rng.Uniform(0, 255));
      return;
    }
  }
}

/// Applies one random byte-level mutation to the serialized stream.
void MutateBytes(Rng& rng, std::string* bytes) {
  if (bytes->empty()) return;
  const size_t at = Pick(rng, bytes->size());
  switch (rng.Uniform(0, 3)) {
    case 0:
      (*bytes)[at] =
          static_cast<char>((*bytes)[at] ^ (1 << rng.Uniform(0, 7)));
      return;
    case 1:
      bytes->insert(at, 1, static_cast<char>(rng.Uniform(0, 255)));
      return;
    case 2:
      bytes->erase(at, 1);
      return;
    default:
      bytes->resize(at);
      return;
  }
}

TEST(ProtocolFuzz, MutatedFramesNeverAbortAndRoundTrip) {
  fuzz::RunMutants(0xF8A3E, /*mutants_per_entry=*/40, Corpus(),
                   [](Rng& rng, Stream stream) {
                     const int64_t frame_mutations = rng.Uniform(0, 6);
                     for (int64_t k = 0; k < frame_mutations; ++k) {
                       MutateFrames(rng, &stream);
                     }
                     std::string bytes;
                     for (const Frame& frame : stream.frames) {
                       bytes += Header(frame.length) + frame.payload;
                     }
                     bytes += stream.tail;
                     const int64_t byte_mutations = rng.Uniform(0, 2);
                     for (int64_t k = 0; k < byte_mutations; ++k) {
                       MutateBytes(rng, &bytes);
                     }
                     return bytes;
                   });
}

}  // namespace
}  // namespace server
}  // namespace systolic
