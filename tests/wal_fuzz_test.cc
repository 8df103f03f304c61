// Seeded corpus-mutation test for the WAL decoder fuzz target
// (wal_fuzz_target.cc), for builds without libFuzzer. The corpus is logs
// written with the Encode* functions: puts over int64, string and bool
// columns into set and multi relations (one with multi-byte and ten-byte
// varints), puts that replace a relation, acks and commit markers. Each
// seed runs 40 mutants of every log: up to six drops, duplicates or swaps
// of frames or of a record's lines, perturbed tokens, and flipped,
// inserted or dropped bytes or a truncation inside one record, all
// re-framed so their CRCs hold and the record and tuple decoders see them;
// then up to two such byte mutations of the framed log, which the frame
// CRCs must catch. A failing seed reproduces exactly. SYSTOLIC_FUZZ_SEEDS
// sets the number of seeds.

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "durability/wal.h"
#include "fuzz_harness.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "util/rng.h"
#include "util/strings.h"

namespace systolic {
namespace durability {
namespace {

/// A log: the checkpoint id its header names and its record payloads.
struct Log {
  uint64_t checkpoint;
  std::vector<std::string> payloads;
};

/// Ids, names with CSV and identifier specials, and flags.
rel::Relation Mixed(rel::RelationKind kind, int64_t first_id) {
  rel::RelationBuilder builder(
      rel::Schema({{"id", rel::Domain::Make("ids", rel::ValueType::kInt64)},
                   {"the name", rel::Domain::Make("names",
                                                  rel::ValueType::kString)},
                   {"flag", rel::Domain::Make("flags",
                                              rel::ValueType::kBool)}}),
      kind);
  const char* kNames[] = {"a,b \"quoted\"", "line\nbreak", "plain", ""};
  for (int64_t i = 0; i < 4; ++i) {
    SYSTOLIC_CHECK(builder
                       .AddRow({rel::Value::Int64(first_id + i % 3),
                                rel::Value::String(kNames[i]),
                                rel::Value::Bool(i % 2 == 0)})
                       .ok());
  }
  return builder.Finish();
}

/// Ints whose varints take one, two, three and ten bytes, beside bools.
rel::Relation Wide() {
  rel::RelationBuilder builder(
      rel::Schema({{"id", rel::Domain::Make("ids", rel::ValueType::kInt64)},
                   {"flag", rel::Domain::Make("flags",
                                              rel::ValueType::kBool)}}));
  const int64_t kIds[] = {0, -1, 300, -70000,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  for (size_t i = 0; i < std::size(kIds); ++i) {
    SYSTOLIC_CHECK(builder
                       .AddRow({rel::Value::Int64(kIds[i]),
                                rel::Value::Bool(i % 2 == 1)})
                       .ok());
  }
  return builder.Finish();
}

std::string Put(const std::string& name, const rel::Relation& r) {
  return *EncodePut(name, r);
}

std::vector<Log> Corpus() {
  const rel::Relation set = Mixed(rel::RelationKind::kSet, 1);
  const rel::Relation multi = Mixed(rel::RelationKind::kMulti, 7);
  return {
      {0,
       {Put("Weird Name!", set), EncodeAck("b1-s1", 1, 1), EncodeCommit(2)}},
      {1,
       {Put("people", set), Put("people", multi), EncodeAck("b1-s1", 1, 2),
        EncodeCommit(3)}},
      {2,
       {Put("bag", multi), EncodeCommit(1), Put("fresh", set),
        EncodeCommit(1)}},
      {7,
       {Put("r/1", set), EncodeCommit(1), Put("r/1", multi),
        EncodeAck("tok", 9, 1), EncodeCommit(2), Put("r/1", set),
        Put("other", multi), EncodeCommit(2)}},
      {3,
       {Put("wide", Wide()), EncodeCommit(1), Put("wide", Wide()),
        EncodeCommit(1)}},
  };
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
}

/// A token the record parsers must accept or refuse cleanly.
std::string PerturbedToken(Rng& rng, const std::string& token) {
  static const char* kWords[] = {"domain", "put",   "append", "drop",
                                 "ack",    "commit", "set",   "multi",
                                 "int64",  "string", "bool",  "columns",
                                 "data",   "a:b:int64"};
  switch (rng.Uniform(0, 5)) {
    case 0: return "0";
    case 1: return "-" + token;
    case 2: return "18446744073709551616";
    case 3: return token + token;
    case 4: return "%" + token;
    default: return kWords[Pick(rng, std::size(kWords))];
  }
}

/// Applies one line-level mutation to a record payload.
void MutateLines(Rng& rng, std::string* payload) {
  std::vector<std::string> lines = Split(*payload, '\n');
  const size_t at = Pick(rng, lines.size());
  switch (rng.Uniform(0, 3)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    case 2:
      std::swap(lines[at], lines[Pick(rng, lines.size())]);
      break;
    default: {
      std::vector<std::string> tokens = Split(lines[at], ' ');
      std::string& token = tokens[Pick(rng, tokens.size())];
      token = PerturbedToken(rng, token);
      lines[at] = Join(tokens, " ");
      break;
    }
  }
  *payload = Join(lines, "\n");
}

/// Applies one byte-level mutation to a record or to the serialized log.
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

/// Applies one frame-, line- or byte-level mutation; the log is framed
/// afterwards, so every CRC still holds.
void MutateRecords(Rng& rng, Log* log) {
  std::vector<std::string>& payloads = log->payloads;
  if (payloads.empty()) {
    payloads.push_back(EncodeCommit(0));
    return;
  }
  const size_t at = Pick(rng, payloads.size());
  switch (rng.Uniform(0, 5)) {
    case 0:
      payloads.erase(payloads.begin() + static_cast<std::ptrdiff_t>(at));
      return;
    case 1:
      payloads.insert(payloads.begin() + static_cast<std::ptrdiff_t>(at),
                      payloads[at]);
      return;
    case 2:
      std::swap(payloads[at], payloads[Pick(rng, payloads.size())]);
      return;
    case 3:
      MutateBytes(rng, &payloads[at]);
      return;
    default:
      MutateLines(rng, &payloads[at]);
      return;
  }
}

TEST(WalFuzz, MutatedLogsNeverAbortAndRoundTrip) {
  fuzz::RunMutants(0x3A1F, /*mutants_per_entry=*/40, Corpus(),
                   [](Rng& rng, Log log) {
                     const int64_t record_mutations = rng.Uniform(0, 6);
                     for (int64_t k = 0; k < record_mutations; ++k) {
                       MutateRecords(rng, &log);
                     }
                     std::string bytes = WalHeader(log.checkpoint);
                     for (const std::string& payload : log.payloads) {
                       AppendFrame(&bytes, payload);
                     }
                     const int64_t byte_mutations = rng.Uniform(0, 2);
                     for (int64_t k = 0; k < byte_mutations; ++k) {
                       MutateBytes(rng, &bytes);
                     }
                     return bytes;
                   });
}

}  // namespace
}  // namespace durability
}  // namespace systolic
