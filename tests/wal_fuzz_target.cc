// Fuzz target over the write-ahead-log decoders, the code that reads a log
// back after a crash. It is a plain libFuzzer entry point:
// `-fsanitize=fuzzer` can drive it, and in builds without libFuzzer the
// seeded corpus-mutation test in wal_fuzz_test.cc does.
//
// Input: byte 0 picks how records reach the scratch catalog (bit 0 set:
// only groups a `commit <n>` marker seals, as recovery applies them; clear:
// every record as it decodes), and the remaining bytes are a WAL file. The
// target runs ParseWalHeader, then ParseFrame frame by frame,
// DecodeWalRecord on every frame and ApplyWalRecord on a scratch
// rel::Catalog. Properties:
//   - no input aborts;
//   - ParseFrame accepts exactly the frames that fit and whose CRC
//     matches, and the first short or CRC-bad frame ends the scan;
//   - a CRC-valid payload decodes, or fails with DataCorruption;
//   - a decoded put, ack or commit re-encoded with the Encode* functions (a
//     put from the relation the catalog then holds) decodes to the same
//     record;
//   - an applied put re-encodes to its body's bytes: the relation the
//     catalog then holds encodes (rel::EncodeTuples) to the body. The tuple
//     encoding is canonical.
// A broken property aborts through SYSTOLIC_CHECK, as a crash does under
// libFuzzer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "durability/wal.h"
#include "relational/catalog.h"
#include "relational/tuple_codec.h"
#include "util/logging.h"

namespace {

using namespace systolic;
using namespace systolic::durability;

uint32_t U32At(std::string_view bytes, size_t at) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

bool SameColumns(const std::vector<WalRecord::ColumnSpec>& a,
                 const std::vector<WalRecord::ColumnSpec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].column != b[c].column || a[c].domain != b[c].domain ||
        a[c].type != b[c].type) {
      return false;
    }
  }
  return true;
}

/// `record` re-encoded; a put takes the relation `catalog` holds.
std::string Reencode(const WalRecord& record, const rel::Catalog& catalog) {
  switch (record.kind) {
    case WalRecord::Kind::kAck:
      return EncodeAck(record.name, record.request_id, record.ack_records);
    case WalRecord::Kind::kCommit:
      return EncodeCommit(record.group_size);
    case WalRecord::Kind::kPut: {
      auto relation = catalog.GetRelation(record.name);
      SYSTOLIC_CHECK(relation.ok()) << relation.status().ToString();
      auto payload = EncodePut(record.name, **relation);
      SYSTOLIC_CHECK(payload.ok()) << payload.status().ToString();
      return *payload;
    }
  }
  return "";
}

/// Re-encoding `record` decodes back to it (a put to its name, kind and
/// columns; its rows are checked against the body by Apply).
void CheckRoundTrip(const WalRecord& record, const rel::Catalog& catalog) {
  const std::string payload = Reencode(record, catalog);
  auto again = DecodeWalRecord(payload);
  SYSTOLIC_CHECK(again.ok()) << again.status().ToString() << "\n" << payload;
  SYSTOLIC_CHECK(again->kind == record.kind && again->name == record.name)
      << payload;
  SYSTOLIC_CHECK(again->request_id == record.request_id &&
                 again->ack_records == record.ack_records &&
                 again->group_size == record.group_size &&
                 again->relation_kind == record.relation_kind &&
                 SameColumns(again->columns, record.columns))
      << payload;
}

/// The tuple block of relation `name` in `catalog`; empty if there is none.
std::string Block(const rel::Catalog& catalog, const std::string& name) {
  std::string block;
  auto relation = catalog.GetRelation(name);
  if (relation.ok()) {
    const Status encoded = rel::EncodeTuples(**relation, &block);
    SYSTOLIC_CHECK(encoded.ok()) << encoded.ToString();
  }
  return block;
}

void Apply(const WalRecord& record, rel::Catalog* catalog) {
  const Status status = ApplyWalRecord(record, catalog);
  if (status.ok() && record.kind == WalRecord::Kind::kPut) {
    CheckRoundTrip(record, *catalog);
    SYSTOLIC_CHECK(Block(*catalog, record.name) == record.data)
        << "the applied body re-encodes to other bytes";
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const bool sealed_groups = (data[0] & 1) != 0;
  const std::string_view wal(reinterpret_cast<const char*>(data) + 1,
                             size - 1);
  auto header = ParseWalHeader(wal);
  if (!header.ok()) {
    SYSTOLIC_CHECK(header.status().IsDataCorruption())
        << header.status().ToString();
    return 0;
  }
  rel::Catalog catalog;
  std::vector<WalRecord> group;
  size_t offset = header->second;
  while (offset < wal.size()) {
    const WalFrame frame = ParseFrame(wal, offset);
    const bool fits = offset + 8 <= wal.size() &&
                      offset + 8 + U32At(wal, offset) <= wal.size();
    const std::string_view payload =
        fits ? wal.substr(offset + 8, U32At(wal, offset)) : "";
    SYSTOLIC_CHECK(frame.complete ==
                   (fits && Crc32(payload) == U32At(wal, offset + 4)))
        << "frame at " << offset;
    if (!frame.complete) break;
    SYSTOLIC_CHECK(frame.payload == payload &&
                   frame.end == offset + 8 + payload.size());
    offset = frame.end;
    auto record = DecodeWalRecord(frame.payload);
    if (!record.ok()) {
      SYSTOLIC_CHECK(record.status().IsDataCorruption())
          << record.status().ToString();
      continue;
    }
    if (record->kind != WalRecord::Kind::kPut) {
      CheckRoundTrip(*record, catalog);
    }
    if (record->kind == WalRecord::Kind::kCommit) {
      if (sealed_groups && record->group_size == group.size()) {
        for (const WalRecord& sealed : group) Apply(sealed, &catalog);
      }
      group.clear();
    } else if (sealed_groups) {
      group.push_back(*std::move(record));
    } else {
      Apply(*record, &catalog);
    }
  }
  return 0;
}
