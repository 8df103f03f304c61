#ifndef SYSTOLIC_DURABILITY_WAL_H_
#define SYSTOLIC_DURABILITY_WAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/catalog.h"
#include "relational/relation.h"
#include "util/result.h"

namespace systolic {
namespace durability {

/// The write-ahead log format (DESIGN S21).
///
/// A WAL file is a one-line header
///   SYSWAL2 <checkpoint-id>\n
/// followed by frames. Each frame is
///   [u32 payload-length LE][u32 CRC-32 of payload LE][payload bytes]
/// and each payload is one *logical* record, not a page image, of one of
/// three kinds:
///   put <name> <set|multi> \n columns <col>:<dom>:<type> ... \n data \n <body>
///   ack <token> <request-id> <records>
///   commit <n>
/// A put replaces the whole relation (creating the domains its columns name);
/// it is the only mutation, because every durable writer — a STORE, a
/// command's or transaction's sinks, the server's group commit — writes
/// whole relations. Everything is text with identifiers in
/// rel::EscapeIdentifier form, except a put <body>: the binary tuple block
/// of rel::EncodeTuples (relational/tuple_codec.h), decoded against the
/// columns line. A record of any other kind is DataCorruption. A log of
/// another format, such as a `SYSWAL1` log with CSV bodies, fails
/// ParseWalHeader, and recovery refuses it without touching it.
///
/// A `commit <n>` marker seals the preceding n records into one
/// atomic group: recovery applies only complete, sealed groups and truncates
/// everything after the last marker, so a torn tail (short frame, bad CRC,
/// or an unsealed group) can never surface as a hybrid catalog. Cross-session
/// group commit (DESIGN S24) needs no format change: a batched append is just
/// N sealed groups in one write, and a crash inside it recovers to a
/// group-boundary prefix of the batch.
///
/// `ack` records (DESIGN S26) ride inside a commit group to make the
/// request-reliability dedup crash-safe: they name the session token and the
/// per-session request id whose command produced the group, so a client that
/// retries a request whose reply was lost to a crash is answered
/// "already committed" instead of re-executed. They mutate nothing on replay
/// (recovery collects them into a token -> highest-acked-id map).
///
/// The header's checkpoint id ties the log to the checkpoint it extends: a
/// crash between the CURRENT pointer flip and the WAL reset leaves a log
/// whose id predates the checkpoint, and recovery discards it wholesale
/// (its records are already inside the checkpoint).

inline constexpr std::string_view kWalMagic = "SYSWAL2";
inline constexpr char kWalFileName[] = "WAL";

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
uint32_t Crc32(std::string_view bytes);

/// One decoded WAL record.
struct WalRecord {
  enum class Kind { kPut, kAck, kCommit };

  /// Column spec carried by put records, enough to recreate shared domains
  /// on a fresh catalog.
  struct ColumnSpec {
    std::string column;
    std::string domain;
    rel::ValueType type = rel::ValueType::kInt64;
  };

  Kind kind = Kind::kCommit;
  /// Relation name; the session token for kAck (unused for kCommit).
  std::string name;
  rel::RelationKind relation_kind = rel::RelationKind::kSet;  ///< kPut only.
  std::vector<ColumnSpec> columns;  ///< kPut only.
  std::string data;                 ///< kPut only: the tuple block.
  uint64_t group_size = 0;          ///< kCommit: records sealed by the marker.
  uint64_t request_id = 0;          ///< kAck: per-session request id.
  uint64_t ack_records = 0;         ///< kAck: records the request committed.
};

/// Record payload encoders. Encoding decodes tuples through their domains
/// (codes are session-local; values are what must survive).
Result<std::string> EncodePut(const std::string& name,
                              const rel::Relation& relation);
std::string EncodeAck(const std::string& token, uint64_t request_id,
                      uint64_t records);
std::string EncodeCommit(uint64_t group_size);

/// Parses one record payload; DataCorruption on any malformed input or
/// unknown kind. A put body is kept as bytes; ApplyWalRecord decodes it.
Result<WalRecord> DecodeWalRecord(std::string_view payload);

/// Appends one length+CRC framed payload to `wal`.
void AppendFrame(std::string* wal, std::string_view payload);

/// Result of parsing the frame starting at `offset`: `complete` is false on
/// a short or CRC-corrupt frame (a torn tail), in which case `end` is
/// meaningless; otherwise `payload` views into `wal` and `end` is the offset
/// one past the frame.
struct WalFrame {
  bool complete = false;
  size_t end = 0;
  std::string_view payload;
};
WalFrame ParseFrame(std::string_view wal, size_t offset);

/// The header line for a log extending checkpoint `checkpoint_id`.
std::string WalHeader(uint64_t checkpoint_id);

/// Parses a WAL header; returns {checkpoint id, offset past the header}.
/// DataCorruption if the magic is not kWalMagic, or the id is malformed or
/// torn.
Result<std::pair<uint64_t, size_t>> ParseWalHeader(std::string_view bytes);

/// Applies one mutation record to `catalog`. A put recreates missing
/// domains from its column specs (preserving sharing by name) and fails
/// with DataCorruption on type conflicts or a body that does not decode;
/// ack records are no-ops (they carry dedup metadata, not catalog state);
/// commit markers are not applicable. `logged`, when given, is the relation
/// a put was encoded from: if the decoded codes equal its codes (always so
/// for int64 columns, whose codes are their values), the catalog's relation
/// shares its code array instead of keeping a second one.
Status ApplyWalRecord(const WalRecord& record, rel::Catalog* catalog,
                      const rel::Relation* logged = nullptr);

}  // namespace durability
}  // namespace systolic

#endif  // SYSTOLIC_DURABILITY_WAL_H_
