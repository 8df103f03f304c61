#include "durability/wal.h"

#include <array>
#include <sstream>
#include <utility>

#include "relational/schema.h"
#include "relational/storage.h"
#include "relational/tuple_codec.h"
#include "util/strings.h"

namespace systolic {
namespace durability {

namespace {

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Result<rel::ValueType> ParseValueType(const std::string& token) {
  if (token == "int64") return rel::ValueType::kInt64;
  if (token == "string") return rel::ValueType::kString;
  if (token == "bool") return rel::ValueType::kBool;
  return Status::DataCorruption("WAL record: unknown value type '" + token +
                                "'");
}

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32(std::string_view bytes, size_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 3]))
             << 24;
}

/// rel::UnescapeIdentifier, with a malformed escape reported as the
/// record's corruption like every other malformed field.
Result<std::string> UnescapeField(std::string_view token) {
  auto unescaped = rel::UnescapeIdentifier(token);
  if (!unescaped.ok()) {
    return Status::DataCorruption("WAL record: " +
                                  unescaped.status().message());
  }
  return unescaped;
}

/// Splits `payload` at the first k newlines into header lines plus the body
/// remainder. Record layouts are positional (line 1 = kind, line 2 =
/// columns, line 3 = "data"), so body bytes can never be mistaken for
/// structure.
Status SplitRecordLines(std::string_view payload, size_t num_lines,
                        std::vector<std::string>* lines, std::string* rest) {
  lines->clear();
  size_t start = 0;
  for (size_t i = 0; i < num_lines; ++i) {
    const size_t nl = payload.find('\n', start);
    if (nl == std::string_view::npos) {
      return Status::DataCorruption("WAL record: truncated header lines");
    }
    lines->emplace_back(payload.substr(start, nl - start));
    start = nl + 1;
  }
  if (rest != nullptr) *rest = std::string(payload.substr(start));
  return Status::OK();
}

Result<std::vector<WalRecord::ColumnSpec>> ParseColumnsLine(
    const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag != "columns") {
    return Status::DataCorruption("WAL record: expected 'columns' line");
  }
  std::vector<WalRecord::ColumnSpec> specs;
  std::string token;
  while (in >> token) {
    const std::vector<std::string> parts = Split(token, ':');
    if (parts.size() != 3) {
      return Status::DataCorruption("WAL record: malformed column '" + token +
                                    "'");
    }
    WalRecord::ColumnSpec spec;
    SYSTOLIC_ASSIGN_OR_RETURN(spec.column, UnescapeField(parts[0]));
    SYSTOLIC_ASSIGN_OR_RETURN(spec.domain, UnescapeField(parts[1]));
    SYSTOLIC_ASSIGN_OR_RETURN(spec.type, ParseValueType(parts[2]));
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::DataCorruption("WAL record: empty columns line");
  }
  return specs;
}

/// Resolves put column specs against `catalog`, creating missing
/// domains; the resulting schema shares the catalog's Domain objects so
/// parsed tuples encode into the live dictionaries.
Result<rel::Schema> ResolveColumns(
    const std::vector<WalRecord::ColumnSpec>& specs, rel::Catalog* catalog) {
  std::vector<rel::Column> columns;
  for (const WalRecord::ColumnSpec& spec : specs) {
    auto found = catalog->GetDomain(spec.domain);
    std::shared_ptr<rel::Domain> domain;
    if (found.ok()) {
      domain = *found;
      if (domain->type() != spec.type) {
        return Status::DataCorruption(
            "WAL record: domain '" + spec.domain + "' is " +
            rel::ValueTypeToString(domain->type()) + " but the record says " +
            rel::ValueTypeToString(spec.type));
      }
    } else {
      SYSTOLIC_ASSIGN_OR_RETURN(domain,
                                catalog->CreateDomain(spec.domain, spec.type));
    }
    columns.push_back(rel::Column{spec.column, std::move(domain)});
  }
  return rel::Schema(std::move(columns));
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static constexpr std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (char b : bytes) {
    crc = kTable[(crc ^ static_cast<unsigned char>(b)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<std::string> EncodePut(const std::string& name,
                              const rel::Relation& relation) {
  std::ostringstream payload;
  payload << "put " << rel::EscapeIdentifier(name) << " "
          << (relation.kind() == rel::RelationKind::kSet ? "set" : "multi")
          << "\ncolumns";
  for (const rel::Column& column : relation.schema().columns()) {
    payload << " " << rel::EscapeIdentifier(column.name) << ":"
            << rel::EscapeIdentifier(column.domain->name()) << ":"
            << rel::ValueTypeToString(column.domain->type());
  }
  payload << "\ndata\n";
  std::string record = payload.str();
  SYSTOLIC_RETURN_NOT_OK(rel::EncodeTuples(relation, &record));
  return record;
}

std::string EncodeAck(const std::string& token, uint64_t request_id,
                      uint64_t records) {
  return "ack " + rel::EscapeIdentifier(token) + " " +
         std::to_string(request_id) + " " + std::to_string(records) + "\n";
}

std::string EncodeCommit(uint64_t group_size) {
  return "commit " + std::to_string(group_size) + "\n";
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  const size_t nl = payload.find('\n');
  const std::string first(payload.substr(
      0, nl == std::string_view::npos ? payload.size() : nl));
  std::istringstream in(first);
  std::string kind;
  in >> kind;
  WalRecord record;
  if (kind == "ack") {
    std::string token_token, id_token, records_token;
    int64_t id = 0, records = 0;
    if (!(in >> token_token >> id_token >> records_token) ||
        !ParseInt64(id_token, &id) || id <= 0 ||
        !ParseInt64(records_token, &records) || records < 0) {
      return Status::DataCorruption("WAL record: malformed ack entry");
    }
    record.kind = WalRecord::Kind::kAck;
    SYSTOLIC_ASSIGN_OR_RETURN(record.name,
                              UnescapeField(token_token));
    record.request_id = static_cast<uint64_t>(id);
    record.ack_records = static_cast<uint64_t>(records);
    return record;
  }
  if (kind == "commit") {
    int64_t n = 0;
    std::string count_token;
    if (!(in >> count_token) || !ParseInt64(count_token, &n) || n < 0) {
      return Status::DataCorruption("WAL record: malformed commit marker");
    }
    record.kind = WalRecord::Kind::kCommit;
    record.group_size = static_cast<uint64_t>(n);
    return record;
  }
  if (kind != "put") {
    return Status::DataCorruption("WAL record: unknown kind '" + kind + "'");
  }

  record.kind = WalRecord::Kind::kPut;
  std::vector<std::string> lines;
  SYSTOLIC_RETURN_NOT_OK(SplitRecordLines(payload, 3, &lines, &record.data));
  std::istringstream header(lines[0]);
  std::string name_token, kind_token, set_token;
  header >> kind_token >> name_token;
  SYSTOLIC_ASSIGN_OR_RETURN(record.name, UnescapeField(name_token));
  if (!(header >> set_token) || (set_token != "set" && set_token != "multi")) {
    return Status::DataCorruption("WAL record: put without set|multi");
  }
  record.relation_kind = set_token == "multi" ? rel::RelationKind::kMulti
                                              : rel::RelationKind::kSet;
  SYSTOLIC_ASSIGN_OR_RETURN(record.columns, ParseColumnsLine(lines[1]));
  if (lines[2] != "data") {
    return Status::DataCorruption("WAL record: expected 'data' separator");
  }
  return record;
}

void AppendFrame(std::string* wal, std::string_view payload) {
  PutU32(wal, static_cast<uint32_t>(payload.size()));
  PutU32(wal, Crc32(payload));
  wal->append(payload);
}

WalFrame ParseFrame(std::string_view wal, size_t offset) {
  WalFrame frame;
  if (offset + 8 > wal.size()) return frame;
  const uint32_t length = GetU32(wal, offset);
  const uint32_t crc = GetU32(wal, offset + 4);
  if (offset + 8 + length > wal.size()) return frame;
  frame.payload = wal.substr(offset + 8, length);
  if (Crc32(frame.payload) != crc) return frame;
  frame.complete = true;
  frame.end = offset + 8 + length;
  return frame;
}

std::string WalHeader(uint64_t checkpoint_id) {
  return std::string(kWalMagic) + " " + std::to_string(checkpoint_id) + "\n";
}

Result<std::pair<uint64_t, size_t>> ParseWalHeader(std::string_view bytes) {
  const size_t nl = bytes.find('\n');
  if (nl == std::string_view::npos) {
    return Status::DataCorruption("WAL header: missing newline");
  }
  const std::string line(bytes.substr(0, nl));
  std::istringstream in(line);
  std::string magic, id_token;
  int64_t id = 0;
  if (!(in >> magic >> id_token) || magic != kWalMagic ||
      !ParseInt64(id_token, &id) || id < 0) {
    return Status::DataCorruption("WAL header: '" + line + "' is not '" +
                                  std::string(kWalMagic) +
                                  " <checkpoint-id>'");
  }
  return std::make_pair(static_cast<uint64_t>(id), nl + 1);
}

Status ApplyWalRecord(const WalRecord& record, rel::Catalog* catalog,
                      const rel::Relation* logged) {
  switch (record.kind) {
    case WalRecord::Kind::kPut: {
      SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema schema,
                                ResolveColumns(record.columns, catalog));
      // Decoding checks that the logged bytes reproduce the relation.
      SYSTOLIC_ASSIGN_OR_RETURN(
          rel::Relation relation,
          rel::DecodeTuples(record.data, schema, record.relation_kind));
      if (logged != nullptr) relation.ShareCodesIfEqual(*logged);
      catalog->PutRelation(record.name, std::move(relation));
      return Status::OK();
    }
    case WalRecord::Kind::kAck:
      return Status::OK();  // dedup metadata; recovery collects it separately
    case WalRecord::Kind::kCommit:
      return Status::Internal("commit markers are not applicable records");
  }
  return Status::Internal("unknown WAL record kind");
}

}  // namespace durability
}  // namespace systolic
