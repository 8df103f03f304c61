#include "relational/tuple_codec.h"

#include <cstdint>
#include <utility>

namespace systolic {
namespace rel {

namespace {

constexpr size_t kMaxVarintBytes = 10;  // ceil(64 / 7)

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Status Corrupt(const std::string& what, size_t at) {
  return Status::DataCorruption("tuple data: " + what + " at byte " +
                                std::to_string(at));
}

/// Reads bytes off the front of a block, refusing every non-canonical or
/// short encoding.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool done() const { return pos_ == bytes_.size(); }
  size_t pos() const { return pos_; }

  Result<uint64_t> Varint() {
    const size_t start = pos_;
    uint64_t value = 0;
    for (size_t i = 0;; ++i) {
      if (done()) return Corrupt("truncated varint", start);
      const auto byte = static_cast<uint8_t>(bytes_[pos_++]);
      if (i == kMaxVarintBytes - 1) {
        // The tenth byte carries bit 63 alone.
        if (byte & 0x80) return Corrupt("varint longer than 10 bytes", start);
        if (byte > 1) return Corrupt("varint overflows 64 bits", start);
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (byte == 0 && i > 0) {
          return Corrupt("varint with a redundant zero byte", start);
        }
        return value;
      }
    }
  }

  /// One element of `type`. Precondition: !done().
  Result<Value> Read(ValueType type) {
    switch (type) {
      case ValueType::kInt64: {
        SYSTOLIC_ASSIGN_OR_RETURN(const uint64_t u, Varint());
        return Value::Int64(UnZigZag(u));
      }
      case ValueType::kBool: {
        const auto byte = static_cast<uint8_t>(bytes_[pos_]);
        if (byte > 1) {
          return Corrupt("bool byte " + std::to_string(byte), pos_);
        }
        ++pos_;
        return Value::Bool(byte == 1);
      }
      case ValueType::kString: {
        const size_t start = pos_;
        SYSTOLIC_ASSIGN_OR_RETURN(const uint64_t length, Varint());
        if (length > bytes_.size() - pos_) {
          return Corrupt("string length " + std::to_string(length) +
                             " runs past the remaining " +
                             std::to_string(bytes_.size() - pos_) + " bytes",
                         start);
        }
        std::string text(bytes_.substr(pos_, length));
        pos_ += length;
        return Value::String(std::move(text));
      }
    }
    return Status::Internal("unknown value type");
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

Status EncodeTuples(const Relation& relation, std::string* out) {
  const Schema& schema = relation.schema();
  for (const Tuple& t : relation.tuples()) {
    for (size_t c = 0; c < t.size(); ++c) {
      SYSTOLIC_ASSIGN_OR_RETURN(const Value v,
                                schema.column(c).domain->Decode(t[c]));
      switch (v.type()) {
        case ValueType::kInt64:
          PutVarint(ZigZag(v.AsInt64()), out);
          break;
        case ValueType::kBool:
          out->push_back(v.AsBool() ? 1 : 0);
          break;
        case ValueType::kString:
          PutVarint(v.AsString().size(), out);
          out->append(v.AsString());
          break;
      }
    }
  }
  return Status::OK();
}

Result<Relation> DecodeTuples(std::string_view bytes, const Schema& schema,
                              RelationKind kind) {
  Relation relation(schema, kind);
  if (schema.num_columns() == 0) {
    if (!bytes.empty()) {
      return Corrupt("data for a relation without columns", 0);
    }
    return relation;
  }
  Reader reader(bytes);
  while (!reader.done()) {
    Tuple tuple;
    tuple.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (reader.done()) {
        return Corrupt("data ends inside a tuple, before column " +
                           std::to_string(c),
                       reader.pos());
      }
      const std::shared_ptr<Domain>& domain = schema.column(c).domain;
      SYSTOLIC_ASSIGN_OR_RETURN(const Value v, reader.Read(domain->type()));
      SYSTOLIC_ASSIGN_OR_RETURN(const Code code, domain->Encode(v));
      tuple.push_back(code);
    }
    SYSTOLIC_RETURN_NOT_OK(relation.Append(std::move(tuple)));
  }
  return relation;
}

}  // namespace rel
}  // namespace systolic
