#include "relational/csv.h"

#include <string>
#include <vector>

#include "relational/builder.h"
#include "util/strings.h"

namespace systolic {
namespace rel {

namespace {

Result<Value> ParseField(std::string_view field, bool quoted, ValueType type) {
  // Quoted fields are verbatim; unquoted fields keep the historical
  // whitespace-trimming behaviour.
  const std::string text(quoted ? std::string(field)
                                : std::string(Trim(field)));
  switch (type) {
    case ValueType::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(text, &v)) {
        return Status::InvalidArgument("cannot parse '" + text + "' as int64");
      }
      return Value::Int64(v);
    }
    case ValueType::kBool: {
      if (text == "true") return Value::Bool(true);
      if (text == "false") return Value::Bool(false);
      return Status::InvalidArgument("cannot parse '" + text + "' as bool");
    }
    case ValueType::kString:
      return Value::String(text);
  }
  return Status::Internal("unknown value type");
}

struct CsvField {
  std::string text;
  bool quoted = false;
};

/// Reads one CSV record (which may span physical lines inside quoted
/// fields). Returns false at end of input with nothing read. A record is
/// terminated by '\n' (a preceding '\r' is dropped) or end of input.
Result<bool> ReadRecord(std::istream& in, std::vector<CsvField>* record) {
  record->clear();
  int first = in.peek();
  if (first == std::char_traits<char>::eof()) return false;
  CsvField field;
  bool in_quotes = false;
  bool saw_quote = false;  // current field started with a quote
  char c = 0;
  while (in.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field.text.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        field.text.push_back(c);
      }
      continue;
    }
    if (c == '"' && field.text.empty() && !saw_quote) {
      in_quotes = true;
      saw_quote = true;
      field.quoted = true;
      continue;
    }
    if (c == ',') {
      record->push_back(std::move(field));
      field = CsvField{};
      saw_quote = false;
      continue;
    }
    if (c == '\n') {
      if (!field.text.empty() && field.text.back() == '\r' && !field.quoted) {
        field.text.pop_back();
      }
      record->push_back(std::move(field));
      return true;
    }
    if (saw_quote && !in_quotes) {
      // The CR of a CRLF terminator is not part of a quoted field's value.
      if (c == '\r') continue;
      return Status::InvalidArgument(
          "malformed CSV: text after a closing quote");
    }
    field.text.push_back(c);
  }
  if (in_quotes) {
    return Status::InvalidArgument("malformed CSV: unterminated quoted field");
  }
  record->push_back(std::move(field));
  return true;
}

bool BlankRecord(const std::vector<CsvField>& record) {
  return record.size() == 1 && !record[0].quoted &&
         Trim(record[0].text).empty();
}

}  // namespace

std::string EscapeCsvField(std::string_view field) {
  const bool needs_quotes =
      field.empty() ||
      field.find_first_of(",\"\n\r") != std::string_view::npos ||
      Trim(field).size() != field.size();
  if (!needs_quotes) return std::string(field);
  std::string quoted;
  quoted.reserve(field.size() + 2);
  quoted.push_back('"');
  for (char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

Result<Relation> ReadCsv(std::istream& in, const Schema& schema,
                         bool has_header, RelationKind kind) {
  RelationBuilder builder(schema, kind);
  std::vector<CsvField> record;
  size_t record_number = 0;
  while (true) {
    Result<bool> more = ReadRecord(in, &record);
    if (!more.ok()) return more.status();
    if (!*more) break;
    ++record_number;
    if (has_header && record_number == 1) continue;
    if (BlankRecord(record)) continue;
    if (record.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "record " + std::to_string(record_number) + " has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(schema.num_columns()));
    }
    std::vector<Value> row;
    row.reserve(record.size());
    for (size_t c = 0; c < record.size(); ++c) {
      SYSTOLIC_ASSIGN_OR_RETURN(
          Value v, ParseField(record[c].text, record[c].quoted,
                              schema.column(c).domain->type()));
      row.push_back(std::move(v));
    }
    SYSTOLIC_RETURN_NOT_OK(builder.AddRow(row));
  }
  return builder.Finish();
}

Status WriteCsv(const Relation& relation, std::ostream& out) {
  const Schema& schema = relation.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c != 0) out << ',';
    out << EscapeCsvField(schema.column(c).name);
  }
  out << '\n';
  for (TupleRef t : relation.tuples()) {
    for (size_t c = 0; c < t.size(); ++c) {
      if (c != 0) out << ',';
      SYSTOLIC_ASSIGN_OR_RETURN(Value v, schema.column(c).domain->Decode(t[c]));
      out << EscapeCsvField(v.ToString());
    }
    out << '\n';
  }
  return Status::OK();
}

}  // namespace rel
}  // namespace systolic
