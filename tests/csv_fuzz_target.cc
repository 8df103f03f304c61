// Fuzz target over the CSV reader, which reads catalog files back from disk
// and decodes the WAL's put and append payloads. It is a plain libFuzzer
// entry point: `-fsanitize=fuzzer` can drive it, and in builds without
// libFuzzer the seeded corpus-mutation test in csv_fuzz_test.cc does.
//
// Input: byte 0 is the configuration. Bit 0 sets `has_header`; bits 1-2
// pick the arity (one to three columns); bits 3-7, read as base-3 digits,
// pick each column's type (int64, string or bool). The remaining bytes are
// the CSV text, read with ReadCsv over fresh domains. Properties:
//   - no input aborts;
//   - a rejected input fails with InvalidArgument;
//   - an accepted relation written with WriteCsv reads back (header and
//     all) to a relation BagEquals to it.
// A broken property aborts through SYSTOLIC_CHECK, as a crash does under
// libFuzzer.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "util/logging.h"

namespace {

using namespace systolic;

/// The schema byte `config` names (see the file comment).
rel::Schema SchemaFor(uint8_t config) {
  static constexpr rel::ValueType kTypes[] = {
      rel::ValueType::kInt64, rel::ValueType::kString, rel::ValueType::kBool};
  const size_t arity = 1 + ((config >> 1) & 3) % 3;
  std::vector<rel::Column> columns;
  unsigned digits = config >> 3;
  for (size_t c = 0; c < arity; ++c, digits /= 3) {
    const std::string name = "c" + std::to_string(c);
    columns.push_back({name, rel::Domain::Make(name, kTypes[digits % 3])});
  }
  return rel::Schema(std::move(columns));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const bool has_header = (data[0] & 1) != 0;
  const rel::Schema schema = SchemaFor(data[0]);
  std::istringstream text(
      std::string(reinterpret_cast<const char*>(data) + 1, size - 1));
  const Result<rel::Relation> read = rel::ReadCsv(text, schema, has_header);
  if (!read.ok()) {
    SYSTOLIC_CHECK(read.status().IsInvalidArgument())
        << read.status().ToString();
    return 0;
  }
  std::ostringstream written;
  const Status status = rel::WriteCsv(*read, written);
  SYSTOLIC_CHECK(status.ok()) << status.ToString();
  std::istringstream again(written.str());
  const Result<rel::Relation> reread =
      rel::ReadCsv(again, schema, /*has_header=*/true);
  SYSTOLIC_CHECK(reread.ok())
      << reread.status().ToString() << "\n" << written.str();
  SYSTOLIC_CHECK(reread->BagEquals(*read)) << written.str();
  return 0;
}
