// Seeded corpus-mutation test for the CSV reader fuzz target
// (csv_fuzz_target.cc), for builds without libFuzzer. The corpus is the
// CSV texts of builder_csv_test and storage_test: headers, blank lines,
// field-count and type errors, bools, CRLF records, text after a closing
// quote, and WriteCsv's own output for strings with every quoting hazard
// and for int64 extremes. Each seed runs 40 mutants of every text: up to
// four inserted syntax bytes or tokens, dropped, replaced, duplicated or
// swapped bytes and lines, or a truncation. The configuration byte the
// loop draws picks the schema and `has_header`. A failing seed reproduces
// exactly. SYSTOLIC_FUZZ_SEEDS sets the number of seeds.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_harness.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/csv.h"
#include "util/rng.h"
#include "util/strings.h"

namespace systolic {
namespace rel {
namespace {

/// `rows` of `type` values in one column, as WriteCsv renders them.
std::string Written(ValueType type, const std::vector<Value>& rows) {
  RelationBuilder builder(Schema({{"s", Domain::Make("s", type)}}));
  for (const Value& value : rows) SYSTOLIC_CHECK(builder.AddRow({value}).ok());
  std::ostringstream out;
  SYSTOLIC_CHECK(WriteCsv(builder.Finish(), out).ok());
  return out.str();
}

std::vector<std::string> Corpus() {
  std::vector<Value> tricky;
  for (const char* s :
       {"plain", "comma,inside", "quote\"inside", "\"fully quoted\"",
        "line\nbreak", "crlf\r\nbreak", "", "  padded  ", ",", "\"",
        "ends with newline\n", "a,\"b\"\nc", "  padded, and quoted \"  "}) {
    tricky.push_back(Value::String(s));
  }
  return {
      "name,age\nada,36\nalan,41\n",
      "1,2\n\n3,4\n",
      "1,2,3\n",
      "abc\n",
      "true\nfalse\n",
      "yes\n",
      "p,\"q\"\r\n\"x,y\",\"z\"\r\n\"end\",\"no newline\"\r",
      "\"a\"x,b\n",
      "c0,c1\n-9223372036854775808,9223372036854775807\n0,-1\n",
      Written(ValueType::kString, tricky),
      Written(ValueType::kInt64,
              {Value::Int64(std::numeric_limits<int64_t>::min()),
               Value::Int64(std::numeric_limits<int64_t>::max()),
               Value::Int64(0)}),
      Written(ValueType::kBool, {Value::Bool(true), Value::Bool(false)}),
  };
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
}

/// Applies one line-level mutation: drop, duplicate or swap a line.
void MutateLines(Rng& rng, std::string* text) {
  std::vector<std::string> lines = Split(*text, '\n');
  const size_t at = Pick(rng, lines.size());
  switch (rng.Uniform(0, 2)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    default:
      std::swap(lines[at], lines[Pick(rng, lines.size())]);
      break;
  }
  *text = Join(lines, "\n");
}

/// Applies one byte- or token-level mutation.
void MutateText(Rng& rng, std::string* text) {
  static constexpr char kSyntax[] = {',', '"', '\n', '\r', ' ', '\t'};
  static constexpr const char* kTokens[] = {
      "true", "false", "-9223372036854775808", "9223372036854775807",
      "9223372036854775808", "\"\"", "\"a,b\"", "\"\"\"\"", "0", "-", "+1",
      " 7 ", "\"x\"\r\n"};
  const size_t at = text->empty() ? 0 : Pick(rng, text->size() + 1);
  switch (rng.Uniform(0, 5)) {
    case 0:
      text->insert(at, 1, kSyntax[Pick(rng, std::size(kSyntax))]);
      return;
    case 1:
      text->insert(at, kTokens[Pick(rng, std::size(kTokens))]);
      return;
    case 2:
      if (at < text->size()) text->erase(at, 1);
      return;
    case 3:
      if (at < text->size()) {
        (*text)[at] = static_cast<char>(rng.Uniform(0, 255));
      }
      return;
    case 4:
      if (!text->empty()) MutateLines(rng, text);
      return;
    default:
      text->resize(at);
      return;
  }
}

TEST(CsvFuzz, MutatedTextsNeverAbortAndRoundTrip) {
  fuzz::RunMutants(0xC5F0, /*mutants_per_entry=*/40, Corpus(),
                   [](Rng& rng, std::string text) {
                     const int64_t mutations = rng.Uniform(0, 4);
                     for (int64_t k = 0; k < mutations; ++k) {
                       MutateText(rng, &text);
                     }
                     return text;
                   });
}

}  // namespace
}  // namespace rel
}  // namespace systolic
