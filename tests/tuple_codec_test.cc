// Unit tests for the binary tuple codec (src/relational/tuple_codec.*):
// round trips over every value type, arities 1-4, set and multi relations;
// a byte-exact golden block; and every encoding the decoder must refuse.

#include "relational/tuple_codec.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "test_util.h"

namespace systolic {
namespace rel {
namespace {

std::string Encoded(const Relation& relation) {
  std::string bytes;
  const Status status = EncodeTuples(relation, &bytes);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return bytes;
}

/// A schema of fresh domains, one per entry of `types`.
Schema FreshSchema(const std::vector<ValueType>& types) {
  std::vector<Column> columns;
  for (size_t c = 0; c < types.size(); ++c) {
    columns.push_back(Column{"c" + std::to_string(c),
                             Domain::Make("d" + std::to_string(c), types[c])});
  }
  return Schema(std::move(columns));
}

std::vector<ValueType> TypesOf(const Schema& schema) {
  std::vector<ValueType> types;
  for (const Column& column : schema.columns()) {
    types.push_back(column.domain->type());
  }
  return types;
}

/// Decodes `relation`'s block twice: over its own schema, where the codes
/// must come back equal, and over fresh domains, where the values must
/// re-encode to the same bytes.
void ExpectRoundTrip(const Relation& relation) {
  const std::string bytes = Encoded(relation);
  auto same = DecodeTuples(bytes, relation.schema(), relation.kind());
  ASSERT_OK(same);
  EXPECT_EQ(same->kind(), relation.kind());
  EXPECT_EQ(same->tuples(), relation.tuples());

  auto fresh = DecodeTuples(bytes, FreshSchema(TypesOf(relation.schema())),
                            relation.kind());
  ASSERT_OK(fresh);
  EXPECT_EQ(fresh->num_tuples(), relation.num_tuples());
  EXPECT_EQ(Encoded(*fresh), bytes);
}

Relation Rows(const Schema& schema, const std::vector<std::vector<Value>>& rows,
              RelationKind kind = RelationKind::kSet) {
  RelationBuilder builder(schema, kind);
  for (const std::vector<Value>& row : rows) {
    const Status added = builder.AddRow(row);
    EXPECT_TRUE(added.ok()) << added.ToString();
  }
  return builder.Finish();
}

TEST(TupleCodecTest, Int64ExtremesRoundTripInTheirVarintLengths) {
  const Schema schema = FreshSchema({ValueType::kInt64});
  const struct {
    int64_t value;
    size_t bytes;
  } cases[] = {
      {std::numeric_limits<int64_t>::min(), 10},
      {-1, 1},
      {0, 1},
      {63, 1},
      {64, 2},
      {std::numeric_limits<int64_t>::max(), 10},
  };
  for (const auto& c : cases) {
    const Relation relation = Rows(schema, {{Value::Int64(c.value)}});
    EXPECT_EQ(Encoded(relation).size(), c.bytes) << c.value;
    ExpectRoundTrip(relation);
  }
}

TEST(TupleCodecTest, BoolsAreOneByteEach) {
  const Schema schema = FreshSchema({ValueType::kBool});
  const Relation relation =
      Rows(schema, {{Value::Bool(true)}, {Value::Bool(false)}},
           RelationKind::kMulti);
  EXPECT_EQ(Encoded(relation), std::string("\x01\x00", 2));
  ExpectRoundTrip(relation);
}

TEST(TupleCodecTest, StringsKeepEveryByte) {
  const Schema schema = FreshSchema({ValueType::kString});
  const Relation relation = Rows(
      schema, {{Value::String(std::string("nul\0inside", 10))},
               {Value::String("line\nbreak")},
               {Value::String("a,b")},
               {Value::String("say \"hi\"")},
               {Value::String("")}});
  ExpectRoundTrip(relation);
  auto decoded = DecodeTuples(Encoded(relation), schema, RelationKind::kSet);
  ASSERT_OK(decoded);
  auto nul = schema.column(0).domain->Decode(decoded->tuple(0)[0]);
  ASSERT_OK(nul);
  EXPECT_EQ(nul->AsString(), std::string("nul\0inside", 10));
}

TEST(TupleCodecTest, ArityOneToFourSetAndMultiRoundTrip) {
  const std::vector<ValueType> types = {ValueType::kInt64, ValueType::kString,
                                        ValueType::kBool, ValueType::kInt64};
  for (size_t arity = 1; arity <= 4; ++arity) {
    const Schema schema = FreshSchema(
        std::vector<ValueType>(types.begin(), types.begin() + arity));
    for (const RelationKind kind : {RelationKind::kSet, RelationKind::kMulti}) {
      std::vector<std::vector<Value>> rows;
      for (int64_t i = 0; i < 6; ++i) {
        const int64_t k = kind == RelationKind::kMulti ? i % 3 : i;
        const std::vector<Value> all = {Value::Int64(k * 1000 - 2500),
                                        Value::String("s" + std::to_string(k)),
                                        Value::Bool(k % 2 == 0),
                                        Value::Int64(-k)};
        rows.emplace_back(all.begin(), all.begin() + arity);
      }
      SCOPED_TRACE("arity " + std::to_string(arity));
      ExpectRoundTrip(Rows(schema, rows, kind));
    }
  }
}

TEST(TupleCodecTest, EmptyRelationIsTheEmptyBlock) {
  const Relation empty(FreshSchema({ValueType::kInt64, ValueType::kString}));
  EXPECT_EQ(Encoded(empty), "");
  auto decoded = DecodeTuples("", empty.schema(), RelationKind::kMulti);
  ASSERT_OK(decoded);
  EXPECT_TRUE(decoded->empty());
  EXPECT_EQ(decoded->kind(), RelationKind::kMulti);
}

TEST(TupleCodecTest, GoldenEncodingOfASmallRelation) {
  // A silent change of the format must fail here: the block is pinned.
  const Schema schema = FreshSchema(
      {ValueType::kInt64, ValueType::kBool, ValueType::kString});
  const Relation relation =
      Rows(schema, {{Value::Int64(1), Value::Bool(true), Value::String("a")},
                    {Value::Int64(-2), Value::Bool(false), Value::String("")},
                    {Value::Int64(300), Value::Bool(true),
                     Value::String("x,y")}});
  EXPECT_EQ(Encoded(relation),
            std::string("\x02\x01\x01"
                        "a"
                        "\x03\x00\x00"
                        "\xD8\x04\x01\x03"
                        "x,y",
                        14));
}

/// Decoding `bytes` over `types` fails with DataCorruption naming `what`.
void ExpectRefused(const std::string& bytes,
                   const std::vector<ValueType>& types,
                   const std::string& what) {
  auto decoded = DecodeTuples(bytes, FreshSchema(types), RelationKind::kSet);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_TRUE(decoded.status().IsDataCorruption())
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find(what), std::string::npos)
      << decoded.status().ToString();
}

TEST(TupleCodecTest, DecoderRefusesEveryMalformedBlock) {
  const std::vector<ValueType> ints = {ValueType::kInt64};
  ExpectRefused("\x80", ints, "truncated varint");
  ExpectRefused("\x02\xFF\xFF", ints, "truncated varint");
  ExpectRefused(std::string(10, '\x80') + '\x01', ints,
                "varint longer than 10 bytes");
  ExpectRefused(std::string(9, '\xFF') + '\x02', ints,
                "varint overflows 64 bits");
  ExpectRefused(std::string("\x80\x00", 2), ints, "redundant zero byte");
  ExpectRefused(std::string("\x81\x80\x00", 3), ints, "redundant zero byte");
  ExpectRefused("\x02", {ValueType::kBool}, "bool byte 2");
  ExpectRefused("\xFF", {ValueType::kBool}, "bool byte 255");
  ExpectRefused("\x05" "abcd", {ValueType::kString}, "runs past");
  // A length near 2^64 is checked against the bytes, never allocated.
  ExpectRefused(std::string(9, '\xFF') + "\x01" "abc", {ValueType::kString},
                "runs past");
  ExpectRefused("\x02\x04\x06", {ValueType::kInt64, ValueType::kInt64},
                "ends inside a tuple");
  ExpectRefused("\x02\x01", {ValueType::kInt64, ValueType::kBool,
                             ValueType::kInt64},
                "ends inside a tuple");
  ExpectRefused("\x01", {}, "without columns");
}

TEST(TupleCodecTest, EncodingAnUnissuedCodeFails) {
  const Schema schema = FreshSchema({ValueType::kString});
  Relation relation(schema);
  ASSERT_STATUS_OK(relation.Append({7}));  // never issued by the domain
  std::string bytes;
  EXPECT_TRUE(EncodeTuples(relation, &bytes).IsNotFound());
}

}  // namespace
}  // namespace rel
}  // namespace systolic
