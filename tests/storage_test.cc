#include "relational/storage.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "test_util.h"

namespace systolic {
namespace rel {
namespace {

using systolic::testing::Rel;

class StorageFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("systolic_storage_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(StorageFixture, RoundTripIntRelations) {
  Catalog catalog;
  auto d = *catalog.CreateDomain("ids", ValueType::kInt64);
  Schema schema({{"id", d}, {"value", d}});
  catalog.PutRelation("r1", Rel(schema, {{1, 10}, {2, 20}}));
  catalog.PutRelation("r2", Rel(schema, {{2, 20}, {3, 30}},
                                RelationKind::kMulti));

  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  auto loaded = LoadCatalog(dir_.string());
  ASSERT_OK(loaded);

  auto r1 = (*loaded)->GetRelation("r1");
  auto r2 = (*loaded)->GetRelation("r2");
  ASSERT_OK(r1);
  ASSERT_OK(r2);
  EXPECT_EQ((*r1)->num_tuples(), 2u);
  EXPECT_EQ((*r1)->tuple(1), (Tuple{2, 20}));
  EXPECT_EQ((*r2)->kind(), RelationKind::kMulti);
}

TEST_F(StorageFixture, ReloadedRelationsStayUnionCompatible) {
  Catalog catalog;
  auto d = *catalog.CreateDomain("shared", ValueType::kInt64);
  Schema schema({{"x", d}});
  catalog.PutRelation("a", Rel(schema, {{1}, {2}}));
  catalog.PutRelation("b", Rel(schema, {{2}, {3}}));
  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  auto loaded = LoadCatalog(dir_.string());
  ASSERT_OK(loaded);
  auto a = (*loaded)->GetRelation("a");
  auto b = (*loaded)->GetRelation("b");
  ASSERT_OK(a);
  ASSERT_OK(b);
  EXPECT_TRUE((*a)->schema().UnionCompatibleWith((*b)->schema()))
      << "domain sharing must survive the round trip";
  // And they still run through the engine together.
  db::Engine engine;
  auto result = engine.Intersect(**a, **b);
  ASSERT_OK(result);
  EXPECT_EQ(result->relation.num_tuples(), 1u);
}

TEST_F(StorageFixture, StringDomainsReEncodeConsistently) {
  Catalog catalog;
  auto names = *catalog.CreateDomain("names", ValueType::kString);
  Schema schema({{"who", names}});
  RelationBuilder ba(schema);
  ASSERT_STATUS_OK(ba.AddRow({Value::String("ada")}));
  ASSERT_STATUS_OK(ba.AddRow({Value::String("alan")}));
  catalog.PutRelation("people", ba.Finish());
  RelationBuilder bb(schema);
  ASSERT_STATUS_OK(bb.AddRow({Value::String("alan")}));
  catalog.PutRelation("admins", bb.Finish());

  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  auto loaded = LoadCatalog(dir_.string());
  ASSERT_OK(loaded);
  auto people = (*loaded)->GetRelation("people");
  auto admins = (*loaded)->GetRelation("admins");
  ASSERT_OK(people);
  ASSERT_OK(admins);
  // Codes may differ from the original session, but "alan" must encode to
  // the same code in both reloaded relations (shared dictionary).
  db::Engine engine;
  auto result = engine.Intersect(**people, **admins);
  ASSERT_OK(result);
  ASSERT_EQ(result->relation.num_tuples(), 1u);
  auto decoded = (*people)
                     ->schema()
                     .column(0)
                     .domain->Decode(result->relation.tuple(0)[0]);
  ASSERT_OK(decoded);
  EXPECT_EQ(*decoded, Value::String("alan"));
}

TEST_F(StorageFixture, DuplicateDomainNamesRejectedOnSave) {
  Catalog catalog;
  // Two distinct Domain objects with the same name, created outside the
  // catalog's registry.
  auto d1 = Domain::Make("dup", ValueType::kInt64);
  auto d2 = Domain::Make("dup", ValueType::kInt64);
  catalog.PutRelation("a", Rel(Schema({{"x", d1}}), {{1}}));
  catalog.PutRelation("b", Rel(Schema({{"x", d2}}), {{1}}));
  EXPECT_TRUE(SaveCatalog(catalog, dir_.string()).IsInvalidArgument());
}

TEST_F(StorageFixture, LoadMissingDirectoryFails) {
  auto loaded = LoadCatalog((dir_ / "nope").string());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST_F(StorageFixture, CorruptManifestReportsLine) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream manifest(dir_ / "MANIFEST");
    manifest << "format 2\ndomain d int64\nfrobnicate x\n";
  }
  auto loaded = LoadCatalog(dir_.string());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST_F(StorageFixture, EmptyCatalogRoundTrips) {
  Catalog catalog;
  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  auto loaded = LoadCatalog(dir_.string());
  ASSERT_OK(loaded);
  EXPECT_TRUE((*loaded)->RelationNames().empty());
}

TEST(EscapeIdentifierTest, DeterministicAndIdentityOnSafeNames) {
  EXPECT_EQ(EscapeIdentifier("plain_name-7"), "plain_name-7");
  EXPECT_EQ(EscapeIdentifier("Weird Name/1"), "%57eird%20%4Eame%2F1");
  EXPECT_EQ(EscapeIdentifier(".."), "%2E%2E");
  EXPECT_EQ(EscapeIdentifier("%41"), "%2541");
  // Upper-case always escapes, so two names differing only in case can
  // never fold together on a case-insensitive filesystem.
  EXPECT_EQ(EscapeIdentifier("A"), "%41");
  EXPECT_NE(EscapeIdentifier("A"), EscapeIdentifier("a"));
}

TEST(EscapeIdentifierTest, UnescapeInvertsAndRejectsMalformed) {
  const std::vector<std::string> names = {"plain", "Weird Name/1", "..",
                                          "%41", "a,b\nc", ""};
  for (const std::string& name : names) {
    auto back = UnescapeIdentifier(EscapeIdentifier(name));
    ASSERT_OK(back);
    EXPECT_EQ(*back, name);
  }
  // Legacy tokens without escapes decode to themselves.
  EXPECT_EQ(*UnescapeIdentifier("legacy_token"), "legacy_token");
  EXPECT_TRUE(UnescapeIdentifier("%4").status().IsInvalidArgument());
  EXPECT_TRUE(UnescapeIdentifier("%zz").status().IsInvalidArgument());
  EXPECT_TRUE(UnescapeIdentifier("trailing%").status().IsInvalidArgument());
}

TEST_F(StorageFixture, CaseCollidingNamesGetDistinctFilesAndRoundTrip) {
  Catalog catalog;
  auto d = *catalog.CreateDomain("ids", ValueType::kInt64);
  Schema schema({{"x", d}});
  catalog.PutRelation("table", Rel(schema, {{1}}));
  catalog.PutRelation("Table", Rel(schema, {{2}}));
  catalog.PutRelation("TABLE", Rel(schema, {{3}}));

  auto files = SerializeCatalog(catalog);
  ASSERT_OK(files);
  // Escaped file names must stay distinct even after case folding.
  std::vector<std::string> folded;
  for (const CatalogFile& file : *files) {
    std::string lower = file.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    folded.push_back(lower);
  }
  std::sort(folded.begin(), folded.end());
  EXPECT_EQ(std::unique(folded.begin(), folded.end()), folded.end());

  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  auto loaded = LoadCatalog(dir_.string());
  ASSERT_OK(loaded);
  EXPECT_EQ((*loaded)->RelationNames().size(), 3u);
  EXPECT_EQ((*(*loaded)->GetRelation("Table"))->tuple(0), (Tuple{2}));
}

TEST_F(StorageFixture, EmptyRelationNameRejectedWithClearStatus) {
  Catalog catalog;
  auto d = *catalog.CreateDomain("ids", ValueType::kInt64);
  catalog.PutRelation("", Rel(Schema({{"x", d}}), {{1}}));
  const Status saved = SaveCatalog(catalog, dir_.string());
  EXPECT_TRUE(saved.IsInvalidArgument());
  EXPECT_NE(saved.message().find("empty name"), std::string::npos);
}

TEST_F(StorageFixture, TrickyValuesRoundTripBitIdentically) {
  // The full persistence path: strings with every CSV hazard plus int64
  // extremes must reload to a catalog that re-serializes to identical bytes.
  Catalog catalog;
  auto labels = *catalog.CreateDomain("labels", ValueType::kString);
  auto counts = *catalog.CreateDomain("counts", ValueType::kInt64);
  RelationBuilder builder(Schema({{"label", labels}, {"count", counts}}));
  ASSERT_STATUS_OK(builder.AddRow(
      {Value::String("a,\"b\"\nc"),
       Value::Int64(std::numeric_limits<int64_t>::min())}));
  ASSERT_STATUS_OK(builder.AddRow(
      {Value::String(""),
       Value::Int64(std::numeric_limits<int64_t>::max())}));
  ASSERT_STATUS_OK(
      builder.AddRow({Value::String("  padded, and quoted \"  "),
                      Value::Int64(0)}));
  catalog.PutRelation("Tricky/Relation", builder.Finish());

  auto before = SerializeCatalog(catalog);
  ASSERT_OK(before);
  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  auto loaded = LoadCatalog(dir_.string());
  ASSERT_OK(loaded);
  auto after = SerializeCatalog(**loaded);
  ASSERT_OK(after);
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].name, (*after)[i].name);
    EXPECT_EQ((*before)[i].contents, (*after)[i].contents)
        << "file " << (*before)[i].name;
  }
}

/// Overwrites `path` with `bytes`.
void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(StorageFixture, ManifestNamesItsFormatAndDataFilesAreBinary) {
  Catalog catalog;
  auto d = *catalog.CreateDomain("ids", ValueType::kInt64);
  catalog.PutRelation("r", Rel(Schema({{"x", d}}), {{1}, {-1}, {64}}));
  auto files = SerializeCatalog(catalog);
  ASSERT_OK(files);
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0].name, "MANIFEST");
  EXPECT_EQ((*files)[0].contents,
            "# systolic-rdb catalog manifest\nformat 2\ndomain ids int64\n"
            "relation r set x:ids\n");
  EXPECT_EQ((*files)[1].name, "r.tup");
  EXPECT_EQ((*files)[1].contents, std::string("\x02\x01\x80\x01", 4));
}

TEST_F(StorageFixture, DamagedOrForeignDataFilesFailLoadWithoutAborting) {
  Catalog catalog;
  auto ids = *catalog.CreateDomain("ids", ValueType::kInt64);
  auto names = *catalog.CreateDomain("names", ValueType::kString);
  RelationBuilder builder(Schema({{"id", ids}, {"name", names}}));
  ASSERT_STATUS_OK(builder.AddRow({Value::Int64(300), Value::String("ada")}));
  ASSERT_STATUS_OK(builder.AddRow({Value::Int64(-7), Value::String("")}));
  catalog.PutRelation("r", builder.Finish());
  ASSERT_STATUS_OK(SaveCatalog(catalog, dir_.string()));
  const std::filesystem::path data = dir_ / "r.tup";
  const std::string good = ReadFile(data);
  // 300 zigzags to 600, a two-byte varint; the first tuple ends at byte 6.
  ASSERT_EQ(good, std::string("\xD8\x04\x03" "ada" "\x0D\x00", 8));

  const auto load_fails = [&](const std::string& bytes) {
    WriteFile(data, bytes);
    const auto loaded = LoadCatalog(dir_.string());
    EXPECT_TRUE(loaded.status().IsDataCorruption())
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("r.tup"), std::string::npos)
        << loaded.status().ToString();
  };
  // Every truncation ends mid-tuple or mid-value (the empty file is the
  // empty relation), and any trailing byte starts a tuple it cannot finish.
  for (size_t cut = 1; cut < good.size(); ++cut) {
    if (cut == 6) continue;  // the first tuple's boundary: a valid prefix
    load_fails(good.substr(0, cut));
  }
  load_fails(good + '\x00');
  load_fails(good + good.substr(0, 1));
  // A CSV data file: every ASCII byte is a valid one-byte varint, and here
  // the first "string length" ('d', 100) runs past the end of the file.
  // The manifest's format entry is what refuses such a directory outright.
  load_fails("id,name\n300,ada\n-7,\"\"\n");

  WriteFile(data, good);
  ASSERT_OK(LoadCatalog(dir_.string()));
}

TEST_F(StorageFixture, ManifestWithoutFormatEntryIsRefused) {
  // A directory as SaveCatalog wrote it before format 2: no `format` entry
  // and CSV data files. Its manifest is refused before any data is read.
  std::filesystem::create_directories(dir_);
  WriteFile(dir_ / "MANIFEST",
            "# systolic-rdb catalog manifest\ndomain ids int64\n"
            "relation r set x:ids\n");
  WriteFile(dir_ / "r.csv", "x\n1\n");
  auto v1 = LoadCatalog(dir_.string());
  EXPECT_TRUE(v1.status().IsDataCorruption()) << v1.status().ToString();
  EXPECT_NE(v1.status().message().find("format 2"), std::string::npos);

  // The same with a comment in place of the entry, another version, or no
  // entries at all.
  for (const char* manifest :
       {"# format 2\ndomain ids int64\n", "format 1\ndomain ids int64\n",
        "format\n", "# systolic-rdb catalog manifest\n", ""}) {
    WriteFile(dir_ / "MANIFEST", manifest);
    auto loaded = LoadCatalog(dir_.string());
    EXPECT_TRUE(loaded.status().IsDataCorruption())
        << manifest << ": " << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace rel
}  // namespace systolic
