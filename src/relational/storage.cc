#include "relational/storage.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "relational/tuple_codec.h"
#include "util/strings.h"

namespace systolic {
namespace rel {

namespace {

namespace fs = std::filesystem;

constexpr char kHexDigits[] = "0123456789ABCDEF";
constexpr char kFormatVersion[] = "2";
constexpr char kDataFileSuffix[] = ".tup";

bool SafeIdentifierChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

Result<ValueType> ParseValueType(const std::string& token) {
  if (token == "int64") return ValueType::kInt64;
  if (token == "string") return ValueType::kString;
  if (token == "bool") return ValueType::kBool;
  return Status::InvalidArgument("unknown value type '" + token + "'");
}

std::string Lowered(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

}  // namespace

std::string EscapeIdentifier(std::string_view name) {
  std::string escaped;
  escaped.reserve(name.size());
  for (char c : name) {
    if (SafeIdentifierChar(c)) {
      escaped.push_back(c);
    } else {
      const auto byte = static_cast<unsigned char>(c);
      escaped.push_back('%');
      escaped.push_back(kHexDigits[byte >> 4]);
      escaped.push_back(kHexDigits[byte & 0xF]);
    }
  }
  return escaped;
}

Result<std::string> UnescapeIdentifier(std::string_view token) {
  std::string name;
  name.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      name.push_back(token[i]);
      continue;
    }
    const int hi = i + 1 < token.size() ? HexValue(token[i + 1]) : -1;
    const int lo = i + 2 < token.size() ? HexValue(token[i + 2]) : -1;
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("malformed identifier escape in '" +
                                     std::string(token) + "'");
    }
    name.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return name;
}

Result<std::vector<CatalogFile>> SerializeCatalog(const Catalog& catalog) {
  // Collect the distinct Domain objects reachable from stored relations and
  // check name uniqueness.
  std::map<std::string, const Domain*> domains;
  const std::vector<std::string> names = catalog.RelationNames();
  for (const std::string& name : names) {
    if (name.empty()) {
      return Status::InvalidArgument("cannot persist a relation with an "
                                     "empty name");
    }
    SYSTOLIC_ASSIGN_OR_RETURN(const Relation* relation,
                              catalog.GetRelation(name));
    for (const Column& column : relation->schema().columns()) {
      if (column.name.empty() || column.domain->name().empty()) {
        return Status::InvalidArgument(
            "cannot persist relation '" + name +
            "': empty column or domain name");
      }
      auto [it, inserted] =
          domains.emplace(column.domain->name(), column.domain.get());
      if (!inserted && it->second != column.domain.get()) {
        return Status::InvalidArgument(
            "two distinct domains share the name '" + column.domain->name() +
            "'; the manifest cannot distinguish them");
      }
    }
  }

  // Escaping is injective, but data files live on filesystems that may fold
  // case — reject names whose escaped forms collide case-insensitively.
  std::map<std::string, std::string> by_folded_filename;
  for (const std::string& name : names) {
    const std::string filename = EscapeIdentifier(name) + kDataFileSuffix;
    auto [it, inserted] = by_folded_filename.emplace(Lowered(filename), name);
    if (!inserted) {
      return Status::InvalidArgument(
          "relations '" + it->second + "' and '" + name +
          "' collide on the data file name '" + filename + "'");
    }
  }

  std::vector<CatalogFile> files;
  std::ostringstream manifest;
  manifest << "# systolic-rdb catalog manifest\n"
           << "format " << kFormatVersion << "\n";
  for (const auto& [name, domain] : domains) {
    manifest << "domain " << EscapeIdentifier(name) << " "
             << ValueTypeToString(domain->type()) << "\n";
  }
  for (const std::string& name : names) {
    SYSTOLIC_ASSIGN_OR_RETURN(const Relation* relation,
                              catalog.GetRelation(name));
    manifest << "relation " << EscapeIdentifier(name) << " "
             << (relation->kind() == RelationKind::kSet ? "set" : "multi");
    for (const Column& column : relation->schema().columns()) {
      manifest << " " << EscapeIdentifier(column.name) << ":"
               << EscapeIdentifier(column.domain->name());
    }
    manifest << "\n";
  }
  files.push_back(CatalogFile{"MANIFEST", manifest.str()});
  for (const std::string& name : names) {
    SYSTOLIC_ASSIGN_OR_RETURN(const Relation* relation,
                              catalog.GetRelation(name));
    std::string data;
    SYSTOLIC_RETURN_NOT_OK(EncodeTuples(*relation, &data));
    files.push_back(
        CatalogFile{EscapeIdentifier(name) + kDataFileSuffix, std::move(data)});
  }
  return files;
}

Status SaveCatalog(const Catalog& catalog, const std::string& directory) {
  SYSTOLIC_ASSIGN_OR_RETURN(std::vector<CatalogFile> files,
                            SerializeCatalog(catalog));
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + directory +
                           "': " + ec.message());
  }
  for (const CatalogFile& file : files) {
    std::ofstream out(fs::path(directory) / file.name,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open '" + file.name + "' for writing");
    }
    out.write(file.contents.data(),
              static_cast<std::streamsize>(file.contents.size()));
    if (!out) {
      return Status::IOError("short write to '" + file.name + "'");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Catalog>> LoadCatalog(const std::string& directory) {
  std::ifstream manifest(fs::path(directory) / "MANIFEST");
  if (!manifest) {
    return Status::IOError("cannot open '" + directory + "/MANIFEST'");
  }
  auto catalog = std::make_unique<Catalog>();

  std::string line;
  size_t line_number = 0;
  bool versioned = false;
  while (std::getline(manifest, line)) {
    ++line_number;
    const std::string stripped(Trim(line.substr(0, line.find('#'))));
    if (stripped.empty()) continue;
    std::istringstream in(stripped);
    std::string kind;
    in >> kind;
    if (!versioned) {
      // Every ASCII byte is a one-byte varint, so a data file of another
      // format would decode into wrong values: refuse it here instead.
      std::string version;
      if (kind != "format" || !(in >> version) || version != kFormatVersion) {
        return Status::DataCorruption(
            "manifest line " + std::to_string(line_number) + ": '" +
            stripped + "' where the entry 'format " + kFormatVersion +
            "' must come first; the directory is of another format");
      }
      versioned = true;
    } else if (kind == "domain") {
      std::string name_token, type_token;
      if (!(in >> name_token >> type_token)) {
        return Status::InvalidArgument("manifest line " +
                                       std::to_string(line_number) +
                                       ": malformed domain entry");
      }
      SYSTOLIC_ASSIGN_OR_RETURN(std::string name,
                                UnescapeIdentifier(name_token));
      SYSTOLIC_ASSIGN_OR_RETURN(ValueType type, ParseValueType(type_token));
      SYSTOLIC_RETURN_NOT_OK(catalog->CreateDomain(name, type).status());
    } else if (kind == "relation") {
      std::string name_token, kind_token;
      if (!(in >> name_token >> kind_token)) {
        return Status::InvalidArgument("manifest line " +
                                       std::to_string(line_number) +
                                       ": malformed relation entry");
      }
      SYSTOLIC_ASSIGN_OR_RETURN(std::string name,
                                UnescapeIdentifier(name_token));
      const RelationKind relation_kind = kind_token == "multi"
                                             ? RelationKind::kMulti
                                             : RelationKind::kSet;
      std::vector<Column> columns;
      std::string column_spec;
      while (in >> column_spec) {
        const std::vector<std::string> parts = Split(column_spec, ':');
        if (parts.size() != 2) {
          return Status::InvalidArgument(
              "manifest line " + std::to_string(line_number) +
              ": malformed column '" + column_spec + "'");
        }
        SYSTOLIC_ASSIGN_OR_RETURN(std::string column_name,
                                  UnescapeIdentifier(parts[0]));
        SYSTOLIC_ASSIGN_OR_RETURN(std::string domain_name,
                                  UnescapeIdentifier(parts[1]));
        SYSTOLIC_ASSIGN_OR_RETURN(auto domain, catalog->GetDomain(domain_name));
        columns.push_back(Column{column_name, domain});
      }
      if (columns.empty()) {
        return Status::InvalidArgument("manifest line " +
                                       std::to_string(line_number) +
                                       ": relation without columns");
      }
      const std::string filename = name_token + kDataFileSuffix;
      std::ifstream file(fs::path(directory) / filename, std::ios::binary);
      if (!file) {
        return Status::IOError("missing data file '" + filename + "'");
      }
      const std::string data((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
      Result<Relation> relation =
          DecodeTuples(data, Schema(std::move(columns)), relation_kind);
      if (!relation.ok()) {
        return Status::DataCorruption("data file '" + filename +
                                      "': " + relation.status().message());
      }
      catalog->PutRelation(name, std::move(relation).ValueOrDie());
    } else {
      return Status::InvalidArgument("manifest line " +
                                     std::to_string(line_number) +
                                     ": unknown entry '" + kind + "'");
    }
  }
  if (!versioned) {
    return Status::DataCorruption(
        std::string("manifest has no 'format ") + kFormatVersion +
        "' entry; the directory is of another format");
  }
  return catalog;
}

}  // namespace rel
}  // namespace systolic
