#ifndef SYSTOLIC_RELATIONAL_STORAGE_H_
#define SYSTOLIC_RELATIONAL_STORAGE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/catalog.h"
#include "util/result.h"

namespace systolic {
namespace rel {

/// Directory-backed persistence for a catalog: one binary data file per
/// relation (`<escaped-name>.tup`, its tuples in the tuple_codec.h encoding)
/// plus a MANIFEST text file recording domains and schemas, so that
/// reloading reconstructs the *sharing* of domains (and with it
/// union-compatibility, §2.4) as well as the values.
///
/// Manifest grammar (one entry per line, '#' comments; every identifier is
/// percent-escaped, see EscapeIdentifier):
///   format 2
///   domain <name> <int64|string|bool>
///   relation <name> <set|multi> <column>:<domain> [<column>:<domain> ...]
/// `format 2` must be the first entry. A directory without it (one written
/// with CSV data files, say) is refused with DataCorruption rather than
/// decoded into wrong values.
///
/// Dictionary codes are not persisted: strings re-encode on load in file
/// order, so codes may differ between sessions while equality semantics,
/// schemas and domain sharing are preserved exactly.

/// Deterministic, filesystem-safe encoding of a catalog identifier
/// (relation, domain or column name): lower-case letters, digits, '_' and
/// '-' pass through; every other byte (including upper-case letters, so no
/// two escaped names can collide on a case-insensitive filesystem) becomes
/// %XX with upper-case hex. Injective, and the identity on names that are
/// already safe.
std::string EscapeIdentifier(std::string_view name);

/// Inverse of EscapeIdentifier. Tokens without escapes decode to
/// themselves, so manifests written before escaping keep loading.
Result<std::string> UnescapeIdentifier(std::string_view token);

/// One file of a catalog's directory representation.
struct CatalogFile {
  std::string name;      ///< File name within the directory.
  std::string contents;  ///< Full file contents.
};

/// Serializes `catalog` into its directory representation — the MANIFEST
/// first, then one `<escaped-name>.tup` per relation — without touching the
/// filesystem. Deterministic: logically equal catalogs serialize to
/// identical bytes, which the crash-recovery tests use as a fingerprint.
/// Fails if two distinct Domain objects share a name, if any identifier is
/// empty, or if two relation names collide case-insensitively after
/// escaping.
Result<std::vector<CatalogFile>> SerializeCatalog(const Catalog& catalog);

/// Writes every relation of `catalog` into `directory` (created if needed).
Status SaveCatalog(const Catalog& catalog, const std::string& directory);

/// Reads a directory written by SaveCatalog into a fresh catalog.
/// DataCorruption if the manifest lacks its `format 2` entry or a data file
/// does not decode.
Result<std::unique_ptr<Catalog>> LoadCatalog(const std::string& directory);

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_STORAGE_H_
