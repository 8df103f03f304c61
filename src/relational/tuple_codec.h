#ifndef SYSTOLIC_RELATIONAL_TUPLE_CODEC_H_
#define SYSTOLIC_RELATIONAL_TUPLE_CODEC_H_

#include <string>
#include <string_view>

#include "relational/relation.h"
#include "util/result.h"

namespace systolic {
namespace rel {

/// The on-disk encoding of tuple data: checkpoint data files (storage.h) and
/// the bodies of WAL put/append records (durability/wal.h).
///
/// A block is a relation's tuples in stored order, each tuple's elements in
/// schema order. Each element is decoded through its column's domain, since
/// codes are session-local and values are what must survive:
///   int64   zigzag LEB128 varint (one byte for -64..63, at most ten)
///   bool    one byte, 0 or 1
///   string  varint byte length, then the bytes
/// The block has no header: the schema travels beside it (the MANIFEST, or
/// the record's columns line), and the tuples end where the bytes do.
///
/// The encoding is canonical: every value has exactly one encoding, and the
/// decoder refuses every other byte string. So logically equal relations
/// encode to identical bytes, and a decoded block re-encodes to itself.

/// Appends the encoding of `relation`'s tuples to `out`. Fails if a stored
/// code does not decode through its domain.
Status EncodeTuples(const Relation& relation, std::string* out);

/// Decodes a block into a `kind` relation over `schema`, encoding every
/// value into the schema's domains. DataCorruption on a truncated varint, a
/// varint longer than ten bytes, with a redundant final zero byte, or
/// overflowing 64 bits, a bool byte other than 0 or 1, a string length that
/// runs past the remaining bytes, and bytes that end inside a tuple.
Result<Relation> DecodeTuples(std::string_view bytes, const Schema& schema,
                              RelationKind kind);

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_TUPLE_CODEC_H_
