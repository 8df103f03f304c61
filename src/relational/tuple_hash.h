#ifndef SYSTOLIC_RELATIONAL_TUPLE_HASH_H_
#define SYSTOLIC_RELATIONAL_TUPLE_HASH_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"

namespace systolic {
namespace rel {

/// A stored tuple's codes at `columns`, in that order, read in place: the
/// key a hash join, membership or division compares, without copying it out
/// of the relation. Valid while the tuple it reads is.
struct KeyRef {
  const Code* row = nullptr;
  const std::vector<size_t>* columns = nullptr;

  KeyRef(TupleRef tuple, const std::vector<size_t>& key_columns)
      : row(tuple.data()), columns(&key_columns) {}

  size_t size() const { return columns->size(); }
  Code operator[](size_t k) const { return row[(*columns)[k]]; }

  friend bool operator==(const KeyRef& a, const KeyRef& b) {
    if (a.size() != b.size()) return false;
    for (size_t k = 0; k < a.size(); ++k) {
      if (a[k] != b[k]) return false;
    }
    return true;
  }
};

/// FNV-1a-style hash over a tuple's element codes, for use as the Hash
/// template argument of unordered containers keyed by Tuple, TupleRef or
/// KeyRef. A key hashes as the Tuple of its codes does.
struct TupleHash {
  size_t operator()(TupleRef t) const { return Hash(t); }
  size_t operator()(const KeyRef& key) const { return Hash(key); }

 private:
  template <typename Codes>
  static size_t Hash(const Codes& codes) {
    uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (size_t i = 0; i < codes.size(); ++i) {
      h ^= static_cast<uint64_t>(codes[i]);
      h *= 1099511628211ULL;  // FNV prime
      h ^= h >> 32;           // extra mixing: codes are often small ints
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_TUPLE_HASH_H_
