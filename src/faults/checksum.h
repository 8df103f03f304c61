#ifndef SYSTOLIC_FAULTS_CHECKSUM_H_
#define SYSTOLIC_FAULTS_CHECKSUM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "relational/tuple_hash.h"
#include "util/bitvector.h"

namespace systolic {
namespace faults {

/// Order-sensitive fold of per-item hashes into one tile checksum. The
/// shadow re-execution cross-check compares two runs of the *same* tile, and
/// tile outputs are deterministic including order, so order sensitivity is a
/// feature: it also catches faults that merely permute results.
inline uint64_t FoldChecksum(uint64_t acc, uint64_t value) {
  acc ^= value + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc;
}

/// Checksum of a relation's tuples, reusing the rel::TupleHash fold.
inline uint64_t ChecksumRelation(const rel::Relation& relation) {
  uint64_t acc = 1469598103934665603ULL;  // FNV offset basis
  const rel::TupleHash hash;
  for (rel::TupleRef tuple : relation.tuples()) {
    acc = FoldChecksum(acc, static_cast<uint64_t>(hash(tuple)));
  }
  return acc;
}

/// Checksum of a membership pass's selection bits.
inline uint64_t ChecksumBits(const BitVector& bits) {
  uint64_t acc = 1469598103934665603ULL;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits.Get(i)) acc = FoldChecksum(acc, i);
  }
  return FoldChecksum(acc, bits.size());
}

/// Checksum of a join tile's (a index, b index) match list.
inline uint64_t ChecksumMatches(
    const std::vector<std::pair<size_t, size_t>>& matches) {
  uint64_t acc = 1469598103934665603ULL;
  for (const auto& [a, b] : matches) {
    acc = FoldChecksum(acc, (static_cast<uint64_t>(a) << 32) ^ b);
  }
  return acc;
}

}  // namespace faults
}  // namespace systolic

#endif  // SYSTOLIC_FAULTS_CHECKSUM_H_
