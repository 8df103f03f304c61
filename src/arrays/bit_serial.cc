#include "arrays/bit_serial.h"

#include <string>
#include <vector>

namespace systolic {
namespace arrays {

namespace {

/// The shared one-bit schema for a decomposition of `source` at `bits` bits.
rel::Schema BitSchema(const rel::Schema& source, size_t bits) {
  std::vector<rel::Column> columns;
  columns.reserve(source.num_columns() * bits);
  for (size_t c = 0; c < source.num_columns(); ++c) {
    for (size_t k = 0; k < bits; ++k) {
      columns.push_back(rel::Column{
          source.column(c).name + ".b" + std::to_string(k),
          rel::Domain::Make(source.column(c).domain->name() + ".bit",
                            rel::ValueType::kInt64)});
    }
  }
  return rel::Schema(std::move(columns));
}

Status CheckFits(const rel::Relation& relation, size_t bits) {
  if (bits == 0 || bits > 63) {
    return Status::InvalidArgument("bits must be in 1..63");
  }
  const int64_t limit = int64_t{1} << bits;
  for (rel::TupleRef t : relation.tuples()) {
    for (rel::Code code : t) {
      if (code < 0 || code >= limit) {
        return Status::InvalidArgument(
            "element code " + std::to_string(code) + " does not fit in " +
            std::to_string(bits) + " unsigned bits");
      }
    }
  }
  return Status::OK();
}

Status AppendDecomposed(const rel::Relation& source, size_t bits,
                        rel::Relation* out) {
  out->Reserve(source.num_tuples());
  rel::Tuple wide;
  for (rel::TupleRef t : source.tuples()) {
    wide.clear();
    for (rel::Code code : t) {
      for (size_t k = 0; k < bits; ++k) {
        wide.push_back((code >> k) & 1);
      }
    }
    SYSTOLIC_RETURN_NOT_OK(out->Append(wide));
  }
  return Status::OK();
}

}  // namespace

Result<rel::Relation> DecomposeToBits(const rel::Relation& relation,
                                      size_t bits) {
  SYSTOLIC_RETURN_NOT_OK(CheckFits(relation, bits));
  if (relation.arity() == 0) {
    return Status::InvalidArgument("cannot decompose a zero-column relation");
  }
  rel::Relation out(BitSchema(relation.schema(), bits), relation.kind());
  SYSTOLIC_RETURN_NOT_OK(AppendDecomposed(relation, bits, &out));
  return out;
}

Result<BitDecomposedPair> DecomposePairToBits(const rel::Relation& a,
                                              const rel::Relation& b,
                                              size_t bits) {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  SYSTOLIC_RETURN_NOT_OK(CheckFits(a, bits));
  SYSTOLIC_RETURN_NOT_OK(CheckFits(b, bits));
  if (a.arity() == 0) {
    return Status::InvalidArgument("cannot decompose a zero-column relation");
  }
  const rel::Schema shared = BitSchema(a.schema(), bits);
  rel::Relation out_a(shared, a.kind());
  rel::Relation out_b(shared, b.kind());
  SYSTOLIC_RETURN_NOT_OK(AppendDecomposed(a, bits, &out_a));
  SYSTOLIC_RETURN_NOT_OK(AppendDecomposed(b, bits, &out_b));
  return BitDecomposedPair{std::move(out_a), std::move(out_b)};
}

size_t BitLevelCellCount(size_t rows, size_t columns, size_t bits) {
  return rows * columns * bits;
}

Result<size_t> MinimumBitsFor(const rel::Relation& relation) {
  size_t bits = 1;
  for (rel::TupleRef t : relation.tuples()) {
    for (rel::Code code : t) {
      if (code < 0) {
        return Status::InvalidArgument(
            "bit decomposition requires non-negative codes, got " +
            std::to_string(code));
      }
      size_t needed = 1;
      while ((code >> needed) != 0) ++needed;
      bits = std::max(bits, needed);
    }
  }
  return bits;
}

}  // namespace arrays
}  // namespace systolic
