#include "relational/generator.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace systolic {
namespace rel {

namespace {

Status CheckIntSchema(const Schema& schema) {
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).domain->type() != ValueType::kInt64) {
      return Status::InvalidArgument(
          "generator requires int64 columns; column " + std::to_string(c) +
          " is " + ValueTypeToString(schema.column(c).domain->type()));
    }
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("generator requires at least one column");
  }
  return Status::OK();
}

/// Draws a fresh tuple's codes into `t`, which keeps its size (the arity):
/// one row buffer serves every draw.
void RandomTuple(Rng& rng, const GeneratorOptions& options, Tuple* t) {
  for (Code& code : *t) {
    if (options.zipf_s > 0.0) {
      code = static_cast<Code>(
          rng.Zipf(static_cast<size_t>(options.domain_size), options.zipf_s));
    } else {
      code = rng.Uniform(0, options.domain_size - 1);
    }
  }
}

}  // namespace

Result<Relation> GenerateRelation(const Schema& schema,
                                  const GeneratorOptions& options) {
  SYSTOLIC_RETURN_NOT_OK(CheckIntSchema(schema));
  if (options.domain_size < 1) {
    return Status::InvalidArgument("domain_size must be >= 1");
  }
  Rng rng(options.seed);
  Relation out(schema, RelationKind::kMulti);
  out.Reserve(options.num_tuples);
  Tuple t(schema.num_columns());
  for (size_t i = 0; i < options.num_tuples; ++i) {
    RandomTuple(rng, options, &t);
    SYSTOLIC_RETURN_NOT_OK(out.Append(t));
  }
  return out;
}

Result<RelationPair> GenerateOverlappingPair(const Schema& schema,
                                             const PairOptions& options) {
  SYSTOLIC_RETURN_NOT_OK(CheckIntSchema(schema));
  if (options.overlap_fraction < 0.0 || options.overlap_fraction > 1.0) {
    return Status::InvalidArgument("overlap_fraction must be in [0,1]");
  }
  Rng rng(options.base.seed);
  Relation a(schema, RelationKind::kMulti);
  Relation b(schema, RelationKind::kMulti);
  a.Reserve(options.base.num_tuples);
  b.Reserve(options.b_num_tuples);
  Tuple t(schema.num_columns());
  // First build B, then draw A tuples either from B (overlap) or fresh.
  for (size_t i = 0; i < options.b_num_tuples; ++i) {
    RandomTuple(rng, options.base, &t);
    SYSTOLIC_RETURN_NOT_OK(b.Append(t));
  }
  for (size_t i = 0; i < options.base.num_tuples; ++i) {
    if (!b.empty() && rng.Bernoulli(options.overlap_fraction)) {
      const size_t pick =
          static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(b.num_tuples()) - 1));
      SYSTOLIC_RETURN_NOT_OK(a.Append(b.tuple(pick)));
    } else {
      // Fresh tuples use codes shifted above the shared domain range so they
      // cannot collide with B by accident; this makes overlap_fraction exact
      // in expectation.
      RandomTuple(rng, options.base, &t);
      t[0] += options.base.domain_size;  // disjoint first column
      SYSTOLIC_RETURN_NOT_OK(a.Append(t));
    }
  }
  return RelationPair{std::move(a), std::move(b)};
}

Result<Relation> GenerateWithDuplicates(const Schema& schema,
                                        const GeneratorOptions& options,
                                        double dup_factor) {
  SYSTOLIC_RETURN_NOT_OK(CheckIntSchema(schema));
  if (dup_factor < 1.0) {
    return Status::InvalidArgument("dup_factor must be >= 1");
  }
  const size_t distinct = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(options.num_tuples) / dup_factor));
  Rng rng(options.seed);
  Relation pool(schema, RelationKind::kMulti);
  pool.Reserve(distinct);
  Tuple t(schema.num_columns());
  for (size_t i = 0; i < distinct; ++i) {
    RandomTuple(rng, options, &t);
    SYSTOLIC_RETURN_NOT_OK(pool.Append(t));
  }
  Relation out(schema, RelationKind::kMulti);
  out.Reserve(options.num_tuples);
  for (size_t i = 0; i < options.num_tuples; ++i) {
    const size_t pick = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(pool.num_tuples()) - 1));
    SYSTOLIC_RETURN_NOT_OK(out.Append(pool.tuple(pick)));
  }
  return out;
}

}  // namespace rel
}  // namespace systolic
