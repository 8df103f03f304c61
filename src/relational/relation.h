#ifndef SYSTOLIC_RELATIONAL_RELATION_H_
#define SYSTOLIC_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "util/bitvector.h"
#include "util/result.h"
#include "util/status.h"

namespace systolic {
namespace rel {

/// A tuple as stored and pumped through the arrays: a fixed-arity sequence of
/// integer element codes (§2.3).
using Tuple = std::vector<Code>;

/// Whether a relation is a set (a relation proper) or may contain duplicate
/// tuples (a multi-relation, §2.5). Multi-relations arise as intermediate
/// results, e.g. after dropping columns for projection.
enum class RelationKind {
  kSet,
  kMulti,
};

/// A relation: a schema plus a sequence of tuples of element codes.
///
/// Tuples are stored in insertion order. The paper's tuples are unordered
/// within a relation, but remove-duplicates (§5) keeps the *first* of each
/// group of equal tuples, so order is observable and we preserve it.
///
/// kSet declares intent; it is not enforced on insertion (checking would be
/// O(n) per insert). Use IsDuplicateFree() to verify, or the dedup operators
/// to establish it.
///
/// Storage is shared and copy-on-write. Copying a relation copies its schema
/// and shares its tuples: O(1) in the tuple count, so a disk read, a memory
/// load, a commit or a snapshot image holds the tuples another holder
/// already has. Append and Concatenate, the only mutators, first copy the
/// tuples when another relation still shares them, so no copy ever sees
/// another's writes. Copies may live on different threads: a writer that
/// finds itself the sole owner reads the owner count with acquire ordering,
/// which orders its writes after every read the last other owner made
/// before letting go.
class Relation {
 public:
  /// Constructs an empty relation over `schema`.
  explicit Relation(Schema schema, RelationKind kind = RelationKind::kSet)
      : schema_(std::move(schema)), kind_(kind) {}

  /// Shares `other`'s tuples.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  /// Takes `other`'s schema and tuples. `other` is left with no tuples; it
  /// may still be read, assigned or destroyed.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  ~Relation() { Release(); }

  const Schema& schema() const { return schema_; }
  RelationKind kind() const { return kind_; }
  size_t num_tuples() const { return tuples().size(); }
  size_t arity() const { return schema_.num_columns(); }
  bool empty() const { return tuples().empty(); }

  const Tuple& tuple(size_t i) const { return tuples().at(i); }
  const std::vector<Tuple>& tuples() const {
    return storage_ != nullptr ? storage_->tuples : NoTuples();
  }

  /// Appends a tuple of codes. Fails with InvalidArgument on arity mismatch.
  Status Append(Tuple tuple);

  /// Appends every tuple of `other`. Fails with Incompatible unless `other`
  /// is union-compatible with this relation (§2.4). This is the paper's
  /// concatenation A+B used to build unions (§5).
  Status Concatenate(const Relation& other);

  /// True iff `t` equals some stored tuple.
  bool Contains(const Tuple& t) const;

  /// True iff no two stored tuples are equal. Sorts pointers to the tuples,
  /// copying none.
  bool IsDuplicateFree() const;

  /// New relation keeping tuple i iff selection.Get(i). The paper's arrays
  /// emit exactly such selection bit vectors (the t_i of §4).
  /// Precondition via Status: selection.size() == num_tuples().
  Result<Relation> Filter(const BitVector& selection,
                          RelationKind kind = RelationKind::kSet) const;

  /// New relation containing, for each tuple, only the columns at `indices`
  /// (in that order). This is the column-dropping half of projection (§5);
  /// the result is a multi-relation until deduplicated.
  Result<Relation> ProjectColumns(const std::vector<size_t>& indices) const;

  /// Set equality: same schema compatibility class and same set of tuples,
  /// ignoring order and multiplicity.
  bool SetEquals(const Relation& other) const;

  /// Bag equality: same tuples with the same multiplicities, ignoring order.
  bool BagEquals(const Relation& other) const;

  /// Tuples sorted lexicographically by code — canonical form for comparison.
  std::vector<Tuple> SortedTuples() const;

  /// Human-readable table with domain-decoded values.
  std::string ToString() const;

 private:
  /// One tuple vector and the number of relations sharing it.
  struct Storage {
    std::atomic<size_t> owners{1};
    std::vector<Tuple> tuples;
  };

  static const std::vector<Tuple>& NoTuples();

  /// This relation's tuples, first copied onto fresh storage if another
  /// relation shares them.
  std::vector<Tuple>& MutableTuples();

  /// Replaces this relation's storage with a share of `shared` (null for
  /// none), which may be the current storage.
  void Share(Storage* shared);

  /// Drops this relation's share of its storage, freeing it with the last.
  void Release();

  Schema schema_;
  RelationKind kind_;
  /// Null before the first write, and after a move.
  Storage* storage_ = nullptr;
};

/// Renders one tuple of codes as "(c1, c2, ...)" without decoding.
std::string TupleToString(const Tuple& tuple);

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_RELATION_H_
