#ifndef SYSTOLIC_RELATIONAL_RELATION_H_
#define SYSTOLIC_RELATIONAL_RELATION_H_

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "util/bitvector.h"
#include "util/result.h"
#include "util/status.h"

namespace systolic {
namespace rel {

/// A tuple as pumped through the arrays: a fixed-arity sequence of integer
/// element codes (§2.3). This owning form serves literals, hash keys and
/// oracle copies; a relation stores its tuples' codes in one flat array and
/// hands them out as TupleRefs.
using Tuple = std::vector<Code>;

/// A read-only view of one tuple's codes: a relation's stored tuple, or a
/// Tuple. Cheap to copy; it owns nothing, so it is valid only while what it
/// views is — a relation's tuple until the next mutation of the relation it
/// came from. It and Tuple convert to each other implicitly.
class TupleRef {
 public:
  using value_type = Code;
  using iterator = const Code*;
  using const_iterator = const Code*;

  TupleRef() = default;
  TupleRef(const Tuple& tuple)  // NOLINT(google-explicit-constructor)
      : data_(tuple.data()), size_(tuple.size()) {}
  explicit TupleRef(std::span<const Code> codes)
      : data_(codes.data()), size_(codes.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Code* data() const { return data_; }
  Code operator[](size_t i) const { return data_[i]; }
  const Code* begin() const { return data_; }
  const Code* end() const { return data_ + size_; }

  operator Tuple() const {  // NOLINT(google-explicit-constructor)
    return Tuple(begin(), end());
  }

  friend bool operator==(TupleRef a, TupleRef b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Lexicographic by code, as Tuple orders.
  friend std::strong_ordering operator<=>(TupleRef a, TupleRef b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  const Code* data_ = nullptr;
  size_t size_ = 0;
};

/// A relation's tuples in stored order, as TupleRefs: what
/// Relation::tuples() returns. Valid, like its TupleRefs, until the next
/// mutation of the relation.
class TupleRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TupleRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TupleRef;

    iterator() = default;
    TupleRef operator*() const { return TupleRef(std::span(row_, arity_)); }
    iterator& operator++() {
      row_ += arity_;
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    // Rows are told apart by index: zero-arity rows share one address.
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class TupleRange;
    iterator(const Code* row, size_t arity, size_t index)
        : row_(row), arity_(arity), index_(index) {}

    const Code* row_ = nullptr;
    size_t arity_ = 0;
    size_t index_ = 0;
  };
  using const_iterator = iterator;
  using value_type = TupleRef;

  TupleRange(const Code* codes, size_t arity, size_t size)
      : codes_(codes), arity_(arity), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TupleRef operator[](size_t i) const {
    return TupleRef(std::span(codes_ + i * arity_, arity_));
  }
  TupleRef back() const { return (*this)[size_ - 1]; }
  iterator begin() const { return iterator(codes_, arity_, 0); }
  iterator end() const {
    return iterator(codes_ + size_ * arity_, arity_, size_);
  }

  /// Same tuples in the same order.
  friend bool operator==(const TupleRange& a, const TupleRange& b) {
    return a.size_ == b.size_ && a.arity_ == b.arity_ &&
           std::equal(a.codes_, a.codes_ + a.size_ * a.arity_, b.codes_);
  }
  friend bool operator==(const TupleRange& a, const std::vector<Tuple>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const Code* codes_;
  size_t arity_;
  size_t size_;
};

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
/// The tuples live in one flat, row-major array of codes plus a tuple count
/// (§2.3's element codes, as §9's memory streams them): tuple i is codes
/// [i * arity, (i + 1) * arity). The count is explicit because a relation
/// without columns still holds tuples. tuple(i) and tuples() read the array
/// in place through TupleRefs, valid until the next mutation of this
/// relation.
///
/// Storage is shared and copy-on-write. Copying a relation copies its schema
/// and shares its codes: O(1) in the tuple count, so a disk read, a memory
/// load, a commit or a snapshot image holds the codes another holder
/// already has. Append and Concatenate, the only mutators, first copy the
/// codes when another relation still shares them, so no copy ever sees
/// another's writes. Copies may live on different threads: a writer that
/// finds itself the sole owner reads the owner count with acquire ordering,
/// which orders its writes after every read the last other owner made
/// before letting go.
class Relation {
 public:
  /// Constructs an empty relation over `schema`.
  explicit Relation(Schema schema, RelationKind kind = RelationKind::kSet)
      : schema_(std::move(schema)), kind_(kind) {}

  /// A relation over `schema` whose tuples are `codes`, row-major, taken
  /// without a copy. InvalidArgument unless `codes` holds whole tuples; a
  /// schema without columns takes no codes and yields no tuples.
  static Result<Relation> FromCodes(Schema schema, RelationKind kind,
                                    std::vector<Code> codes);

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
  size_t num_tuples() const {
    return storage_ != nullptr ? storage_->num_tuples : 0;
  }
  size_t arity() const { return schema_.num_columns(); }
  bool empty() const { return num_tuples() == 0; }

  /// Tuple i, read in place. Aborts unless i < num_tuples().
  TupleRef tuple(size_t i) const {
    if (i >= num_tuples()) TupleOutOfRange(i);
    return tuples()[i];
  }
  TupleRange tuples() const {
    return TupleRange(codes().data(), arity(), num_tuples());
  }
  /// Every stored code, row-major.
  std::span<const Code> codes() const {
    return storage_ != nullptr ? std::span<const Code>(storage_->codes)
                               : std::span<const Code>();
  }

  /// Appends a tuple of codes. Fails with InvalidArgument on arity mismatch.
  /// `tuple` may be one of this relation's own.
  Status Append(TupleRef tuple);
  Status Append(std::initializer_list<Code> codes) {
    return Append(TupleRef(std::span(codes.begin(), codes.size())));
  }

  /// Makes room for `num_tuples` tuples in all, so appends up to that count
  /// do not grow the array.
  void Reserve(size_t num_tuples);

  /// Appends every tuple of `other`. Fails with Incompatible unless `other`
  /// is union-compatible with this relation (§2.4). This is the paper's
  /// concatenation A+B used to build unions (§5).
  Status Concatenate(const Relation& other);

  /// Shares `other`'s codes in place of this relation's own when both hold
  /// the same tuples in the same order, so one array serves both; returns
  /// whether it did. Neither relation's tuples change.
  bool ShareCodesIfEqual(const Relation& other);

  /// True iff `t` equals some stored tuple.
  bool Contains(TupleRef t) const;

  /// True iff no two stored tuples are equal. Sorts row indices, copying no
  /// tuple.
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
  /// One code array, its tuple count and the number of relations sharing
  /// them.
  struct Storage {
    std::atomic<size_t> owners{1};
    std::vector<Code> codes;
    size_t num_tuples = 0;
  };

  [[noreturn]] void TupleOutOfRange(size_t i) const;

  /// This relation's storage, first copied onto fresh storage if another
  /// relation shares it.
  Storage& MutableStorage();

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
std::string TupleToString(TupleRef tuple);

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_RELATION_H_
