#include "relational/relation.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

namespace systolic {
namespace rel {

Relation::Relation(const Relation& other)
    : schema_(other.schema_), kind_(other.kind_) {
  Share(other.storage_);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  Share(other.storage_);
  schema_ = other.schema_;
  kind_ = other.kind_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      kind_(other.kind_),
      storage_(std::exchange(other.storage_, nullptr)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  Release();
  storage_ = std::exchange(other.storage_, nullptr);
  schema_ = std::move(other.schema_);
  kind_ = other.kind_;
  return *this;
}

const std::vector<Tuple>& Relation::NoTuples() {
  static const std::vector<Tuple> none;
  return none;
}

void Relation::Share(Storage* shared) {
  // Relaxed is enough: the relation `shared` came from holds a share, so
  // the count cannot reach zero meanwhile. Take the new share before
  // dropping the old: they may be one storage.
  if (shared != nullptr) shared->owners.fetch_add(1, std::memory_order_relaxed);
  Release();
  storage_ = shared;
}

void Relation::Release() {
  // acq_rel: the release half publishes this owner's reads to whoever
  // next finds the count at one; the acquire half lets the last owner free.
  if (storage_ != nullptr &&
      storage_->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete storage_;
  }
  storage_ = nullptr;
}

std::vector<Tuple>& Relation::MutableTuples() {
  if (storage_ == nullptr) {
    storage_ = new Storage;
  } else if (storage_->owners.load(std::memory_order_acquire) != 1) {
    auto copy = std::make_unique<Storage>();
    copy->tuples = storage_->tuples;
    Release();
    storage_ = copy.release();
  }
  return storage_->tuples;
}

Status Relation::Append(Tuple tuple) {
  if (tuple.size() != arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " + std::to_string(arity()));
  }
  MutableTuples().push_back(std::move(tuple));
  return Status::OK();
}

Status Relation::Concatenate(const Relation& other) {
  SYSTOLIC_RETURN_NOT_OK(schema_.CheckUnionCompatible(other.schema_));
  if (empty()) {
    // Nothing of ours to keep: share `other`'s tuples outright.
    Share(other.storage_);
    return Status::OK();
  }
  // When `other` holds these very tuples (it may be this relation), the
  // copy MutableTuples makes may have let their storage go: append them
  // from that copy instead.
  const bool same = other.storage_ == storage_;
  std::vector<Tuple>& mine = MutableTuples();
  if (same) {
    const size_t n = mine.size();
    mine.reserve(2 * n);
    for (size_t i = 0; i < n; ++i) mine.push_back(mine[i]);
    return Status::OK();
  }
  mine.insert(mine.end(), other.tuples().begin(), other.tuples().end());
  return Status::OK();
}

bool Relation::Contains(const Tuple& t) const {
  return std::find(tuples().begin(), tuples().end(), t) != tuples().end();
}

bool Relation::IsDuplicateFree() const {
  // Sorts pointers, not tuples: the check reads the relation in place.
  std::vector<const Tuple*> order;
  order.reserve(num_tuples());
  for (const Tuple& t : tuples()) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const Tuple* a, const Tuple* b) { return *a < *b; });
  return std::adjacent_find(order.begin(), order.end(),
                            [](const Tuple* a, const Tuple* b) {
                              return *a == *b;
                            }) == order.end();
}

Result<Relation> Relation::Filter(const BitVector& selection,
                                  RelationKind kind) const {
  if (selection.size() != num_tuples()) {
    return Status::InvalidArgument(
        "selection vector size " + std::to_string(selection.size()) +
        " does not match tuple count " + std::to_string(num_tuples()));
  }
  Relation out(schema_, kind);
  const std::vector<Tuple>& all = tuples();
  std::vector<Tuple>& kept = out.MutableTuples();
  for (size_t i = 0; i < all.size(); ++i) {
    if (selection.Get(i)) kept.push_back(all[i]);
  }
  return out;
}

Result<Relation> Relation::ProjectColumns(
    const std::vector<size_t>& indices) const {
  SYSTOLIC_ASSIGN_OR_RETURN(Schema projected, schema_.Project(indices));
  Relation out(std::move(projected), RelationKind::kMulti);
  std::vector<Tuple>& narrowed = out.MutableTuples();
  narrowed.reserve(num_tuples());
  for (const Tuple& t : tuples()) {
    Tuple narrow;
    narrow.reserve(indices.size());
    for (size_t index : indices) narrow.push_back(t[index]);
    narrowed.push_back(std::move(narrow));
  }
  return out;
}

bool Relation::SetEquals(const Relation& other) const {
  if (!schema_.UnionCompatibleWith(other.schema_)) return false;
  std::set<Tuple> mine(tuples().begin(), tuples().end());
  std::set<Tuple> theirs(other.tuples().begin(), other.tuples().end());
  return mine == theirs;
}

bool Relation::BagEquals(const Relation& other) const {
  if (!schema_.UnionCompatibleWith(other.schema_)) return false;
  return SortedTuples() == other.SortedTuples();
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> sorted = tuples();
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + "\n";
  for (const Tuple& t : tuples()) {
    out += "  (";
    for (size_t c = 0; c < t.size(); ++c) {
      if (c != 0) out += ", ";
      auto decoded = schema_.column(c).domain->Decode(t[c]);
      out += decoded.ok() ? decoded.ValueOrDie().ToString()
                          : "#" + std::to_string(t[c]);
    }
    out += ")\n";
  }
  return out;
}

std::string TupleToString(const Tuple& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(tuple[i]);
  }
  out += ")";
  return out;
}

}  // namespace rel
}  // namespace systolic
