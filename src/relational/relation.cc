#include "relational/relation.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <utility>

#include "util/logging.h"

namespace systolic {
namespace rel {

namespace {

/// Appends `row`'s codes to `codes`. A row of `codes` itself
/// (r.Append(r.tuple(i))) moves when the array grows, so it is copied from
/// its new place.
void AppendRow(std::vector<Code>& codes, TupleRef row) {
  const size_t n = codes.size();
  const std::less_equal<const Code*> at_or_before;
  if (n != 0 && at_or_before(codes.data(), row.data()) &&
      at_or_before(row.data(), codes.data() + n - 1)) {
    const size_t offset = static_cast<size_t>(row.data() - codes.data());
    codes.resize(n + row.size());
    std::copy_n(codes.data() + offset, row.size(), codes.data() + n);
  } else {
    codes.insert(codes.end(), row.begin(), row.end());
  }
}

}  // namespace

Result<Relation> Relation::FromCodes(Schema schema, RelationKind kind,
                                     std::vector<Code> codes) {
  Relation out(std::move(schema), kind);
  const size_t arity = out.arity();
  if (arity == 0 ? !codes.empty() : codes.size() % arity != 0) {
    return Status::InvalidArgument(
        std::to_string(codes.size()) + " codes do not fill whole tuples of " +
        "arity " + std::to_string(arity));
  }
  if (codes.empty()) return out;
  Storage& storage = out.MutableStorage();
  storage.num_tuples = codes.size() / arity;
  storage.codes = std::move(codes);
  return out;
}

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

void Relation::TupleOutOfRange(size_t i) const {
  SYSTOLIC_CHECK(false) << "tuple " << i << " of a relation of "
                        << num_tuples() << " tuples";
  std::abort();
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

Relation::Storage& Relation::MutableStorage() {
  if (storage_ == nullptr) {
    storage_ = new Storage;
  } else if (storage_->owners.load(std::memory_order_acquire) != 1) {
    auto copy = std::make_unique<Storage>();
    copy->codes = storage_->codes;
    copy->num_tuples = storage_->num_tuples;
    Release();
    storage_ = copy.release();
  }
  return *storage_;
}

Status Relation::Append(TupleRef tuple) {
  if (tuple.size() != arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " + std::to_string(arity()));
  }
  // A shared array is copied first; `tuple` may view the copy's source,
  // which the other owner keeps alive.
  Storage& storage = MutableStorage();
  AppendRow(storage.codes, tuple);
  ++storage.num_tuples;
  return Status::OK();
}

void Relation::Reserve(size_t num_tuples) {
  if (num_tuples * arity() <= codes().size()) return;
  MutableStorage().codes.reserve(num_tuples * arity());
}

Status Relation::Concatenate(const Relation& other) {
  SYSTOLIC_RETURN_NOT_OK(schema_.CheckUnionCompatible(other.schema_));
  if (empty()) {
    // Nothing of ours to keep: share `other`'s codes outright.
    Share(other.storage_);
    return Status::OK();
  }
  if (other.empty()) return Status::OK();
  // When `other` holds these very codes (it may be this relation), the copy
  // MutableStorage makes may have let their storage go: append them from
  // that copy instead.
  const bool same = other.storage_ == storage_;
  const size_t added = other.num_tuples();
  Storage& mine = MutableStorage();
  if (same) {
    const size_t n = mine.codes.size();
    mine.codes.resize(2 * n);
    std::copy_n(mine.codes.data(), n, mine.codes.data() + n);
  } else {
    mine.codes.insert(mine.codes.end(), other.storage_->codes.begin(),
                      other.storage_->codes.end());
  }
  mine.num_tuples += added;
  return Status::OK();
}

bool Relation::ShareCodesIfEqual(const Relation& other) {
  if (arity() != other.arity() || tuples() != other.tuples()) return false;
  Share(other.storage_);
  return true;
}

bool Relation::Contains(TupleRef t) const {
  const TupleRange all = tuples();
  return std::find(all.begin(), all.end(), t) != all.end();
}

bool Relation::IsDuplicateFree() const {
  // Sorts row indices, not tuples: the check reads the codes in place.
  const TupleRange all = tuples();
  std::vector<size_t> order(all.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&all](size_t a, size_t b) { return all[a] < all[b]; });
  return std::adjacent_find(order.begin(), order.end(),
                            [&all](size_t a, size_t b) {
                              return all[a] == all[b];
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
  const size_t kept = selection.CountOnes();
  if (kept == 0) return out;
  Storage& storage = out.MutableStorage();
  storage.codes.reserve(kept * arity());
  const TupleRange all = tuples();
  for (size_t i = 0; i < all.size(); ++i) {
    if (selection.Get(i)) {
      storage.codes.insert(storage.codes.end(), all[i].begin(), all[i].end());
    }
  }
  storage.num_tuples = kept;
  return out;
}

Result<Relation> Relation::ProjectColumns(
    const std::vector<size_t>& indices) const {
  SYSTOLIC_ASSIGN_OR_RETURN(Schema projected, schema_.Project(indices));
  Relation out(std::move(projected), RelationKind::kMulti);
  if (empty()) return out;
  Storage& storage = out.MutableStorage();
  storage.codes.reserve(num_tuples() * indices.size());
  for (TupleRef t : tuples()) {
    for (size_t index : indices) storage.codes.push_back(t[index]);
  }
  storage.num_tuples = num_tuples();
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
  std::vector<Tuple> sorted(tuples().begin(), tuples().end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + "\n";
  for (TupleRef t : tuples()) {
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

std::string TupleToString(TupleRef tuple) {
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
