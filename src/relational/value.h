#ifndef SYSTOLIC_RELATIONAL_VALUE_H_
#define SYSTOLIC_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace systolic {
namespace rel {

/// The dynamic type of a Value / the underlying type of a Domain.
enum class ValueType {
  kInt64,
  kBool,
  kString,
};

/// Returns "int64", "bool" or "string".
const char* ValueTypeToString(ValueType type);

/// A single element of a tuple as seen by humans: an integer, boolean or
/// string. Per the paper (§2.3) these user-level values exist only at the
/// input/output boundary; inside relations and arrays every element is an
/// integer code produced by a Domain.
class Value {
 public:
  /// Constructs the int64 value 0.
  Value() : repr_(int64_t{0}) {}

  static Value Int64(int64_t v) { return Value(std::in_place_index<0>, v); }
  static Value Bool(bool v) { return Value(std::in_place_index<1>, v); }
  static Value String(std::string v) {
    return Value(std::in_place_index<2>, std::move(v));
  }

  /// The dynamic type of this value.
  ValueType type() const;

  /// Typed accessors. Preconditions: type() matches.
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  bool AsBool() const { return std::get<bool>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Human-readable rendering ("42", "true", "alice").
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Ordering within one type; values of different types are ordered by type.
  /// Needed so Values can key std::map in Domain dictionaries.
  friend bool operator<(const Value& a, const Value& b) {
    return a.repr_ < b.repr_;
  }

 private:
  using Repr = std::variant<int64_t, bool, std::string>;
  /// Builds the alternative in place: moving a whole temporary variant in
  /// trips gcc 12's -Wmaybe-uninitialized under the sanitizers.
  template <size_t I, typename T>
  Value(std::in_place_index_t<I> index, T&& v)
      : repr_(index, std::forward<T>(v)) {}
  Repr repr_;
};

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_VALUE_H_
