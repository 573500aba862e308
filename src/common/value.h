#ifndef GRETA_COMMON_VALUE_H_
#define GRETA_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace greta {

class StringPool;

/// A typed attribute value carried by an event: null, 64-bit integer, double,
/// or an interned string. Values are small (16 bytes) and trivially copyable.
///
/// Numeric comparison coerces int and double to a common domain; strings only
/// compare against strings (by pool id, which is sufficient for equality; for
/// ordering the caller must go through the pool).
class Value {
 public:
  enum class Kind : uint8_t { kNull = 0, kInt, kDouble, kStr };

  Value() : kind_(Kind::kNull), int_(0) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.kind_ = Kind::kInt;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.kind_ = Kind::kDouble;
    out.dbl_ = v;
    return out;
  }
  static Value Str(StrId id) {
    Value out;
    out.kind_ = Kind::kStr;
    out.str_ = id;
    return out;
  }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_nan() const { return kind_ == Kind::kDouble && std::isnan(dbl_); }

  int64_t AsInt() const {
    GRETA_DCHECK(kind_ == Kind::kInt);
    return int_;
  }
  double AsDouble() const {
    GRETA_DCHECK(kind_ == Kind::kDouble);
    return dbl_;
  }
  StrId AsStr() const {
    GRETA_DCHECK(kind_ == Kind::kStr);
    return str_;
  }

  /// Numeric coercion: int -> double, double -> double. Null and strings
  /// coerce to 0.0 (callers that care should check kinds first).
  double ToDouble() const {
    switch (kind_) {
      case Kind::kInt:
        return static_cast<double>(int_);
      case Kind::kDouble:
        return dbl_;
      default:
        return 0.0;
    }
  }

  /// Truthiness for predicate results: non-zero numerics are true.
  bool Truthy() const {
    switch (kind_) {
      case Kind::kInt:
        return int_ != 0;
      case Kind::kDouble:
        return dbl_ != 0.0;
      case Kind::kStr:
        return true;
      case Kind::kNull:
        return false;
    }
    return false;
  }

  /// Structural equality (numerics compare across int/double). Inline: the
  /// engine's per-event partition routing hashes and compares keys on the
  /// hot path.
  bool operator==(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      if (kind_ == Kind::kInt && other.kind_ == Kind::kInt) {
        return int_ == other.int_;
      }
      return ToDouble() == other.ToDouble();
    }
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case Kind::kNull:
        return true;
      case Kind::kStr:
        return str_ == other.str_;
      default:
        return false;  // Numerics handled above.
    }
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Three-way comparison for numerics and string ids. Returns <0, 0, >0.
  /// Comparing values of incomparable kinds aborts in debug builds and
  /// returns kind ordering otherwise.
  int Compare(const Value& other) const;

  /// Hash suitable for unordered containers and group keys: equal under
  /// SameKey() implies equal hashes.
  size_t Hash() const {
    switch (kind_) {
      case Kind::kNull:
        return 0x9e3779b97f4a7c15ULL;
      case Kind::kInt:
        // Past 2^53 an int equals (operator==) the double it rounds to, so
        // it hashes as that double; below, the two paths agree anyway.
        if (int_ > (int64_t{1} << 53) || int_ < -(int64_t{1} << 53)) {
          return HashNumber(static_cast<double>(int_));
        }
        return HashInt(int_);
      case Kind::kDouble:
        return HashNumber(dbl_);
      case Kind::kStr:
        return HashInt(0x5bd1e995LL ^ str_);
    }
    return 0;
  }

  /// Debug rendering; resolves interned strings when a pool is given.
  std::string ToString(const StringPool* pool = nullptr) const;

 private:
  static size_t HashInt(int64_t v) { return std::hash<int64_t>()(v); }
  // Hash ints and integral doubles identically so mixed-kind keys that
  // compare equal also hash equal. The cast is defined only inside int64's
  // range; NaN, +-inf and larger magnitudes skip it, and every NaN hashes
  // alike (SameKey equates them).
  static size_t HashNumber(double d) {
    if (d >= -0x1p63 && d < 0x1p63) {
      const int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) return HashInt(as_int);
    } else if (std::isnan(d)) {
      return 0x7ff8000000000000ULL;
    }
    return HashDouble(d);
  }
  // Out-of-line (value.cc): doubles hash through std::hash's byte mixer and
  // non-integral doubles are rare in partition keys.
  static size_t HashDouble(double v);

  Kind kind_;
  union {
    int64_t int_;
    double dbl_;
    StrId str_;
  };
};

/// Key equality: operator== except that two NaNs are equal, so every event
/// whose key attribute is NaN lands in one partition and one group (the
/// order CompareGroups sorts by treats NaNs alike too).
inline bool SameKey(const Value& a, const Value& b) {
  return a == b || (a.is_nan() && b.is_nan());
}

/// SameKey over the first `n` values of two keys.
inline bool SameKeys(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!SameKey(a[i], b[i])) return false;
  }
  return true;
}

/// Hash / equality over value vectors (partition keys, group keys), shared
/// by the engine's partition map, the baselines, the shard router and the
/// result merger — one combine, so they can never hash differently.
struct ValueVecHash {
  size_t operator()(const std::vector<Value>& v) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& x : v) h = h * 1099511628211ULL ^ x.Hash();
    return h;
  }
};
struct ValueVecEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    return a.size() == b.size() && SameKeys(a.data(), b.data(), a.size());
  }
};

/// Interns strings to dense 32-bit ids. Not thread-safe for interning;
/// lookups of already-interned ids are safe concurrently with each other.
class StringPool {
 public:
  StringPool() = default;
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id for `s`, interning it on first use.
  StrId Intern(std::string_view s);

  /// Returns the id for `s` or -1 if it has never been interned.
  StrId Find(std::string_view s) const;

  /// Returns the string for a previously interned id.
  const std::string& Lookup(StrId id) const {
    GRETA_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size());
    return strings_[id];
  }

  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, StrId> index_;
};

}  // namespace greta

#endif  // GRETA_COMMON_VALUE_H_
