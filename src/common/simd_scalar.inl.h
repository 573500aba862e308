#ifndef GRETA_COMMON_SIMD_SCALAR_INL_H_
#define GRETA_COMMON_SIMD_SCALAR_INL_H_

// Internal: portable reference implementations of the simd.h kernel
// surface. Included by every per-ISA translation unit — the vector kernels
// delegate their remainder lanes here, so scalar and vector paths share one
// definition of the lane semantics.

#include "common/simd.h"

namespace greta::simd::detail {

// Value::Kind numbering (static_assert'd against the real enum in
// column_projection.cc; simd.h stays free of Value includes).
inline constexpr uint8_t kTagNull = 0;
inline constexpr uint8_t kTagInt = 1;
inline constexpr uint8_t kTagDouble = 2;
inline constexpr uint8_t kTagStr = 3;

// EvalCmp over a decomposed lane, value-on-left. Mirrors
// predicate/batch_filter.cc EvalCmp + Value::Compare exactly: null lanes
// fail every op (including kNe); int/int ordering is exact int64; any
// numeric pair with a double coerces through ToDouble; strings compare by
// pool id; kind-mismatched lanes take the precomputed constant.
inline bool PassLane(const NumColumn& col, const CmpConst& cmp, size_t j) {
  const uint8_t tag = col.tag[j];
  if (tag == kTagNull || cmp.rhs_kind == kTagNull) return false;
  const bool lane_str = tag == kTagStr;
  const bool rhs_str = cmp.rhs_kind == kTagStr;
  if (lane_str != rhs_str) return cmp.mismatch_pass != 0;
  if (lane_str) {
    const int64_t a = col.ival[j];
    const int64_t b = cmp.rhs_i;
    switch (cmp.op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  }
  if (tag == kTagInt && cmp.rhs_kind == kTagInt) {
    const int64_t a = col.ival[j];
    const int64_t b = cmp.rhs_i;
    switch (cmp.op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  }
  // Mixed numeric: ToDouble coercion. The ordering ops are phrased as
  // negations of the opposite strict compare so a NaN operand yields
  // Compare()==0 semantics (kLe/kGe true, kLt/kGt false), exactly like the
  // scalar path.
  const double a = col.dval[j];
  const double b = cmp.rhs_d;
  switch (cmp.op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return !(a == b);
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return !(a > b);
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return !(a < b);
  }
  return false;
}

inline size_t FilterSel(const NumColumn& col, const CmpConst& cmp,
                        uint32_t rebase, uint32_t* sel, size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = sel[i];
    const bool pass = PassLane(col, cmp, s - rebase);
    sel[out] = s;
    out += pass ? 1 : 0;
  }
  return out;
}

inline bool KeyAdmitted(double key, double lo, bool lo_strict, double hi,
                        bool hi_strict) {
  if (lo_strict ? key <= lo : key < lo) return false;
  if (hi_strict ? key >= hi : key > hi) return false;
  return true;
}

inline size_t RangeSelect(const double* keys, uint32_t begin, uint32_t end,
                          double lo, bool lo_strict, double hi, bool hi_strict,
                          uint32_t* out) {
  size_t n = 0;
  for (uint32_t j = begin; j < end; ++j) {
    if (KeyAdmitted(keys[j], lo, lo_strict, hi, hi_strict)) out[n++] = j;
  }
  return n;
}

inline int LeafSkip(const double* keys, int n, double lo, bool strict) {
  int i = 0;
  while (i < n && (strict ? keys[i] <= lo : keys[i] < lo)) ++i;
  return i;
}

inline int LeafStop(const double* keys, int i0, int n, double hi,
                    bool strict) {
  int i = i0;
  while (i < n && !(strict ? keys[i] >= hi : keys[i] > hi)) ++i;
  return i;
}

inline size_t RunSplit(const int64_t* times, size_t i, size_t n) {
  const int64_t ts = times[i];
  size_t j = i + 1;
  while (j < n && times[j] == ts) ++j;
  return j;
}

inline uint64_t SplitMix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

inline void SplitMixBulk(uint64_t* h, size_t n) {
  for (size_t i = 0; i < n; ++i) h[i] = SplitMix(h[i]);
}

}  // namespace greta::simd::detail

#endif  // GRETA_COMMON_SIMD_SCALAR_INL_H_
