#include "common/simd.h"
#include "common/simd_scalar.inl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace greta::simd {
namespace {

using detail::kTagDouble;
using detail::kTagInt;
using detail::kTagStr;

// Double compare by op, phrased so NaN lanes reproduce Value::Compare's
// "unordered returns 0" semantics: kLe = NOT greater-than (unordered ->
// true), kGe = NOT less-than, kNe = unordered-or-unequal. All compares are
// non-signaling (Q variants).
inline __m256d CmpPd(CmpOp op, __m256d a, __m256d b) {
  switch (op) {
    case CmpOp::kEq: return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
    case CmpOp::kNe: return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ);
    case CmpOp::kLt: return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
    case CmpOp::kLe: return _mm256_cmp_pd(a, b, _CMP_NGT_UQ);
    case CmpOp::kGt: return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
    case CmpOp::kGe: return _mm256_cmp_pd(a, b, _CMP_NLT_UQ);
  }
  return _mm256_setzero_pd();
}

// Signed 64-bit compare by op (exact int/int ordering; also string ids).
inline __m256i CmpEpi64(CmpOp op, __m256i a, __m256i b) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  switch (op) {
    case CmpOp::kEq: return _mm256_cmpeq_epi64(a, b);
    case CmpOp::kNe:
      return _mm256_xor_si256(_mm256_cmpeq_epi64(a, b), ones);
    case CmpOp::kLt: return _mm256_cmpgt_epi64(b, a);
    case CmpOp::kLe:
      return _mm256_xor_si256(_mm256_cmpgt_epi64(a, b), ones);
    case CmpOp::kGt: return _mm256_cmpgt_epi64(a, b);
    case CmpOp::kGe:
      return _mm256_xor_si256(_mm256_cmpgt_epi64(b, a), ones);
  }
  return _mm256_setzero_si256();
}

// Full-mask gathers with a zeroed pass-through source: gcc's unmasked
// gather intrinsics leave the source vector formally uninitialized, which
// trips -Wmaybe-uninitialized.
inline __m256d GatherPd(const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}
inline __m256i GatherEpi64(const int64_t* base, __m128i idx) {
  return _mm256_mask_i32gather_epi64(
      _mm256_setzero_si256(), reinterpret_cast<const long long*>(base), idx,
      _mm256_set1_epi64x(-1), 8);
}

size_t FilterSel(const NumColumn& col, const CmpConst& cmp, uint32_t rebase,
                 uint32_t* sel, size_t n) {
  if (cmp.rhs_kind == 0) return 0;
  const __m256d rhs_d = _mm256_set1_pd(cmp.rhs_d);
  const __m256i rhs_i = _mm256_set1_epi64x(cmp.rhs_i);
  const __m128i vrebase = _mm_set1_epi32(static_cast<int>(rebase));
  size_t out = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t j0 = sel[i] - rebase;
    const uint32_t j1 = sel[i + 1] - rebase;
    const uint32_t j2 = sel[i + 2] - rebase;
    const uint32_t j3 = sel[i + 3] - rebase;
    // Identity/compacted selections are often consecutive; contiguous loads
    // beat gathers by a wide margin, so spend one predictable branch on it.
    const bool dense = j1 == j0 + 1 && j2 == j0 + 2 && j3 == j0 + 3;
    __m128i idx = _mm_setzero_si128();
    uint32_t packed_tags;
    if (dense) {
      std::memcpy(&packed_tags, col.tag + j0, sizeof(packed_tags));
    } else {
      const __m128i raw =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
      idx = _mm_sub_epi32(raw, vrebase);
      packed_tags = static_cast<uint32_t>(col.tag[j0]) |
                    static_cast<uint32_t>(col.tag[j1]) << 8 |
                    static_cast<uint32_t>(col.tag[j2]) << 16 |
                    static_cast<uint32_t>(col.tag[j3]) << 24;
    }
    const __m256i vt = _mm256_cvtepu8_epi64(
        _mm_cvtsi32_si128(static_cast<int>(packed_tags)));
    const __m256i tag_int = _mm256_cmpeq_epi64(vt, _mm256_set1_epi64x(1));
    const __m256i tag_dbl = _mm256_cmpeq_epi64(vt, _mm256_set1_epi64x(2));
    const __m256i tag_str = _mm256_cmpeq_epi64(vt, _mm256_set1_epi64x(3));
    const auto load_i = [&] {
      return dense ? _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(col.ival + j0))
                   : GatherEpi64(col.ival, idx);
    };
    const auto load_d = [&] {
      return dense ? _mm256_loadu_pd(col.dval + j0) : GatherPd(col.dval, idx);
    };

    __m256i pass;
    if (cmp.rhs_kind == kTagStr) {
      pass = _mm256_and_si256(tag_str, CmpEpi64(cmp.op, load_i(), rhs_i));
      if (cmp.mismatch_pass != 0) {
        pass = _mm256_or_si256(pass, _mm256_or_si256(tag_int, tag_dbl));
      }
    } else if (cmp.rhs_kind == kTagInt) {
      // Int rhs: int lanes compare exactly in int64 (values past 2^53 do
      // not round-trip through double), double lanes coerce the rhs.
      const __m256i ip = CmpEpi64(cmp.op, load_i(), rhs_i);
      const __m256i dp = _mm256_castpd_si256(CmpPd(cmp.op, load_d(), rhs_d));
      pass = _mm256_or_si256(_mm256_and_si256(tag_int, ip),
                             _mm256_and_si256(tag_dbl, dp));
      if (cmp.mismatch_pass != 0) pass = _mm256_or_si256(pass, tag_str);
    } else {
      // Double rhs: every numeric lane goes through ToDouble coercion.
      const __m256i dp = _mm256_castpd_si256(CmpPd(cmp.op, load_d(), rhs_d));
      pass = _mm256_and_si256(_mm256_or_si256(tag_int, tag_dbl), dp);
      if (cmp.mismatch_pass != 0) pass = _mm256_or_si256(pass, tag_str);
    }

    int m = _mm256_movemask_pd(_mm256_castsi256_pd(pass));
    while (m != 0) {
      const int b = __builtin_ctz(static_cast<unsigned>(m));
      sel[out++] = sel[i + static_cast<size_t>(b)];
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    const uint32_t s = sel[i];
    const bool pass = detail::PassLane(col, cmp, s - rebase);
    sel[out] = s;
    out += pass ? 1 : 0;
  }
  return out;
}

// Admission mask for 4 keys: NOT skipped-by-lo AND NOT stopped-by-hi, with
// the unordered (U) predicates making NaN keys pass both tests exactly like
// the scalar continue-based loop.
inline __m256d AdmitMask(__m256d k, __m256d lo, bool lo_strict, __m256d hi,
                         bool hi_strict) {
  const __m256d pass_lo = lo_strict ? _mm256_cmp_pd(k, lo, _CMP_NLE_UQ)
                                    : _mm256_cmp_pd(k, lo, _CMP_NLT_UQ);
  const __m256d pass_hi = hi_strict ? _mm256_cmp_pd(k, hi, _CMP_NGE_UQ)
                                    : _mm256_cmp_pd(k, hi, _CMP_NGT_UQ);
  return _mm256_and_pd(pass_lo, pass_hi);
}

size_t RangeSelect(const double* keys, uint32_t begin, uint32_t end,
                   double lo, bool lo_strict, double hi, bool hi_strict,
                   uint32_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t n = 0;
  uint32_t j = begin;
  for (; j + 4 <= end; j += 4) {
    const __m256d k = _mm256_loadu_pd(keys + j);
    int m = _mm256_movemask_pd(AdmitMask(k, vlo, lo_strict, vhi, hi_strict));
    while (m != 0) {
      const int b = __builtin_ctz(static_cast<unsigned>(m));
      out[n++] = j + static_cast<uint32_t>(b);
      m &= m - 1;
    }
  }
  for (; j < end; ++j) {
    if (detail::KeyAdmitted(keys[j], lo, lo_strict, hi, hi_strict)) {
      out[n++] = j;
    }
  }
  return n;
}

int LeafSkip(const double* keys, int n, double lo, bool strict) {
  const __m256d vlo = _mm256_set1_pd(lo);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d k = _mm256_loadu_pd(keys + i);
    // below = still-skipping; ordered compares make NaN keys stop the skip,
    // matching the scalar while condition.
    const __m256d below = strict ? _mm256_cmp_pd(k, vlo, _CMP_LE_OQ)
                                 : _mm256_cmp_pd(k, vlo, _CMP_LT_OQ);
    const int stop = (~_mm256_movemask_pd(below)) & 0xF;
    if (stop != 0) return i + __builtin_ctz(static_cast<unsigned>(stop));
  }
  for (; i < n; ++i) {
    if (!(strict ? keys[i] <= lo : keys[i] < lo)) return i;
  }
  return n;
}

int LeafStop(const double* keys, int i0, int n, double hi, bool strict) {
  const __m256d vhi = _mm256_set1_pd(hi);
  int i = i0;
  for (; i + 4 <= n; i += 4) {
    const __m256d k = _mm256_loadu_pd(keys + i);
    const __m256d over = strict ? _mm256_cmp_pd(k, vhi, _CMP_GE_OQ)
                                : _mm256_cmp_pd(k, vhi, _CMP_GT_OQ);
    const int m = _mm256_movemask_pd(over);
    if (m != 0) return i + __builtin_ctz(static_cast<unsigned>(m));
  }
  for (; i < n; ++i) {
    if (strict ? keys[i] >= hi : keys[i] > hi) return i;
  }
  return n;
}

size_t RunSplit(const int64_t* times, size_t i, size_t n) {
  const __m256i ts = _mm256_set1_epi64x(times[i]);
  size_t j = i + 1;
  for (; j + 4 <= n; j += 4) {
    const __m256i t = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(times + j));
    const int eq = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(t, ts)));
    if (eq != 0xF) {
      return j + __builtin_ctz(static_cast<unsigned>(~eq & 0xF));
    }
  }
  for (; j < n; ++j) {
    if (times[j] != times[i]) return j;
  }
  return n;
}

// 64x64 -> low 64 multiply from 32-bit pieces (AVX2 has no mullo_epi64).
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i t1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i t2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i cross = _mm256_add_epi64(t1, t2);
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

void SplitMixBulk(uint64_t* h, size_t n) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 33));
    v = MulLo64(v, c1);
    v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 33));
    v = MulLo64(v, c2);
    v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 33));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + i), v);
  }
  for (; i < n; ++i) h[i] = detail::SplitMix(h[i]);
}

}  // namespace

const Kernels& Avx2Kernels() {
  static const Kernels k = {
      &FilterSel, &RangeSelect, &LeafSkip,
      &LeafStop,  &RunSplit,    &SplitMixBulk,
  };
  return k;
}

bool Avx2Compiled() { return true; }

}  // namespace greta::simd

#else  // !__AVX2__

namespace greta::simd {
const Kernels& Avx2Kernels() { return ScalarKernels(); }
bool Avx2Compiled() { return false; }
}  // namespace greta::simd

#endif
