#ifndef GRETA_COMMON_SIMD_H_
#define GRETA_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace greta::simd {

/// Instruction sets the hot-loop kernels are compiled for. Ordered: a
/// higher value is a superset of the lower ones on the host CPU.
enum class Isa : uint8_t { kScalar = 0, kAvx2 = 1 };

/// Stable lowercase name for metric labels and bench columns:
/// "scalar" | "avx2".
const char* IsaName(Isa isa);

/// Comparison ops with the projected value on the LEFT. Mirrored
/// predicates (`const CMP attr`) are pre-flipped at plan time —
/// Value::Compare is antisymmetric (including its kind-ordering path), so
/// flipping the operator is exact.
enum class CmpOp : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// One projected attribute column: a Value row decomposed into dense lanes
/// so the 16-byte tagged union never appears inside a vector loop.
///  - dval: Value::ToDouble() of numeric rows (exactly the coercion the
///    scalar compare uses for mixed int/double operands);
///  - ival: the exact int64 payload of kInt rows, or the interned string id
///    of kStr rows (Value::Compare orders strings by id);
///  - tag:  Value::Kind as a byte; 0 (null) also marks rows that do not
///    carry the attribute at all, which EvalCmp rejects identically.
struct NumColumn {
  const double* dval = nullptr;
  const int64_t* ival = nullptr;
  const uint8_t* tag = nullptr;
};

/// A compare-against-constant, fully resolved at plan time (or once per
/// event for NEXT-attr residuals): the op is value-on-left, the rhs is
/// decomposed by kind, and the constant results for kind-mismatched lanes
/// are precomputed so the kernel never consults Value::Compare.
///
/// `mismatch_pass` is the EvalCmp result for lanes in the *other*
/// comparability class than the rhs (string lanes under a numeric rhs, and
/// numeric lanes under a string rhs): false for kEq, true for kNe, and the
/// release-build kind-ordering result of Value::Compare for the orderings.
struct CmpConst {
  CmpOp op = CmpOp::kEq;
  uint8_t rhs_kind = 0;  // Value::Kind as uint8_t; 0 (null) => nothing passes
  uint8_t mismatch_pass = 0;
  double rhs_d = 0.0;   // numeric rhs coerced to double (int rhs: exact cast)
  int64_t rhs_i = 0;    // int rhs payload, or string rhs id
};

/// The per-ISA kernel table. Every entry is semantically EXACT against the
/// scalar loop it replaces — including NaN, null rejection, exact int/int
/// ordering, and the strict/non-strict bound asymmetries — so dispatch is
/// purely a speed choice, never a results choice.
struct Kernels {
  /// Compacts sel[0..n) (indices into the column arrays, biased by
  /// `rebase`: lane i reads col.*[sel[i] - rebase]) to the lanes passing
  /// `cmp`, preserving relative order; returns the surviving count.
  size_t (*filter_sel)(const NumColumn& col, const CmpConst& cmp,
                       uint32_t rebase, uint32_t* sel, size_t n);

  /// Appends to `out` every j in [begin,end) whose keys[j] is admitted by
  /// the (lo, hi) bounds, ascending; returns the appended count. Bound
  /// tests mirror the per-event re-filter loop: a lane is rejected iff
  /// (lo_strict ? key <= lo : key < lo) or (hi_strict ? key >= hi : key > hi).
  size_t (*range_select)(const double* keys, uint32_t begin, uint32_t end,
                         double lo, bool lo_strict, double hi, bool hi_strict,
                         uint32_t* out);

  /// B+-tree leaf skip phase: first i in [0,n) where NOT
  /// (strict ? keys[i] <= lo : keys[i] < lo); n when every key skips.
  int (*leaf_skip)(const double* keys, int n, double lo, bool strict);

  /// B+-tree leaf emit-phase bound: first i in [i0,n) where
  /// (strict ? keys[i] >= hi : keys[i] > hi); n when no key stops the scan.
  int (*leaf_stop)(const double* keys, int i0, int n, double hi, bool strict);

  /// Equal-timestamp run boundary: first j in (i,n) with times[j] !=
  /// times[i]; n when the run covers the rest of the column.
  size_t (*run_split)(const int64_t* times, size_t i, size_t n);

  /// splitmix64 avalanche finalization, in place over h[0..n) (the shard
  /// router's per-row hash mix).
  void (*splitmix_bulk)(uint64_t* h, size_t n);
};

/// The table for the dispatched ISA: resolved once (cpuid + the
/// GRETA_SIMD=scalar|avx2 override; other values are ignored) on first
/// use.
const Kernels& Dispatch();

/// The ISA Dispatch() currently routes to.
Isa DispatchedIsa();

/// The best ISA this binary + CPU pair supports (ignores the env override
/// and any ForceIsa).
Isa DetectedIsa();

/// Test/ablation hook: re-point Dispatch() at `isa`, clamped to
/// DetectedIsa(). Not thread-safe against concurrent kernel use.
void ForceIsa(Isa isa);

/// Per-ISA tables. Entries with no profitable vector form (or compiled
/// without the ISA) point at the scalar implementation, so every table is
/// always safe to call.
const Kernels& ScalarKernels();
const Kernels& Avx2Kernels();

/// Whether the per-ISA translation unit was actually built with the ISA
/// enabled (false on non-x86 targets, where the table aliases scalar).
bool Avx2Compiled();

}  // namespace greta::simd

#endif  // GRETA_COMMON_SIMD_H_
