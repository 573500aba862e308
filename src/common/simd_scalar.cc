#include "common/simd.h"
#include "common/simd_scalar.inl.h"

namespace greta::simd {

// The portable table: every dispatch target falls back here per entry when
// an ISA has no vector form, and the differential tests pin GRETA_SIMD=scalar
// to this table to produce the reference rows.
const Kernels& ScalarKernels() {
  static const Kernels k = {
      &detail::FilterSel, &detail::RangeSelect, &detail::LeafSkip,
      &detail::LeafStop,  &detail::RunSplit,    &detail::SplitMixBulk,
  };
  return k;
}

}  // namespace greta::simd
