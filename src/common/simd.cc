#include "common/simd.h"

#include <cstdlib>
#include <cstring>

namespace greta::simd {

namespace {

const Kernels& TableFor(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return Avx2Kernels();
    case Isa::kScalar: return ScalarKernels();
  }
  return ScalarKernels();
}

// Best ISA both the CPU and this binary support. Checked once; the per-ISA
// translation units are only reachable behind this gate, so their
// intrinsics never execute on hardware without the feature.
Isa DetectBest() {
#if defined(__x86_64__) || defined(__i386__)
  if (Avx2Compiled() && __builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

Isa ApplyOverride(Isa detected) {
  const char* env = std::getenv("GRETA_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  Isa wanted = detected;
  if (std::strcmp(env, "scalar") == 0) {
    wanted = Isa::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    wanted = Isa::kAvx2;
  }
  // The override can only narrow: requesting an ISA the host lacks keeps
  // the detected one (never dispatch unsupported instructions).
  return wanted < detected ? wanted : detected;
}

struct DispatchState {
  Isa detected;
  Isa active;
  const Kernels* table;
  DispatchState() {
    detected = DetectBest();
    active = ApplyOverride(detected);
    table = &TableFor(active);
  }
};

DispatchState& State() {
  static DispatchState s;
  return s;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: return "scalar";
  }
  return "scalar";
}

const Kernels& Dispatch() { return *State().table; }

Isa DispatchedIsa() { return State().active; }

Isa DetectedIsa() { return State().detected; }

void ForceIsa(Isa isa) {
  DispatchState& s = State();
  s.active = isa < s.detected ? isa : s.detected;
  s.table = &TableFor(s.active);
}

}  // namespace greta::simd
