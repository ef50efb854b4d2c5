// Runtime CPU feature detection for kernel dispatch.
//
// The scan kernels (xml/simd_scan.h) pick an implementation tier once at
// startup: AVX2 when the CPU has it, else SSE2 (architecturally guaranteed
// on x86-64), else plain scalar (every other architecture). Detection is
// done here so future vectorized subsystems share one cpuid story.

#ifndef VITEX_COMMON_CPU_FEATURES_H_
#define VITEX_COMMON_CPU_FEATURES_H_

namespace vitex::common {

struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
};

/// Detected features of the executing CPU. Probed once, cached; safe to
/// call concurrently.
const CpuFeatures& GetCpuFeatures();

}  // namespace vitex::common

#endif  // VITEX_COMMON_CPU_FEATURES_H_
