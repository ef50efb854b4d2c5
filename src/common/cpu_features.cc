#include "common/cpu_features.h"

namespace vitex::common {

namespace {

CpuFeatures Detect() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is part of the x86-64 baseline ABI: no probe needed.
  features.sse2 = true;
#if defined(__GNUC__) || defined(__clang__)
  // __builtin_cpu_supports consults cpuid (and xgetbv for AVX state, on
  // compilers new enough to matter) so an AVX2 binary never executes VEX
  // instructions on a CPU or OS that cannot run them.
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#endif
  return features;
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

}  // namespace vitex::common
