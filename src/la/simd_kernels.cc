#include "la/simd_kernels.h"

namespace ppfr::la::simd {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

bool CpuSupportsAvx2Fma() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return supported;
}

bool CpuSupportsAvx512() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
  }();
  return supported;
}

#else

bool CpuSupportsAvx2Fma() { return false; }
bool CpuSupportsAvx512() { return false; }

#endif

}  // namespace ppfr::la::simd
