#ifndef PPFR_LA_SIMD_KERNELS_H_
#define PPFR_LA_SIMD_KERNELS_H_

namespace ppfr::la::simd {

// Runtime CPU feature probes (cached after the first call). They describe the
// host in bench and perfbench artifacts; no kernel is selected by them. On
// non-x86 builds both return false.
bool CpuSupportsAvx2Fma();
bool CpuSupportsAvx512();

}  // namespace ppfr::la::simd

#endif  // PPFR_LA_SIMD_KERNELS_H_
