// Single source of truth for the SIMD capability gates of the packed
// engines' intrinsics (core/sei_network.cpp). Kernel
// selection (core/plan.cpp) does not depend on them: every kernel has a
// portable twin that produces the same bits, so a gate only picks how a
// kernel is compiled.
#pragma once

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#define SEI_CORE_AVX512 1
#endif
#if !defined(SEI_CORE_AVX512) && defined(__BMI2__)
#include <immintrin.h>
#endif

namespace sei::core {

/// True when the AVX-512 intrinsics of the packed kernels (the conv0_tile
/// strip, the row-scatter compare and vote) are compiled into this binary. SEI_NATIVE=OFF builds are false and take the portable
/// fallbacks, which produce the same bits.
#ifdef SEI_CORE_AVX512
inline constexpr bool kHaveAvx512 = true;
#else
inline constexpr bool kHaveAvx512 = false;
#endif

}  // namespace sei::core
