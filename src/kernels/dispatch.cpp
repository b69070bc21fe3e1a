#include "kernels/dispatch.h"

namespace cny::kernels {

namespace {

bool detect_avx2() {
#if defined(CNY_SIMD) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

bool simd_compiled() {
#if defined(CNY_SIMD)
  return true;
#else
  return false;
#endif
}

bool simd_supported() {
  // CPUID probe cached once: the answer cannot change within a process.
  static const bool supported = detect_avx2();
  return supported;
}

const char* backend_name() { return simd_supported() ? "avx2" : "scalar"; }

}  // namespace cny::kernels
