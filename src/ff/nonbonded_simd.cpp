#include "ff/nonbonded_simd.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace antmd::ff {

const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "scalar";
}

KernelIsa parse_kernel_isa(const std::string& name) {
  if (name == "scalar") return KernelIsa::kScalar;
  if (name == "avx2") return KernelIsa::kAvx2;
  if (name == "avx512") return KernelIsa::kAvx512;
  throw ConfigError(
      "kernel ISA must be \"scalar\", \"avx2\" or \"avx512\", "
      "got \"" + name + "\"");
}

bool kernel_isa_supported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#if defined(ANTMD_HAVE_SIMD_AVX2)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#if defined(ANTMD_HAVE_SIMD_AVX512)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

KernelIsa probe_kernel_isa() {
  if (kernel_isa_supported(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (kernel_isa_supported(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

namespace {

// Resolves the active ISA once per process: ANTMD_FORCE_ISA when set (the
// differential harness's pin), the cpuid probe otherwise.  The ISA affects
// dispatch speed only — every variant is bit-identical — so one
// process-global is safe even with several engines in flight (fleet runs).
KernelIsa resolve_kernel_isa() {
  const char* env = std::getenv("ANTMD_FORCE_ISA");
  if (env == nullptr || *env == '\0') return probe_kernel_isa();
  const KernelIsa isa = parse_kernel_isa(env);
  if (!kernel_isa_supported(isa)) {
    throw ConfigError(std::string("ANTMD_FORCE_ISA=") + env +
                      " is not supported by this build/CPU");
  }
  return isa;
}

}  // namespace

KernelIsa active_kernel_isa() {
  static const KernelIsa isa = resolve_kernel_isa();
  return isa;
}

ClusterTileLoop cluster_tile_loop(KernelIsa isa) {
  if (!kernel_isa_supported(isa)) {
    throw ConfigError(std::string("kernel ISA ") + to_string(isa) +
                      " is not supported by this build/CPU");
  }
  switch (isa) {
#if defined(ANTMD_HAVE_SIMD_AVX2)
    case KernelIsa::kAvx2:
      return &compute_cluster_entries_avx2;
#endif
#if defined(ANTMD_HAVE_SIMD_AVX512)
    case KernelIsa::kAvx512:
      return &compute_cluster_entries_avx512;
#endif
    default:
      return &compute_cluster_entries_scalar;
  }
}

}  // namespace antmd::ff
