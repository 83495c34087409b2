#include "ff/nonbonded_simd.hpp"

#include <atomic>
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

// The active ISA affects dispatch speed only — every variant is
// bit-identical — so one process-global is safe even with several engines
// in flight (fleet runs): whatever value a worker reads, the physics is
// the same.
struct IsaState {
  bool env_forced = false;
  std::atomic<KernelIsa> active{KernelIsa::kScalar};
  IsaState() {
    const char* env = std::getenv("ANTMD_FORCE_ISA");
    if (env != nullptr && *env != '\0') {
      const KernelIsa isa = parse_kernel_isa(env);
      if (!kernel_isa_supported(isa)) {
        throw ConfigError(std::string("ANTMD_FORCE_ISA=") + env +
                          " is not supported by this build/CPU");
      }
      active.store(isa, std::memory_order_relaxed);
      env_forced = true;
    } else {
      active.store(probe_kernel_isa(), std::memory_order_relaxed);
    }
  }
};

IsaState& isa_state() {
  static IsaState s;  // resolves the env override exactly once
  return s;
}

}  // namespace

KernelIsa active_kernel_isa() {
  return isa_state().active.load(std::memory_order_relaxed);
}

void set_kernel_isa(KernelIsa isa) {
  if (!kernel_isa_supported(isa)) {
    throw ConfigError(std::string("kernel ISA \"") + to_string(isa) +
                      "\" is not supported by this build/CPU");
  }
  IsaState& s = isa_state();
  if (s.env_forced) return;  // the differential harness's override wins
  s.active.store(isa, std::memory_order_relaxed);
}

}  // namespace antmd::ff
