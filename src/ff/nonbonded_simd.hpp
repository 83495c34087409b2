// Runtime ISA dispatch for the integer-SIMD cluster-pair kernels.
//
// The vector kernels (nonbonded_simd_{avx2,avx512}.cpp, each compiled
// with its own -m flags) are drop-in replacements for the scalar tile loop
// in nonbonded_cluster.cpp: same fixed-point quantize-once contract, same
// canonical 8-bucket virial grouping, bit-identical results on every input.
// Because every variant produces the same bits, the active ISA is a plain
// process-global — it affects speed, never trajectories — resolved once
// from (highest priority first):
//
//   1. the ANTMD_FORCE_ISA environment variable ("scalar" | "avx2" |
//      "avx512") — the cross-ISA differential harness's hook;
//   2. an explicit set_kernel_isa() call (the `nonbonded_simd` config key);
//   3. a cpuid probe picking the widest ISA this binary and CPU support.
//
// Forcing an ISA the build or CPU lacks throws ConfigError — a forced run
// must never silently fall back.  Per-call fallback to scalar still happens
// when a list/table combination is outside the SIMD kernels' envelope
// (non-uniform custom-table geometry; see PairTableSet::simd_arena).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "ff/nonbonded_cluster.hpp"

namespace antmd::ff {

/// Instruction sets the cluster kernel can dispatch to, widest last.
enum class KernelIsa : uint8_t {
  kScalar = 0,
  kAvx2 = 2,
  kAvx512 = 3,
};

[[nodiscard]] const char* to_string(KernelIsa isa);
/// Parses "scalar" / "avx2" / "avx512"; throws ConfigError.
[[nodiscard]] KernelIsa parse_kernel_isa(const std::string& name);

/// True when `isa` is both compiled into this binary and reported by
/// cpuid.  kScalar is always supported.
[[nodiscard]] bool kernel_isa_supported(KernelIsa isa);

/// The widest supported ISA (what auto-dispatch picks).
[[nodiscard]] KernelIsa probe_kernel_isa();

/// The ISA compute_cluster_entries currently dispatches to.  First call
/// resolves ANTMD_FORCE_ISA (throws ConfigError if it names an unknown or
/// unsupported ISA) and falls back to probe_kernel_isa().
[[nodiscard]] KernelIsa active_kernel_isa();

/// Sets the active ISA (config path).  Throws ConfigError when `isa` is
/// not supported.  ANTMD_FORCE_ISA still wins: when the env override is
/// present this is a no-op, so a forced differential run cannot be undone
/// by a config default.
void set_kernel_isa(KernelIsa isa);

// Per-ISA tile-loop entry points, one per TU so each can carry its own
// target flags.  Same signature and same results as the scalar path in
// compute_cluster_entries; callers must have checked
// tables.simd_arena().valid.  Only the variants the build supports are
// defined (ANTMD_HAVE_SIMD_* from CMake).
#if defined(ANTMD_HAVE_SIMD_AVX2)
void compute_cluster_entries_avx2(const ClusterPairList& list,
                                  std::span<const ClusterPairEntry> entries,
                                  const PairTableSet& tables, const Box& box,
                                  FixedForceArray& forces,
                                  EnergyBreakdown& energy, Mat3& virial,
                                  double vdw_scale,
                                  double charge_product_scale);
#endif
#if defined(ANTMD_HAVE_SIMD_AVX512)
void compute_cluster_entries_avx512(const ClusterPairList& list,
                                    std::span<const ClusterPairEntry> entries,
                                    const PairTableSet& tables, const Box& box,
                                    FixedForceArray& forces,
                                    EnergyBreakdown& energy, Mat3& virial,
                                    double vdw_scale,
                                    double charge_product_scale);
#endif

}  // namespace antmd::ff
