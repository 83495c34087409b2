// DistributedEngine: evaluates forces exactly as the single-host ForceField
// does, but partitioned across the modeled machine's nodes, producing (a) a
// bit-identical ForceResult regardless of node count — the determinism the
// real machine's fixed-point arithmetic guarantees — and (b) per-node
// workload counts for the timing model.
//
// Kernel → hardware-unit mapping (the paper's central design point):
//   tabulated pair interactions  → HTIS pairwise pipelines
//   bonded terms, 1-4 pairs, restraints, steered springs, external fields,
//   constraints, virtual sites, integration, tempering decisions
//                                → programmable geometry cores
//   k-space (spread/FFT/convolve/interpolate)
//                                → geometry cores + all-to-all transposes
#pragma once

#include <memory>
#include <vector>

#include "ff/forcefield.hpp"
#include "machine/timing.hpp"
#include "runtime/decomposition.hpp"
#include "util/execution.hpp"

namespace antmd::runtime {

struct EngineOptions {
  PairAssignment pair_rule = PairAssignment::kHomeOfFirst;
  /// Host-thread parallelism for per-node partition evaluation.  Per-node
  /// partials are merged in ascending node index order, so the trajectory —
  /// including the double-precision virial — is bit-identical to the serial
  /// path at any thread count.
  ExecutionConfig execution;
};

class DistributedEngine {
 public:
  DistributedEngine(ForceField& ff, const machine::MachineConfig& config,
                    EngineOptions options = {});

  /// Reassigns atoms and work to nodes; call whenever the global neighbor
  /// list was rebuilt (atom migration happens at list rebuilds on Anton
  /// too).  When `clusters` is non-null the engine partitions and evaluates
  /// the blocked cluster-pair tiles instead of the flat pairs (the tile
  /// list must stay alive until the next redistribute) and charges the
  /// timing model per streamed tile lane.
  void redistribute(std::span<const Vec3> positions, const Box& box,
                    std::span<const ff::PairEntry> pairs,
                    const ff::ClusterPairList* clusters = nullptr);

  /// Evaluates all forces.  `kspace_cache` is reused when !kspace_due.
  /// Returns the machine-wide workload of this step for the timing model.
  machine::StepWork evaluate(std::span<Vec3> positions, const Box& box,
                             double time,
                             std::span<const ff::PairEntry> pairs,
                             bool kspace_due, ForceResult& out,
                             ForceResult& kspace_cache) const;

  [[nodiscard]] const SpatialDecomposition& decomposition() const {
    return decomp_;
  }
  [[nodiscard]] size_t node_count() const { return torus_.node_count(); }

  // --- fault tolerance --------------------------------------------------------
  /// Marks a modeled node as failed.  Its work (atoms, pairs, bonded terms)
  /// is remapped to the next alive node in index order at the next
  /// redistribute().  Because the fixed-point force and energy sums are
  /// order- and grouping-independent, the trajectory is bit-identical to the
  /// healthy machine; only the timing (and the double-precision virial, in
  /// its last ulp) can change.  The kNodeFail fault point fires this
  /// automatically inside redistribute().
  void set_node_failed(size_t node, bool failed = true);
  [[nodiscard]] bool node_failed(size_t node) const {
    return node < failed_.size() && failed_[node];
  }
  [[nodiscard]] size_t alive_node_count() const;
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const machine::TorusTopology& torus() const { return torus_; }
  /// Shared so the machine force provider (MachineForces) can reuse the
  /// same pool for neighbor-list rebuilds.
  [[nodiscard]] const std::shared_ptr<ExecutionContext>& execution() const {
    return exec_;
  }

 private:
  struct NodePartition {
    std::vector<ff::PairEntry> pairs;
    /// Cluster mode: this node's tile slice (pairs stays empty) plus its
    /// real-pair mask popcount for workload accounting.
    std::vector<ff::ClusterPairEntry> cluster_entries;
    size_t cluster_real_pairs = 0;
    std::vector<Bond> bonds;
    std::vector<Angle> angles;
    std::vector<Dihedral> dihedrals;
    std::vector<MorseBond> morse_bonds;
    std::vector<UreyBradley> urey_bradleys;
    std::vector<Improper> impropers;
    std::vector<GoContact> go_contacts;
    std::vector<Pair14> pairs14;
    std::vector<ff::PositionRestraint> pos_restraints;
    std::vector<ff::DistanceRestraint> dist_restraints;
    std::vector<ff::SteeredSpring> springs;
    std::vector<ff::PairBias> biases;
    std::vector<ff::DihedralBias> dihedral_biases;
    std::vector<uint32_t> owned_atoms;
    std::vector<VirtualSite> vsites;
    size_t constraint_count = 0;
    // Communication accounting (bytes per step, fixed-point wire format).
    double import_bytes = 0.0;
    double export_bytes = 0.0;
    size_t messages = 0;
  };

  void fill_comm_counts(std::span<const Vec3> positions, const Box& box);
  /// Owner of `atom` after remapping away from failed nodes.
  [[nodiscard]] size_t effective_node(size_t node) const;
  void evaluate_node(const NodePartition& part, std::span<const Vec3> positions,
                     const Box& box, double time, ForceResult& partial,
                     machine::NodeWork& nw) const;
  /// Wires the per-evaluate DAG: node kernels ∥ kspace → parallel atom-range
  /// force fold → ascending-node energy/virial merge + vsite spread.
  void build_eval_graph() const;
  /// Reciprocal-space recompute (when due) plus its workload accounting;
  /// the cache merge stays with the caller's reduction.
  void kspace_phase(std::span<const Vec3> positions, const Box& box,
                    bool kspace_due, ForceResult& kspace_cache,
                    machine::StepWork& work) const;

  ForceField* ff_;
  machine::TorusTopology torus_;
  EngineOptions options_;
  SpatialDecomposition decomp_;
  std::vector<NodePartition> parts_;
  /// Non-null between a cluster-mode redistribute and the next one; owned
  /// by the caller (the neighbor list object outlives its rebuilds).
  const ff::ClusterPairList* clusters_ = nullptr;
  std::vector<char> failed_;  ///< per-node failure flags (empty = all alive)
  machine::GcCosts costs_;
  std::shared_ptr<ExecutionContext> exec_;
  /// Per-node ForceResult scratch reused across steps (parallel path only).
  mutable std::vector<ForceResult> partials_scratch_;

  /// Per-evaluate task graph (built lazily; parallel deterministic path
  /// only) plus the per-call parameters its task bodies read.  Mutable for
  /// the same reason as the scratch: evaluation is logically const.
  struct EvalCall {
    std::span<const Vec3> positions;
    const Box* box = nullptr;
    double time = 0.0;
    bool kspace_due = false;
    ForceResult* out = nullptr;
    ForceResult* kspace_cache = nullptr;
    machine::StepWork* work = nullptr;
  };
  mutable std::unique_ptr<util::TaskGraph> eval_graph_;
  mutable util::ChunkPlan fold_plan_;
  mutable EvalCall call_;
};

}  // namespace antmd::runtime
