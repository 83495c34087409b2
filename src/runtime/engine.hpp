// DistributedEngine: evaluates forces exactly as the single-host ForceField
// does, but partitioned across the modeled machine's nodes, producing (a) a
// bit-identical ForceResult regardless of node count and lane count — the
// determinism the real machine's fixed-point arithmetic guarantees — and
// (b) per-node workload counts for the timing model.
//
// One evaluation runs md::ForceGraph, the graph the host runs too, with one
// slot per node: the node's bonded and extension terms, then its pair or
// tile share.  Slots merge in ascending node order, so the result is
// bit-identical at any lane count.  What is specific to the machine is the
// node partition, the wire-format position snap and the workload
// accounting, which redistribute() computes once per partition.
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
#include "md/force_graph.hpp"
#include "runtime/decomposition.hpp"
#include "util/execution.hpp"

namespace antmd::runtime {

struct EngineOptions {
  PairAssignment pair_rule = PairAssignment::kHomeOfFirst;
  /// Host lanes for the evaluation graph.  Per-node partials are merged in
  /// ascending node index order, so the result — including the
  /// double-precision virial — is bit-identical at any lane count.
  ExecutionConfig execution;
};

class DistributedEngine {
 public:
  DistributedEngine(ForceField& ff, const machine::MachineConfig& config,
                    EngineOptions options = {});

  /// Reassigns atoms and work to nodes, copying the force field's terms
  /// into the node partitions; call whenever the global neighbor list was
  /// rebuilt (atom migration happens at list rebuilds on Anton too) or the
  /// force field changed (partitions_stale()).  When `clusters` is non-null
  /// the engine partitions and evaluates the blocked cluster-pair tiles
  /// instead of the flat pairs (the tile list must stay alive until the
  /// next redistribute) and charges the timing model per streamed tile
  /// lane.
  void redistribute(std::span<const Vec3> positions, const Box& box,
                    std::span<const ff::PairEntry> pairs,
                    const ff::ClusterPairList* clusters = nullptr);

  /// True when the force field was mutated after the last redistribute(),
  /// so the partitions hold stale copies of its terms.
  [[nodiscard]] bool partitions_stale() const {
    return generation_ != ff_->generation();
  }

  /// Snaps `positions` to the wire format and evaluates all forces.
  /// `kspace_cache` is reused when !kspace_due.  Returns the machine-wide
  /// workload of this step for the timing model.
  machine::StepWork evaluate(std::span<Vec3> positions, const Box& box,
                             double time, bool kspace_due, ForceResult& out,
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
  [[nodiscard]] const std::shared_ptr<util::TaskRuntime>& runtime() const {
    return runtime_;
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

    /// This node's geometry-core terms; the external field acts on the
    /// atoms it owns.
    [[nodiscard]] ff::BondedTerms terms() const {
      return {bonds,          angles,          dihedrals,   morse_bonds,
              urey_bradleys,  impropers,       go_contacts, pairs14,
              pos_restraints, dist_restraints, springs,     biases,
              dihedral_biases, owned_atoms};
    }
  };

  /// Each node's communication and compute workload per evaluation.
  void fill_node_work();
  /// Owner of `atom` after remapping away from failed nodes.
  [[nodiscard]] size_t effective_node(size_t node) const;

  ForceField* ff_;
  machine::TorusTopology torus_;
  EngineOptions options_;
  SpatialDecomposition decomp_;
  std::vector<NodePartition> parts_;
  std::vector<md::ForceSlot> slots_;          ///< one per node, over parts_
  std::vector<machine::NodeWork> node_work_;  ///< per evaluation, per node
  machine::KspaceWork kspace_work_;  ///< per k-space evaluation
  /// Non-null between a cluster-mode redistribute and the next one; owned
  /// by the caller (the neighbor list object outlives its rebuilds).
  const ff::ClusterPairList* clusters_ = nullptr;
  std::vector<char> failed_;  ///< per-node failure flags (empty = all alive)
  uint64_t generation_ = 0;   ///< ff_->generation() at the last redistribute
  machine::GcCosts costs_;
  std::shared_ptr<util::TaskRuntime> runtime_;
  /// Mutable: its partial sums are scratch, and evaluation is logically
  /// const.
  mutable md::ForceGraph graph_;
};

}  // namespace antmd::runtime
