#include "runtime/engine.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::runtime {

namespace {

// Registry lookups go through a mutex; resolve the handles once and reuse
// them on every step.
struct EngineMetrics {
  obs::Counter& evaluate_ns;
  obs::Counter& redistribute_ns;
  obs::Counter& kspace_ns;
  obs::Counter& node_eval_ns;
  obs::Counter& node_evals;
  obs::Counter& redistributes;
  obs::Counter& remaps;
  obs::Gauge& alive_nodes;
};

EngineMetrics& engine_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static EngineMetrics m{reg.counter("runtime.evaluate.time_ns"),
                         reg.counter("runtime.redistribute.time_ns"),
                         reg.counter("runtime.kspace.time_ns"),
                         reg.counter("runtime.node_eval.time_ns"),
                         reg.counter("runtime.node_eval.count"),
                         reg.counter("runtime.redistribute.count"),
                         reg.counter("runtime.remap.count"),
                         reg.gauge("runtime.alive_nodes")};
  return m;
}

// Trace-track id space: worker threads use their thread index, engine nodes
// live at kSyntheticTrackBase+node so Chrome renders one row per modeled
// node; TraceSession namespaces these per fleet run (obs/trace.hpp).
constexpr uint32_t kNodeTrackBase = obs::kSyntheticTrackBase;

}  // namespace

DistributedEngine::DistributedEngine(ForceField& ff,
                                     const machine::MachineConfig& config,
                                     EngineOptions options)
    : ff_(&ff),
      torus_(config),
      options_(options),
      decomp_(torus_, Box()),
      exec_(ExecutionContext::create(options.execution)) {}

void DistributedEngine::redistribute(std::span<const Vec3> positions,
                                     const Box& box,
                                     std::span<const ff::PairEntry> pairs,
                                     const ff::ClusterPairList* clusters) {
  obs::TracePhase phase("runtime.redistribute", "runtime",
                        &engine_metrics().redistribute_ns);
  engine_metrics().redistributes.add();

  // Fault point: a node may die right before migration; its work lands on
  // the next alive node below.
  uint64_t dead = 0;
  if (fault::should_fire(fault::FaultKind::kNodeFail, &dead)) {
    set_node_failed(dead % torus_.node_count());
    engine_metrics().remaps.add();
  }

  const Topology& topo = ff_->topology();
  generation_ = ff_->generation();
  decomp_.assign_atoms(positions, box);

  parts_.assign(torus_.node_count(), NodePartition{});
  const auto& owners = decomp_.owners();
  // All work routed through the failure remap (identity when all alive).
  auto owner = [&](uint32_t atom) { return effective_node(owners[atom]); };

  clusters_ = clusters;
  if (clusters_ != nullptr) {
    // One tile lives on the node owning its lead cluster's lead atom (the
    // whole-cluster analogue of kHomeOfFirst); the flat pairs are not
    // partitioned — the tiles carry the full pair set.
    for (const ff::ClusterPairEntry& e : clusters_->entries) {
      NodePartition& part = parts_[effective_node(
          owners[clusters_->atoms[static_cast<size_t>(e.ci) *
                                  clusters_->width]])];
      part.cluster_entries.push_back(e);
      part.cluster_real_pairs += static_cast<size_t>(std::popcount(e.mask));
    }
  } else {
    auto pair_nodes = decomp_.assign_pairs(pairs, positions, box,
                                           options_.pair_rule);
    for (size_t k = 0; k < pairs.size(); ++k) {
      parts_[effective_node(pair_nodes[k])].pairs.push_back(pairs[k]);
    }
  }
  for (const Bond& b : topo.bonds()) parts_[owner(b.i)].bonds.push_back(b);
  for (const Angle& a : topo.angles()) {
    parts_[owner(a.j)].angles.push_back(a);
  }
  for (const Dihedral& d : topo.dihedrals()) {
    parts_[owner(d.j)].dihedrals.push_back(d);
  }
  for (const MorseBond& b : topo.morse_bonds()) {
    parts_[owner(b.i)].morse_bonds.push_back(b);
  }
  for (const UreyBradley& u : topo.urey_bradleys()) {
    parts_[owner(u.i)].urey_bradleys.push_back(u);
  }
  for (const Improper& d : topo.impropers()) {
    parts_[owner(d.j)].impropers.push_back(d);
  }
  for (const GoContact& g : topo.go_contacts()) {
    parts_[owner(g.i)].go_contacts.push_back(g);
  }
  for (const Pair14& p : topo.pairs14()) {
    parts_[owner(p.i)].pairs14.push_back(p);
  }
  for (const auto& r : ff_->position_restraints()) {
    parts_[owner(r.atom)].pos_restraints.push_back(r);
  }
  for (const auto& r : ff_->distance_restraints()) {
    parts_[owner(r.i)].dist_restraints.push_back(r);
  }
  for (const auto& s : ff_->steered_springs()) {
    parts_[owner(s.i)].springs.push_back(s);
  }
  for (const auto& b : ff_->pair_biases()) {
    parts_[owner(b.i)].biases.push_back(b);
  }
  for (const auto& b : ff_->dihedral_biases()) {
    parts_[owner(b.j)].dihedral_biases.push_back(b);
  }
  for (const auto& v : topo.virtual_sites()) {
    parts_[owner(v.parents[0])].vsites.push_back(v);
  }
  for (const auto& c : topo.constraints()) {
    ++parts_[owner(c.i)].constraint_count;
  }
  for (uint32_t i = 0; i < topo.atom_count(); ++i) {
    parts_[owner(i)].owned_atoms.push_back(i);
  }

  fill_comm_counts(positions, box);

  if (obs::enabled()) {
    engine_metrics().alive_nodes.set(
        static_cast<double>(alive_node_count()));
    if (obs::TraceSession::global().recording()) {
      for (size_t n = 0; n < parts_.size(); ++n) {
        obs::TraceSession::global().set_track_name(
            kNodeTrackBase + static_cast<uint32_t>(n),
            "node " + std::to_string(n));
      }
    }
  }
}

void DistributedEngine::fill_comm_counts(std::span<const Vec3> /*positions*/,
                                         const Box& /*box*/) {
  const auto& owners = decomp_.owners();
  auto owner = [&](uint32_t atom) { return effective_node(owners[atom]); };
  constexpr double kPosBytes = 12.0;    // 3 × int32 fixed-point position
  constexpr double kForceBytes = 12.0;  // 3 × int32 force quanta

  for (size_t n = 0; n < parts_.size(); ++n) {
    NodePartition& part = parts_[n];
    std::unordered_set<uint32_t> imported;
    std::unordered_set<uint32_t> sources;
    auto need = [&](uint32_t atom) {
      if (owner(atom) != n && imported.insert(atom).second) {
        sources.insert(owner(atom));
      }
    };
    for (const auto& p : part.pairs) { need(p.i); need(p.j); }
    // Cluster tiles import whole clusters: the hardware multicasts all of a
    // cluster's positions to the evaluating node whether or not every lane
    // is masked in (that coarsening is the import cost of blocking).
    for (const auto& e : part.cluster_entries) {
      for (unsigned k = 0; k < clusters_->width; ++k) {
        uint32_t ai =
            clusters_->atoms[static_cast<size_t>(e.ci) * clusters_->width + k];
        if (ai != ff::kPadAtom) need(ai);
      }
      for (unsigned k = 0; k < ff::kClusterJWidth; ++k) {
        uint32_t aj = clusters_->atoms[static_cast<size_t>(e.cj) *
                                           ff::kClusterJWidth +
                                       k];
        if (aj != ff::kPadAtom) need(aj);
      }
    }
    for (const auto& b : part.bonds) { need(b.i); need(b.j); }
    for (const auto& a : part.angles) { need(a.i); need(a.j); need(a.k_atom); }
    for (const auto& d : part.dihedrals) {
      need(d.i); need(d.j); need(d.k_atom); need(d.l);
    }
    for (const auto& b : part.morse_bonds) { need(b.i); need(b.j); }
    for (const auto& g : part.go_contacts) { need(g.i); need(g.j); }
    for (const auto& u : part.urey_bradleys) { need(u.i); need(u.k); }
    for (const auto& d : part.impropers) {
      need(d.i); need(d.j); need(d.k_atom); need(d.l);
    }
    for (const auto& b : part.dihedral_biases) {
      need(b.i); need(b.j); need(b.k); need(b.l);
    }
    for (const auto& p : part.pairs14) { need(p.i); need(p.j); }
    for (const auto& s : part.springs) { need(s.i); need(s.j); }
    for (const auto& b : part.biases) { need(b.i); need(b.j); }
    for (const auto& r : part.dist_restraints) { need(r.i); need(r.j); }
    for (const auto& v : part.vsites) {
      need(v.site); need(v.parents[0]); need(v.parents[1]);
      if (v.kind == VirtualSite::Kind::kPlanar3) need(v.parents[2]);
    }
    part.import_bytes = static_cast<double>(imported.size()) * kPosBytes;
    // Forces computed here for non-owned atoms travel back.
    part.export_bytes = static_cast<double>(imported.size()) * kForceBytes;
    part.messages = sources.size();
  }
}

void DistributedEngine::evaluate_node(const NodePartition& part,
                                      std::span<const Vec3> positions,
                                      const Box& box, double time,
                                      ForceResult& partial,
                                      machine::NodeWork& nw) const {
  const Topology& topo = ff_->topology();
  const auto& tables = ff_->tables();

  ff_->compute_bonded_terms(part.terms(), positions, box, time, partial);
  if (clusters_ != nullptr) {
    // Gather already ran once in evaluate(); per-node virials accumulate
    // sequentially within the node, and the ascending-node merge keeps the
    // total thread-invariant.
    ff::compute_cluster_entries(*clusters_, part.cluster_entries, tables, box,
                                partial.forces, partial.energy, partial.virial,
                                ff_->vdw_scale(),
                                ff_->charge_product_scale());
  } else {
    ff::compute_pairs(part.pairs, tables, topo.type_ids(), topo.charges(),
                      positions, box, partial, ff_->vdw_scale(),
                      ff_->charge_product_scale());
  }

  // --- workload accounting -------------------------------------------------
  if (clusters_ != nullptr) {
    nw.pairs = part.cluster_real_pairs;
    nw.pairs_examined = part.cluster_real_pairs;
    nw.cluster_tiles = part.cluster_entries.size();
    nw.cluster_lanes = part.cluster_entries.size() * clusters_->width *
                       ff::kClusterJWidth;
  } else {
    nw.pairs = part.pairs.size();
    nw.pairs_examined = part.pairs.size();
  }
  nw.gc_force_flops =
      part.bonds.size() * costs_.bond + part.angles.size() * costs_.angle +
      part.dihedrals.size() * costs_.dihedral +
      part.morse_bonds.size() * costs_.bond +
      part.urey_bradleys.size() * costs_.bond +
      part.impropers.size() * costs_.dihedral +
      part.go_contacts.size() * costs_.pair14 +
      part.dihedral_biases.size() * costs_.dihedral +
      part.pairs14.size() * costs_.pair14 +
      part.pos_restraints.size() * costs_.restraint +
      part.dist_restraints.size() * costs_.restraint +
      part.springs.size() * costs_.steered_spring +
      part.biases.size() * costs_.steered_spring +
      (ff_->external_field()
           ? part.owned_atoms.size() * costs_.external_field_atom
           : 0.0) +
      part.vsites.size() * costs_.vsite_construct;
  // Update phase: integration + thermostat + constraints + vsite spread.
  nw.gc_update_flops =
      part.owned_atoms.size() *
          (costs_.integrate_atom + costs_.thermostat_atom) +
      part.constraint_count * 3.0 * costs_.constraint_iteration +
      part.vsites.size() * costs_.vsite_spread;
  nw.import_bytes = part.import_bytes;
  nw.export_bytes = part.export_bytes;
  nw.messages = part.messages;
}

void DistributedEngine::set_node_failed(size_t node, bool failed) {
  ANTMD_REQUIRE(node < torus_.node_count(), "node index out of range");
  if (failed_.empty()) failed_.assign(torus_.node_count(), 0);
  failed_[node] = failed ? 1 : 0;
  ANTMD_REQUIRE(alive_node_count() > 0, "cannot fail every node");
}

size_t DistributedEngine::alive_node_count() const {
  if (failed_.empty()) return torus_.node_count();
  size_t alive = 0;
  for (char f : failed_) {
    if (!f) ++alive;
  }
  return alive;
}

size_t DistributedEngine::effective_node(size_t node) const {
  if (failed_.empty() || !failed_[node]) return node;
  const size_t n = torus_.node_count();
  for (size_t d = 1; d < n; ++d) {
    size_t cand = (node + d) % n;
    if (!failed_[cand]) return cand;
  }
  return node;  // unreachable: set_node_failed keeps at least one node alive
}

machine::StepWork DistributedEngine::evaluate(std::span<Vec3> positions,
                                              const Box& box, double time,
                                              bool kspace_due,
                                              ForceResult& out,
                                              ForceResult& kspace_cache) const {
  ANTMD_REQUIRE(!parts_.empty(), "redistribute() must run before evaluate()");
  obs::TracePhase eval_phase("runtime.evaluate", "runtime",
                             &engine_metrics().evaluate_ns);
  const Topology& topo = ff_->topology();

  // Position multicast: every consumer sees the fixed-point wire format.
  for (auto& p : positions) p = snap_position(p);

  ff::construct_virtual_sites(topo.virtual_sites(), positions, box);
  // One SoA gather serves every node's tile slice this step.
  if (clusters_ != nullptr) ff::gather_cluster_coords(*clusters_, positions);

  out.reset(topo.atom_count());
  machine::StepWork work;
  work.nodes.resize(parts_.size());

  if (!eval_graph_) build_eval_graph();
  sums_.prepare(eval_graph_->lanes(), topo.atom_count(), parts_.size());
  call_ = EvalCall{positions, &box,           time, kspace_due,
                   &out,      &kspace_cache, &work};
  eval_graph_->run();
  call_ = EvalCall{};
  return work;
}

void DistributedEngine::run_node(size_t n) const {
  obs::TracePhase node_phase("runtime.node_eval", "runtime",
                             &engine_metrics().node_eval_ns, /*track=*/
                             kNodeTrackBase + static_cast<int64_t>(n), "node",
                             static_cast<int64_t>(n));
  engine_metrics().node_evals.add();
  // The kernels add into a ForceResult: lend it the lane's force array for
  // this node, and keep the node's energy and virial apart in its slot.
  FixedForceArray& lane = sums_.lane_forces[util::TaskRuntime::current_lane()];
  ForceResult partial;
  partial.forces = std::move(lane);
  evaluate_node(parts_[n], call_.positions, *call_.box, call_.time, partial,
                call_.work->nodes[n]);
  lane = std::move(partial.forces);
  sums_.slot_energy[n] = partial.energy;
  sums_.slot_virial[n] = partial.virial;
}

void DistributedEngine::build_eval_graph() const {
  eval_graph_ =
      std::make_unique<util::TaskGraph>(exec_->runtime(), "runtime.evaluate");
  util::TaskGraph& g = *eval_graph_;

  std::vector<util::TaskId> reduce_deps = {g.add_parallel(
      "runtime.node_eval", [this] { return parts_.size(); },
      [this](size_t n) { run_node(n); })};

  // Reciprocal space as GSE's stage chain, beside the node tasks; its
  // workload is charged to the timing model on the evaluations that run it.
  if (ff_->has_kspace()) {
    reduce_deps.push_back(ff_->gse()->append_stages(
        g, [this]() -> std::optional<GseInput> {
          if (!call_.kspace_due) return std::nullopt;
          size_t charged = 0;
          for (double q : ff_->topology().charges()) {
            if (q != 0.0) ++charged;
          }
          const GseWorkload gw = ff_->gse()->workload(charged);
          machine::StepWork& work = *call_.work;
          work.kspace.active = true;
          work.kspace.grid_points = gw.grid_points;
          work.kspace.charges = gw.charges;
          work.kspace.stencil_points = gw.spread_stencil_points;
          work.kspace.fft_flops = gw.fft_flops;
          call_.kspace_cache->reset(ff_->topology().atom_count());
          return GseInput{call_.positions,       ff_->kspace_charges(),
                          ff_->excluded_pairs(), *call_.box,
                          call_.kspace_cache,    &engine_metrics().kspace_ns};
        }));
  }

  g.add_reduction(
      "runtime.reduce",
      [this] {
        // Node slots in ascending node order, then the k-space cache: the
        // summation grouping of a serial loop over the nodes, bit for bit,
        // including the double-precision virial.
        ForceResult& out = *call_.out;
        sums_.reduce(out);
        if (ff_->has_kspace()) out.merge(*call_.kspace_cache);
        ff::spread_virtual_site_forces(ff_->topology().virtual_sites(),
                                       call_.positions, *call_.box,
                                       out.forces);
      },
      std::move(reduce_deps));
}

}  // namespace antmd::runtime
