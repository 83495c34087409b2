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
      runtime_(util::TaskRuntime::create(options.execution)),
      graph_(ff, runtime_,
             {.graph = "runtime.evaluate",
              .slots = "runtime.node_eval",
              .reduce = "runtime.reduce",
              .kspace_ns = &engine_metrics().kspace_ns,
              .slot_tracks = kNodeTrackBase,
              .slot_ns = &engine_metrics().node_eval_ns,
              .slot_count = &engine_metrics().node_evals}) {}

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

  fill_node_work();
  slots_.clear();
  for (const NodePartition& part : parts_) {
    slots_.push_back({part.terms(), part.pairs, part.cluster_entries});
  }
  kspace_work_ = {};
  if (ff_->has_kspace()) {
    size_t charged = 0;
    for (double q : topo.charges()) {
      if (q != 0.0) ++charged;
    }
    const GseWorkload gw = ff_->gse()->workload(box, charged);
    kspace_work_ = {.active = true,
                    .grid_points = gw.grid_points,
                    .charges = gw.charges,
                    .stencil_points = gw.spread_stencil_points,
                    .fft_flops = gw.fft_flops};
  }

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

void DistributedEngine::fill_node_work() {
  const auto& owners = decomp_.owners();
  auto owner = [&](uint32_t atom) { return effective_node(owners[atom]); };
  constexpr double kPosBytes = 12.0;    // 3 × int32 fixed-point position
  constexpr double kForceBytes = 12.0;  // 3 × int32 force quanta

  node_work_.assign(parts_.size(), machine::NodeWork{});
  for (size_t n = 0; n < parts_.size(); ++n) {
    const NodePartition& part = parts_[n];
    machine::NodeWork& nw = node_work_[n];
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
    nw.import_bytes = static_cast<double>(imported.size()) * kPosBytes;
    // Forces computed here for non-owned atoms travel back.
    nw.export_bytes = static_cast<double>(imported.size()) * kForceBytes;
    nw.messages = sources.size();

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
  }
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

  // Position multicast: every consumer sees the fixed-point wire format.
  for (auto& p : positions) p = snap_position(p);
  graph_.run({positions, box, time, md::ForceTerms::kAll, kspace_due, slots_,
              clusters_, &out, &kspace_cache});

  machine::StepWork work;
  work.nodes = node_work_;
  if (kspace_due) work.kspace = kspace_work_;
  return work;
}

}  // namespace antmd::runtime
