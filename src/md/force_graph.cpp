#include "md/force_graph.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace antmd::md {

ForceGraph::ForceGraph(const ForceField& ff,
                       std::shared_ptr<util::TaskRuntime> runtime,
                       ForceGraphLabels labels)
    : ff_(&ff), labels_(labels), graph_(std::move(runtime), labels.graph) {
  util::TaskGraph& g = graph_;
  // Every task reads final positions: behind vsite construction when there
  // are virtual sites, unblocked from the start otherwise.
  std::vector<util::TaskId> after_pos;
  if (!ff.topology().virtual_sites().empty()) {
    after_pos = {g.add("md.vsites", [this] {
      ff::construct_virtual_sites(ff_->topology().virtual_sites(),
                                  run_.positions, run_.box);
    })};
  }

  // One SoA gather serves every slot's tiles.
  const util::TaskId t_gather = g.add(
      "md.nb.gather",
      [this] {
        if (run_.tiles == nullptr || !with_nonbonded()) return;
        obs::ScopedTimer timer(labels_.nonbonded_ns);
        ff::gather_cluster_coords(*run_.tiles, run_.positions);
      },
      after_pos);
  std::vector<util::TaskId> reduce_deps = {g.add_parallel(
      labels.slots, [this] { return run_.slots.size(); },
      [this](size_t s) { run_slot(s); }, {t_gather})};

  // Reciprocal space as its stage chain (stencil → spread → FFT → convolve
  // → inverse FFT → interpolate → finish), beside the slots.  Systems
  // without k-space get no stages at all.
  if (ff.has_kspace()) {
    reduce_deps.push_back(ff.gse()->append_stages(
        g,
        [this]() -> std::optional<GseInput> {
          if (!run_.kspace_due) return std::nullopt;
          run_.kspace_cache->reset(ff_->topology().atom_count());
          return GseInput{run_.positions,       ff_->kspace_charges(),
                          ff_->excluded_pairs(), run_.box,
                          run_.kspace_cache,     labels_.kspace_ns};
        },
        after_pos));
  }

  g.add_reduction(labels.reduce, [this] { reduce(); },
                  std::move(reduce_deps));
}

void ForceGraph::run(const Run& input) {
  run_ = input;
  run_.out->reset(ff_->topology().atom_count());
  sums_.prepare(graph_.lanes(), ff_->topology().atom_count(),
                run_.slots.size());
  graph_.run();
  run_ = Run{};
}

void ForceGraph::run_slot(size_t s) {
  std::optional<obs::TracePhase> phase;
  if (labels_.slot_tracks >= 0) {
    phase.emplace(labels_.slots, "force", labels_.slot_ns,
                  labels_.slot_tracks + static_cast<int64_t>(s), "slot",
                  static_cast<int64_t>(s));
    if (labels_.slot_count != nullptr) labels_.slot_count->add();
  }
  const ForceSlot& slot = run_.slots[s];
  // The kernels add into a ForceResult: lend it the lane's force array for
  // this slot, and keep the slot's energy and virial apart.
  FixedForceArray& lane = sums_.lane_forces[util::TaskRuntime::current_lane()];
  ForceResult part;
  part.forces = std::move(lane);
  if (with_bonded()) {
    obs::ScopedTimer timer(labels_.bonded_ns);
    ff_->compute_bonded_terms(slot.bonded, run_.positions, run_.box,
                              run_.time, part);
  }
  if (with_nonbonded() && !(slot.pairs.empty() && slot.tiles.empty())) {
    obs::ScopedTimer timer(labels_.nonbonded_ns);
    if (!slot.pairs.empty()) {
      ff_->compute_nonbonded(slot.pairs, run_.positions, run_.box, part);
    }
    if (!slot.tiles.empty()) {
      ff::compute_cluster_entries(*run_.tiles, slot.tiles, ff_->tables(),
                                  run_.box, part.forces, part.energy,
                                  part.virial, ff_->vdw_scale(),
                                  ff_->charge_product_scale());
    }
  }
  lane = std::move(part.forces);
  sums_.slot_energy[s] = part.energy;
  sums_.slot_virial[s] = part.virial;
}

void ForceGraph::reduce() {
  // Slots in ascending order, then the k-space cache: the summation
  // grouping of a serial loop over the slots, bit for bit, including the
  // double-precision virial.
  ForceResult& out = *run_.out;
  sums_.reduce(out);
  if (with_nonbonded() && ff_->has_kspace()) out.merge(*run_.kspace_cache);
  ff::spread_virtual_site_forces(ff_->topology().virtual_sites(),
                                 run_.positions, run_.box, out.forces);
}

void poll_force_fault(ForceResult& out) {
  uint64_t atom = 0;
  if (fault::should_fire(fault::FaultKind::kNanForce, &atom)) {
    out.forces.set_quanta(atom % out.forces.size(),
                          {fault::kPoisonQuanta, fault::kPoisonQuanta,
                           fault::kPoisonQuanta});
  }
}

}  // namespace antmd::md
