// md::Simulation: the one integrator.  Velocity Verlet or impulse RESPA
// with RESPA-style k-space reuse, constraints, thermostats, barostats, COM
// removal, step observers and the physics part of the checkpoint.
//
// Forces come through a ForceProvider (md/force_provider.hpp).  The
// default provider is the host's per-step task graph; the modeled machine
// (runtime::MachineSimulation) drives this same integrator with a provider
// that partitions the work across nodes and must produce bit-identical
// trajectories.  md::Simulation is also the workhorse for the sampling
// methods in sampling/.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "ff/forcefield.hpp"
#include "md/barostat.hpp"
#include "md/constraints.hpp"
#include "md/force_provider.hpp"
#include "md/observer.hpp"
#include "md/state.hpp"
#include "md/thermostat.hpp"
#include "util/execution.hpp"
#include "util/serialize.hpp"

namespace antmd::md {

struct SimulationConfig {
  double dt_fs = 2.0;
  /// Recompute reciprocal-space forces every N steps and reuse between
  /// (RESPA-style slow-force caching; 1 = every step).
  int kspace_interval = 1;
  /// Impulse-RESPA inner substeps: bonded (fast) forces are integrated at
  /// dt/respa_inner while nonbonded/k-space kicks bracket the outer step.
  /// 1 = plain velocity Verlet.
  int respa_inner = 1;
  double neighbor_skin = 2.0;  ///< Å
  int com_removal_interval = 200;
  ConstraintAlgorithm constraint_algorithm = ConstraintAlgorithm::kShake;
  ThermostatConfig thermostat;
  BarostatConfig barostat;
  /// If >= 0, draw Maxwell–Boltzmann velocities at this temperature.
  double init_temperature_k = 300.0;
  uint64_t velocity_seed = 1234;
  /// Real-space nonbonded hot path: flat pair loop or blocked cluster-pair
  /// tiles.  Bit-identical results either way (the golden and equivalence
  /// tests enforce it); cluster is the fast default.
  ff::NonbondedKernel nonbonded_kernel = ff::NonbondedKernel::kCluster;
  /// Host parallelism (the step graph and neighbor-list rebuilds; force
  /// partitions on the machine).  Defaults to fully serial.
  ExecutionConfig execution;

  /// Throws ConfigError if any field is out of range (dt_fs > 0,
  /// respa_inner >= 1, kspace_interval >= 1, neighbor_skin >= 0) or when
  /// respa_inner > 1 is combined with a barostat.  Called by the Simulation
  /// constructor and SimulationBuilder::build().
  void validate() const;
};

/// Full potential energy of `positions` in `box` under `ff`: one serial run
/// of the step's md::ForceGraph over the host slot plan, on a flat neighbor
/// list (skin 0) built at `positions` with virtual sites constructed, and
/// k-space (when configured) gridded for `box`.  Energies are fixed-point
/// sums, so this equals, bit for bit, the energy a Simulation of `ff`
/// reports after a full evaluation (k-space due) at the same state.  The
/// one trial-state evaluator: the MC barostat's
/// trial boxes and the H-REMD and FEP cross-Hamiltonian energies all go
/// through it.
[[nodiscard]] double potential_energy(const ForceField& ff,
                                      std::span<const Vec3> positions,
                                      const Box& box, double time = 0.0);

class Simulation : public util::Checkpointable {
 public:
  /// The force field (and the topology it references) must outlive the
  /// simulation. Initial positions/box come from the caller.  Forces come
  /// from the host step graph.
  /// Prefer SimulationBuilder (md/builder.hpp) in new code; this
  /// constructor remains as the builder's target.
  Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
             SimulationConfig config);
  /// Same, with forces from `provider` (the modeled machine).
  Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
             SimulationConfig config, std::unique_ptr<ForceProvider> provider);
  // The barostat's energy callback and the provider hold pointers into
  // this object.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Advances one outer timestep.
  void step();
  /// Advances n steps.
  void run(size_t n);

  // --- observation -----------------------------------------------------------
  [[nodiscard]] const State& state() const { return state_; }
  /// Direct access for external state surgery (replica exchange, SDC
  /// bit-flip injection in tests); follow with invalidate_forces() or rely
  /// on the next step's evaluation to pick the change up.
  [[nodiscard]] State& mutable_state() { return state_; }
  [[nodiscard]] const ForceResult& forces() const { return current_; }
  [[nodiscard]] double potential_energy() const {
    return current_.energy.total();
  }
  [[nodiscard]] double kinetic_energy() const {
    return md::kinetic_energy(ff_->topology(), state_);
  }
  [[nodiscard]] double temperature() const {
    return md::temperature(ff_->topology(), state_);
  }
  /// Potential + kinetic + thermostat reservoir (drift diagnostic).
  [[nodiscard]] double conserved_quantity() const;
  [[nodiscard]] double pressure_atm() const;
  [[nodiscard]] const NeighborList& neighbor_list() const {
    return provider_->neighbor_list();
  }
  [[nodiscard]] ForceField& force_field() { return *ff_; }
  [[nodiscard]] const ForceField& force_field() const { return *ff_; }
  [[nodiscard]] Thermostat& thermostat() { return thermostat_; }
  [[nodiscard]] const ConstraintSolver& constraints() const {
    return constraints_;
  }
  [[nodiscard]] double dt_internal() const { return dt_; }
  [[nodiscard]] double timestep_fs() const { return config_.dt_fs; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }

  /// Retargets the outer timestep mid-run (the Supervisor's dt reduction
  /// after a numerical rollback).
  void set_timestep_fs(double dt_fs);

  // --- checkpoint / restart ---------------------------------------------------
  /// Serializes everything needed for a bit-exact resume: dynamic state,
  /// timestep, thermostat/barostat internals and the reciprocal-space force
  /// cache (which was computed at *older* positions when kspace_interval > 1
  /// and therefore cannot be recomputed at restore time).
  void save_checkpoint(util::BinaryWriter& out) const override;
  /// Restores into a simulation constructed with the same topology, force
  /// field and config.  Rebuilds what the provider derives from positions
  /// and recomputes forces at the restored positions; throws IoError on a
  /// size or barostat mismatch with the checkpoint.
  void restore_checkpoint(util::BinaryReader& in) override;
  /// The determinism-contract part of the checkpoint, which the SDC
  /// auditor digests: everything that can influence future trajectory
  /// bits.  On the host that is the whole checkpoint.
  virtual void save_physics_checkpoint(util::BinaryWriter& out) const {
    write_physics(out, /*barostat_block=*/true);
  }

  /// Reseeds stochastic elements (used by replica-exchange drivers).
  void rescale_velocities(double factor);

  /// Forces an immediate full force recomputation (after external state
  /// surgery, e.g. replica exchange or λ switching).
  void invalidate_forces();

  // --- step observation -------------------------------------------------------
  /// Registers a callback fired after each completed step where
  /// step % interval == 0.  The observer (and anything it captures) must
  /// outlive every step() made while registered.
  void add_observer(StepObserver obs, int interval = 1) {
    observers_.add(std::move(obs), interval);
  }

  /// Suspends/resumes step observers (SDC shadow replay: re-executed steps
  /// must not re-fire trajectory writers or metrics samplers).
  void set_observers_enabled(bool enabled) {
    observers_.set_enabled(enabled);
  }

 protected:
  [[nodiscard]] ForceProvider& provider() { return *provider_; }
  /// The physics part of the checkpoint: state, timestep, thermostat, the
  /// barostat block (a presence flag plus its state) when `barostat_block`,
  /// and the k-space cache.  The machine's layout has no barostat block.
  void write_physics(util::BinaryWriter& out, bool barostat_block) const;
  /// Inverse of write_physics; follow with refresh_forces(true).
  void read_physics(util::BinaryReader& in, bool barostat_block);
  /// Rebuilds what the provider derives from positions and recomputes the
  /// forces: a full evaluation with k-space, or, when `restoring`, the
  /// forces (RESPA split caches included) of a just-read checkpoint with
  /// its cached k-space term.
  void refresh_forces(bool restoring);

 private:
  void compute(ForceTerms terms, bool kspace_due, ForceResult& out,
               bool restore = false);
  void advance_verlet(bool kspace_due);
  void advance_respa(bool kspace_due);
  void half_kick(const ForceResult& f, double dt);
  void drift_and_constrain(double dt);
  void constrain_velocities();
  void notify_observers();

  ForceField* ff_;
  SimulationConfig config_;
  State state_;
  double dt_;
  ConstraintSolver constraints_;
  Thermostat thermostat_;
  std::optional<Barostat> barostat_;
  ForceResult current_;        ///< latest total forces/energy
  ForceResult kspace_cache_;   ///< latest reciprocal-space contribution
  ForceResult fast_;           ///< bonded forces (RESPA inner loop)
  ForceResult slow_;           ///< nonbonded + k-space (RESPA outer kicks)
  std::vector<Vec3> scratch_before_;
  std::unique_ptr<ForceProvider> provider_;
  ObserverList observers_;
  WallTimer wall_;
};

}  // namespace antmd::md
