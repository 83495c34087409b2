// Quickstart: simulate a rigid water box on the modeled Anton-class
// machine, printing thermodynamic output and the modeled hardware
// performance every few steps.
//
//   ./quickstart --waters 216 --steps 200 --nodes 4
#include <cstdio>

#include "ff/forcefield.hpp"
#include "io/trajectory.hpp"
#include "machine/config.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace antmd;

int main(int argc, char** argv) {
  CliParser cli("quickstart",
                "Rigid water MD on the modeled special-purpose machine");
  cli.add_flag("waters", "number of water molecules", 216);
  cli.add_flag("steps", "MD steps", 200);
  cli.add_flag("nodes", "torus edge (nodes = edge^3)", 4);
  cli.add_flag("temperature", "bath temperature (K)", 300.0);
  cli.add_flag("cutoff", "nonbonded cutoff (A)", 6.0);
  cli.add_flag("threads", "host worker threads (1 = serial, 0 = auto)", 1);
  cli.add_flag("xyz", "trajectory output path (empty = none)",
               std::string(""));
  if (!cli.parse(argc, argv)) return 0;

  // 1. Build a synthetic system.
  auto spec = build_water_box(static_cast<size_t>(cli.get_int("waters")),
                              WaterModel::kRigid3Site);
  std::printf("system: %s — %zu atoms, box %.1f A\n", spec.name.c_str(),
              spec.topology.atom_count(), spec.box.edges().x);

  // 2. Force field: tabulated LJ + Gaussian-split-Ewald electrostatics.
  ff::NonbondedModel model;
  model.cutoff = cli.get_double("cutoff");
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.4;
  ForceField field(spec.topology, model);

  // 3. Put it on the machine.
  int edge = cli.get_int("nodes");
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.kspace_interval = 2;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = cli.get_double("temperature");
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = cli.get_double("temperature");
  // The synthetic lattice releases several kcal/mol per molecule of
  // electrostatic cohesion as it melts; strong friction absorbs it.
  cfg.thermostat.gamma_per_ps = 10.0;
  cfg.execution.threads = static_cast<size_t>(cli.get_int("threads"));
  runtime::MachineSimulation sim(field,
                                 machine::anton_with_torus(edge, edge, edge),
                                 spec.positions, spec.box, cfg);

  std::unique_ptr<io::XyzWriter> xyz;
  if (!cli.get_string("xyz").empty()) {
    xyz = std::make_unique<io::XyzWriter>(cli.get_string("xyz"),
                                          spec.topology);
  }

  // 4. Run, reporting from a step observer as we go.
  Table table({"step", "T (K)", "potential (kcal/mol)",
               "modeled step (us)", "modeled ns/day"});
  const int steps = cli.get_int("steps");
  const int report = std::max(1, steps / 10);
  sim.add_observer(
      [&](const md::StepInfo& info) {
        table.add_row({std::to_string(info.step),
                       Table::num(info.temperature, 1),
                       Table::num(info.potential, 1),
                       Table::num(sim.last_breakdown().total * 1e6, 2),
                       Table::num(sim.ns_per_day(), 0)});
        if (xyz) xyz->write_frame(sim.state());
      },
      report);
  sim.run(static_cast<size_t>(steps));
  std::fputs(table.render().c_str(), stdout);

  const auto& acc = sim.accumulated();
  std::printf(
      "\nmodeled hardware utilization: HTIS pipelines %.0f%%, geometry "
      "cores %.0f%%, network+sync %.0f%%\n",
      100.0 * acc.pair_phase / acc.total,
      100.0 *
          (acc.gc_force_phase + acc.update + acc.kspace_spread +
           acc.kspace_interp + acc.kspace_convolve + acc.kspace_fft_compute) /
          acc.total,
      100.0 * (acc.multicast + acc.reduce + acc.kspace_fft_comm + acc.sync) /
          acc.total);
  if (xyz) {
    std::printf("wrote %zu trajectory frames to %s\n", xyz->frames_written(),
                cli.get_string("xyz").c_str());
  }
  return 0;
}
