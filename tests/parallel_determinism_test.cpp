// Tier-1 contract for the parallel execution layer: worker threads must be
// invisible in the results.  A trajectory is bit-identical at any thread
// count, because forces and
// energies accumulate in order-independent fixed point and the per-node
// partials (including the double-precision virial) are merged in fixed
// node-index order.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/builder.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/machine_sim.hpp"
#include "sampling/replica_exchange.hpp"
#include "topo/builders.hpp"
#include "util/execution.hpp"

namespace antmd {
namespace {

// Miniprotein workload: 20-bead polymer in a 125-atom solvent bath, long
// enough (500 steps) that any scheduling-dependent arithmetic would be
// amplified by Lyapunov growth into visible divergence.
constexpr size_t kSteps = 500;

ff::NonbondedModel polymer_model() {
  ff::NonbondedModel m;
  m.cutoff = 8.0;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

void expect_bitwise_equal(const std::vector<Vec3>& a,
                          const std::vector<Vec3>& b, size_t threads) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i] == b[i])
        << "atom " << i << " diverged at " << threads << " threads";
  }
}

std::vector<Vec3> run_host(size_t threads) {
  auto spec = build_polymer_in_solvent(20, 125);
  ForceField field(spec.topology, polymer_model());
  md::Simulation sim = md::SimulationBuilder()
                           .dt_fs(4.0)
                           .neighbor_skin(1.0)
                           .langevin(150.0, 5.0)
                           .threads(threads)
                           .build(field, spec.positions, spec.box);
  sim.run(kSteps);
  return sim.state().positions;
}

std::vector<Vec3> run_machine(size_t threads) {
  auto spec = build_polymer_in_solvent(20, 125);
  ForceField field(spec.topology, polymer_model());
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 150.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 150.0;
  cfg.execution.threads = threads;
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, cfg);
  sim.run(kSteps);
  return sim.state().positions;
}

TEST(ParallelDeterminism, HostSimulationBitIdenticalAcrossThreadCounts) {
  auto reference = run_host(1);
  for (size_t threads : {2u, 4u, 8u}) {
    expect_bitwise_equal(reference, run_host(threads), threads);
  }
}

TEST(ParallelDeterminism, MachineEngineBitIdenticalAcrossThreadCounts) {
  auto reference = run_machine(1);
  for (size_t threads : {2u, 4u, 8u}) {
    expect_bitwise_equal(reference, run_machine(threads), threads);
  }
}

// Telemetry must be write-only with respect to the physics: the same run
// with metrics + tracing enabled has to reproduce the reference trajectory
// bit for bit (ISSUE: "telemetry changes no trajectory bit").
TEST(ParallelDeterminism, TelemetryAndTracingChangeNoTrajectoryBit) {
  auto reference_host = run_host(4);
  auto reference_machine = run_machine(4);

  obs::ScopedTelemetry telemetry(true);
  obs::TraceSession::global().start("");  // record to the in-memory buffer
  auto traced_host = run_host(4);
  auto traced_machine = run_machine(4);
  obs::TraceSession::global().stop();

  EXPECT_GT(obs::TraceSession::global().event_count(), 0u);
  expect_bitwise_equal(reference_host, traced_host, 4);
  expect_bitwise_equal(reference_machine, traced_machine, 4);
}

// The attribution profiler shares the telemetry contract: collection is
// read-only with respect to the physics, so the same run with profiling
// enabled must reproduce the reference trajectory bit for bit, serial and
// threaded, on both engines.
TEST(ParallelDeterminism, AttributionProfilingChangesNoTrajectoryBit) {
  auto reference_host_1 = run_host(1);
  auto reference_host_4 = run_host(4);
  auto reference_machine_1 = run_machine(1);
  auto reference_machine_4 = run_machine(4);

  obs::ScopedProfiling profiling(true);
  obs::Profile::global().reset();
  expect_bitwise_equal(reference_host_1, run_host(1), 1);
  expect_bitwise_equal(reference_host_4, run_host(4), 4);
  expect_bitwise_equal(reference_machine_1, run_machine(1), 1);
  expect_bitwise_equal(reference_machine_4, run_machine(4), 4);
  // The profiler did collect: modeled network time for the machine runs.
  EXPECT_GT(obs::Profile::global().network_total_s(), 0.0);
  obs::Profile::global().reset();
}

TEST(ParallelDeterminism, NeighborListPairsMatchSerialBuild) {
  auto spec = build_polymer_in_solvent(20, 125);
  md::NeighborList serial(spec.topology, 8.0, 1.0);
  serial.build(spec.positions, spec.box);
  md::NeighborList serial_tiles(spec.topology, 8.0, 1.0,
                                /*cluster_mode=*/true);
  serial_tiles.build(spec.positions, spec.box);
  const ff::ClusterPairList& want = serial_tiles.clusters();
  ASSERT_FALSE(want.entries.empty());

  for (size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    auto runtime = util::TaskRuntime::create(lanes);
    md::NeighborList parallel(spec.topology, 8.0, 1.0);
    parallel.set_execution(runtime);
    parallel.build(spec.positions, spec.box);
    ASSERT_EQ(serial.pairs().size(), parallel.pairs().size());
    for (size_t k = 0; k < serial.pairs().size(); ++k) {
      EXPECT_EQ(serial.pairs()[k].i, parallel.pairs()[k].i);
      EXPECT_EQ(serial.pairs()[k].j, parallel.pairs()[k].j);
    }

    md::NeighborList tiles(spec.topology, 8.0, 1.0, /*cluster_mode=*/true);
    tiles.set_execution(runtime);
    tiles.build(spec.positions, spec.box);
    const ff::ClusterPairList& got = tiles.clusters();
    EXPECT_EQ(got.atoms, want.atoms);
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (size_t k = 0; k < want.entries.size(); ++k) {
      EXPECT_EQ(got.entries[k].ci, want.entries[k].ci);
      EXPECT_EQ(got.entries[k].cj, want.entries[k].cj);
      EXPECT_EQ(got.entries[k].mask, want.entries[k].mask);
    }
    EXPECT_EQ(got.real_pairs, want.real_pairs);
    EXPECT_EQ(got.active_rows, want.active_rows);
  }
}

// Phase overlap: rigid water turns on every concurrent phase at once —
// k-space recompute (overlapped with the nonbonded tiles by the step
// graph), SHAKE constraints, and the neighbor-list early-out.  The
// trajectory must stay byte-identical across thread counts for both
// nonbonded kernels.
TEST(ParallelDeterminism, PhaseOverlapWithKspaceAndConstraints) {
  auto run_water = [](size_t threads, ff::NonbondedKernel kernel) {
    auto spec = build_water_box(125, WaterModel::kRigid3Site);
    ff::NonbondedModel model;
    model.cutoff = 6.0;
    model.electrostatics = ff::Electrostatics::kEwaldReal;
    model.ewald_beta = 0.45;
    ForceField field(spec.topology, model);
    md::Simulation sim = md::SimulationBuilder()
                             .dt_fs(2.0)
                             .neighbor_skin(1.0)
                             .kspace_interval(2)  // due and not-due steps
                             .langevin(250.0, 5.0)
                             .nonbonded_kernel(kernel)
                             .threads(threads)
                             .build(field, spec.positions, spec.box);
    sim.run(200);
    md::ConstraintSolver check(spec.topology);
    EXPECT_LT(check.max_violation(sim.state().positions, sim.state().box),
              1e-6);
    return sim.state().positions;
  };

  for (auto kernel :
       {ff::NonbondedKernel::kCluster, ff::NonbondedKernel::kPair}) {
    auto reference = run_water(1, kernel);
    for (size_t threads : {2u, 8u}) {
      expect_bitwise_equal(reference, run_water(threads, kernel), threads);
    }
  }
}

// RESPA's split (a bonded-only inner pass, a nonbonded + k-space outer
// kick) and the Berendsen barostat (a full recompute after every box
// rescale, driven by the double-precision virial) both run multi-threaded
// here, on both nonbonded kernels, and must stay byte-identical.
std::vector<Vec3> run_water_variant(size_t threads, ff::NonbondedKernel kernel,
                                    bool respa) {
  auto spec = build_water_box(
      125, respa ? WaterModel::kFlexible3Site : WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  md::SimulationBuilder builder;
  builder.dt_fs(2.0)
      .neighbor_skin(1.0)
      .kspace_interval(2)
      .langevin(250.0, 5.0)
      .nonbonded_kernel(kernel)
      .threads(threads);
  if (respa) {
    builder.respa_inner(2);
  } else {
    md::BarostatConfig baro;
    baro.kind = md::BarostatKind::kBerendsen;
    baro.interval = 10;
    builder.barostat(baro);
  }
  md::Simulation sim = builder.build(field, spec.positions, spec.box);
  sim.run(60);
  std::vector<Vec3> out = sim.state().positions;
  out.push_back(sim.state().box.edges());
  return out;
}

TEST(ParallelDeterminism, RespaBitIdenticalAcrossThreadCounts) {
  for (auto kernel :
       {ff::NonbondedKernel::kCluster, ff::NonbondedKernel::kPair}) {
    auto reference = run_water_variant(1, kernel, /*respa=*/true);
    for (size_t threads : {2u, 8u}) {
      expect_bitwise_equal(reference, run_water_variant(threads, kernel, true),
                           threads);
    }
  }
}

TEST(ParallelDeterminism, BerendsenBarostatBitIdenticalAcrossThreadCounts) {
  for (auto kernel :
       {ff::NonbondedKernel::kCluster, ff::NonbondedKernel::kPair}) {
    auto reference = run_water_variant(1, kernel, /*respa=*/false);
    for (size_t threads : {2u, 8u}) {
      expect_bitwise_equal(reference,
                           run_water_variant(threads, kernel, false), threads);
    }
  }
}

TEST(ParallelDeterminism, ReplicaExchangeThreadCountInvariant) {
  auto spec = build_polymer_in_solvent(12, 125);
  const std::vector<double> temps = {140.0, 160.0, 180.0, 200.0};

  auto run_remd = [&](size_t threads) {
    std::vector<std::unique_ptr<ForceField>> fields;
    std::vector<std::unique_ptr<md::Simulation>> sims;
    std::vector<md::Simulation*> ptrs;
    for (double t : temps) {
      fields.push_back(
          std::make_unique<ForceField>(spec.topology, polymer_model()));
      md::SimulationConfig cfg;
      cfg.dt_fs = 4.0;
      cfg.neighbor_skin = 1.0;
      cfg.init_temperature_k = t;
      cfg.thermostat.kind = md::ThermostatKind::kLangevin;
      cfg.thermostat.temperature_k = t;
      cfg.thermostat.gamma_per_ps = 5.0;
      sims.push_back(std::make_unique<md::Simulation>(
          *fields.back(), spec.positions, spec.box, cfg));
      ptrs.push_back(sims.back().get());
    }
    sampling::TemperatureReplicaExchange remd(ptrs, temps, 20, 11,
                                              ExecutionConfig{threads});
    remd.run(200);
    std::vector<std::vector<Vec3>> out;
    for (auto* sim : ptrs) out.push_back(sim->state().positions);
    return out;
  };

  auto reference = run_remd(1);
  for (size_t threads : {2u, 4u}) {
    auto traj = run_remd(threads);
    ASSERT_EQ(traj.size(), reference.size());
    for (size_t r = 0; r < traj.size(); ++r) {
      expect_bitwise_equal(reference[r], traj[r], threads);
    }
  }
}

}  // namespace
}  // namespace antmd
