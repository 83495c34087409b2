// Experiment F1 — strong scaling on the torus: modeled step time vs node
// count for three system sizes (reconstructed; see DESIGN.md).
//
// Expected shape: near-linear scaling while each node holds thousands of
// atoms, flattening into a latency/communication floor as atoms/node drops
// into the tens (Anton's published strong-scaling behaviour).
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "ff/forcefield.hpp"
#include "ff/nonbonded_simd.hpp"
#include "md/builder.hpp"
#include "obs/profile.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"

using namespace antmd;

namespace {

using MetricList = std::vector<std::pair<std::string, double>>;

/// Host-side wall-clock scaling of the parallel execution layer: the same
/// 64-node modeled machine evaluated with 1/2/4 worker threads.  Cutoff
/// electrostatics keep the serial k-space solve out of the measurement
/// (Amdahl), so the per-node partition fan-out dominates.
void wall_clock_scaling(MetricList& report) {
  bench::print_header(
      "F1b: host wall-clock scaling",
      "Wall time for 60 steps of water-360 on a 4x4x4 modeled torus vs "
      "worker threads and nonbonded kernel (deterministic reduction; "
      "identical trajectories)");

  auto spec = build_water_box(360, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kReactionCutoff;

  const size_t hw = std::thread::hardware_concurrency();
  const std::vector<size_t> thread_counts = {1, 2, 4};
  const size_t steps = 60;
  MetricList metrics;
  Table table({"kernel", "threads", "wall (s)", "speedup"});
  for (ff::NonbondedKernel kernel :
       {ff::NonbondedKernel::kPair, ff::NonbondedKernel::kCluster}) {
    // Default-kernel (cluster) metrics keep their historical names; the
    // pair baseline rides along under a "pair_" prefix.
    const std::string kp =
        kernel == ff::NonbondedKernel::kPair ? "pair_" : "";
    double t1 = 0.0;
    for (size_t threads : thread_counts) {
      ForceField field(spec.topology, model);
      runtime::MachineSimConfig mc;
      mc.dt_fs = 2.0;
      mc.neighbor_skin = 1.0;
      mc.thermostat.kind = md::ThermostatKind::kLangevin;
      mc.thermostat.temperature_k = 300.0;
      mc.execution.threads = threads;
      mc.nonbonded_kernel = kernel;
      runtime::MachineSimulation sim(field,
                                     machine::anton_with_torus(4, 4, 4),
                                     spec.positions, spec.box, mc);
      auto t_start = std::chrono::steady_clock::now();
      sim.run(steps);
      double wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t_start)
                        .count();
      if (threads == 1) t1 = wall;
      table.add_row({ff::to_string(kernel), std::to_string(threads),
                     Table::num(wall, 3),
                     Table::num(t1 > 0 ? t1 / wall : 1.0, 2)});
      metrics.emplace_back(kp + "wall_s_" + std::to_string(threads) + "t",
                           wall);
      metrics.emplace_back(kp + "speedup_" + std::to_string(threads) + "t",
                           t1 > 0 ? t1 / wall : 1.0);
      // Modeled phase accumulation from the last (max-thread) run;
      // identical across thread counts by the determinism guarantee.
      if (threads == thread_counts.back()) {
        bench::append_breakdown(metrics, sim.accumulated(), kp + "modeled_");
        metrics.emplace_back(kp + "modeled_ns_per_day", sim.ns_per_day());
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);
  if (hw < thread_counts.back()) {
    std::printf(
        "\nnote: this host exposes %zu hardware thread(s); speedups above "
        "%zu threads cannot materialize here and the numbers measure "
        "oversubscription overhead instead.\n",
        hw, hw);
  }
  metrics.emplace_back("hardware_concurrency", static_cast<double>(hw));
  report.insert(report.end(), metrics.begin(), metrics.end());
}

/// F1c: the ISSUE target workload — 12k-atom water (4096 molecules) on the
/// single-host md::Simulation with the cluster kernel and GSE k-space,
/// stepping through the phase-overlapped task graph at 1/2/4/8 threads.
/// Deterministic reduction keeps every trajectory bit-identical, so the
/// speedup column is the only thing that may vary between runs.
void host_md_scaling(MetricList& report) {
  bench::print_header(
      "F1c: 12k-atom task-graph scaling",
      "Wall time for 40 steps of water-4096 (12288 atoms, cluster kernel, "
      "GSE) on md::Simulation vs worker threads; bonded/nonbonded/kspace "
      "phases overlap on the step graph");

  auto spec = build_water_box(4096, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 9.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;

  const size_t hw = std::thread::hardware_concurrency();
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  const size_t steps = 40;
  Table table({"threads", "wall (s)", "steps/s", "speedup"});
  double t1 = 0.0;
  for (size_t threads : thread_counts) {
    ForceField field(spec.topology, model);
    md::Simulation sim = md::SimulationBuilder()
                             .dt_fs(2.0)
                             .neighbor_skin(1.5)
                             .langevin(300.0, 5.0)
                             .threads(threads)
                             .build(field, spec.positions, spec.box);
    auto t_start = std::chrono::steady_clock::now();
    sim.run(steps);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t_start)
                      .count();
    if (threads == 1) t1 = wall;
    table.add_row({std::to_string(threads), Table::num(wall, 3),
                   Table::num(static_cast<double>(steps) / wall, 2),
                   Table::num(t1 > 0 ? t1 / wall : 1.0, 2)});
    report.emplace_back("md12k_wall_s_" + std::to_string(threads) + "t",
                        wall);
    report.emplace_back("md12k_speedup_" + std::to_string(threads) + "t",
                        t1 > 0 ? t1 / wall : 1.0);
  }
  std::fputs(table.render().c_str(), stdout);
  if (hw < thread_counts.back()) {
    std::printf(
        "\nnote: this host exposes %zu hardware thread(s); speedups above "
        "%zu threads cannot materialize here and the numbers measure "
        "oversubscription overhead instead.\n",
        hw, hw);
  }
}

/// F1d: per-message-class network attribution at two torus sizes.  The
/// attribution profiler decomposes the modeled network time of a real
/// water-360 run into position multicast / force reduction / k-space FFT /
/// barrier / reliability, and the class totals must reproduce the engine's
/// accumulated network time bit for bit (the same sums in the same order).
void network_attribution(MetricList& report) {
  bench::print_header(
      "F1d: network attribution",
      "Modeled network seconds per message class for 40 steps of water-360 "
      "(cluster kernel, GSE) at two torus sizes; class sums are bit-exact "
      "against the aggregate StepBreakdown network time");

  auto spec = build_water_box(360, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;

  Table table({"nodes", "class", "time (s)", "share"});
  for (int edge : {2, 4}) {
    obs::ScopedProfiling profiling_on(true);
    obs::Profile::global().reset();
    ForceField field(spec.topology, model);
    runtime::MachineSimConfig mc;
    mc.dt_fs = 2.0;
    mc.neighbor_skin = 1.0;
    mc.thermostat.kind = md::ThermostatKind::kLangevin;
    mc.thermostat.temperature_k = 300.0;
    runtime::MachineSimulation sim(
        field, machine::anton_with_torus(edge, edge, edge), spec.positions,
        spec.box, mc);
    sim.run(40);

    const auto& prof = obs::Profile::global();
    const double total = prof.network_total_s();
    const std::string prefix =
        "netattr_" + std::to_string(edge * edge * edge) + "n_";
    for (size_t c = 0; c < obs::kMessageClassCount; ++c) {
      const auto cls = static_cast<obs::MessageClass>(c);
      const obs::NetClassTotals t = prof.net(cls);
      const double share = total > 0 ? t.total_s / total : 0.0;
      table.add_row({std::to_string(edge * edge * edge),
                     obs::message_class_name(cls), Table::num(t.total_s, 9),
                     Table::num(100.0 * share, 1) + " %"});
      report.emplace_back(
          prefix + std::string(obs::message_class_name(cls)) + "_s",
          t.total_s);
      report.emplace_back(
          prefix + std::string(obs::message_class_name(cls)) + "_fraction",
          share);
    }
    report.emplace_back(prefix + "total_s", total);
    // 1.0 when the class totals reproduce the engine's aggregate modeled
    // network time bit for bit (the attribution contract).
    report.emplace_back(
        prefix + "exact",
        total == sim.accumulated().network_total() ? 1.0 : 0.0);
  }
  std::fputs(table.render().c_str(), stdout);
}

/// F1e: end-to-end single-thread MD wall time under each runnable cluster
/// kernel ISA.  Every variant produces the same trajectory bit for bit
/// (enforced by simd_kernel_test and check_kernel_equivalence.sh), so this
/// measures dispatch payoff only.  Skipped when ANTMD_FORCE_ISA pins the
/// process to one variant.
void simd_isa_scaling(MetricList& report) {
  bench::print_header(
      "F1e: cluster-kernel ISA sweep",
      "Wall time for 40 steps of water-360 (cluster kernel, reaction-field "
      "cutoff, 1 thread) under each runnable nonbonded ISA; trajectories "
      "are bit-identical across rows");

  const ff::KernelIsa dispatched = ff::active_kernel_isa();
  report.emplace_back("simd_dispatch_isa", static_cast<double>(dispatched));
  ff::set_kernel_isa(ff::KernelIsa::kScalar);
  if (ff::active_kernel_isa() != ff::KernelIsa::kScalar) {
    std::printf("(ANTMD_FORCE_ISA pins the ISA; skipping the sweep)\n");
    return;
  }

  auto spec = build_water_box(360, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kReactionCutoff;

  Table table({"isa", "wall (s)", "speedup vs scalar"});
  double t_scalar = 0.0;
  double best = 1.0;
  for (ff::KernelIsa isa :
       {ff::KernelIsa::kScalar, ff::KernelIsa::kAvx2,
        ff::KernelIsa::kAvx512}) {
    if (!ff::kernel_isa_supported(isa)) continue;
    ff::set_kernel_isa(isa);
    ForceField field(spec.topology, model);
    md::Simulation sim = md::SimulationBuilder()
                             .dt_fs(2.0)
                             .neighbor_skin(1.0)
                             .langevin(300.0, 5.0)
                             .threads(1)
                             .build(field, spec.positions, spec.box);
    auto t_start = std::chrono::steady_clock::now();
    sim.run(40);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
    if (isa == ff::KernelIsa::kScalar) t_scalar = wall;
    const double speedup = t_scalar > 0 ? t_scalar / wall : 1.0;
    if (isa != ff::KernelIsa::kScalar && speedup > best) best = speedup;
    table.add_row({ff::to_string(isa), Table::num(wall, 3),
                   Table::num(speedup, 2)});
    const std::string kp = std::string("simd_") + ff::to_string(isa);
    report.emplace_back(kp + "_wall_s", wall);
    report.emplace_back(kp + "_speedup_vs_scalar", speedup);
  }
  report.emplace_back("simd_best_speedup_vs_scalar", best);
  ff::set_kernel_isa(dispatched);
  std::fputs(table.render().c_str(), stdout);
}

}  // namespace

int main() {
  bench::print_header(
      "F1: strong scaling",
      "Modeled step time (us) vs torus size; water systems; dt 2.5 fs, "
      "k-space every 2 steps");

  machine::WorkloadParams params;
  params.cutoff = 10.0;

  const std::vector<size_t> waters_list = {3840, 7849, 30720};
  const std::vector<std::array<int, 3>> layouts = {
      {2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {6, 6, 6}, {8, 8, 8}};

  Table table({"nodes", "system", "atoms/node", "step (us)", "ns/day",
               "parallel eff"});
  for (size_t waters : waters_list) {
    auto stats = machine::SystemStats::water(waters);
    double t_ref = 0.0;
    size_t nodes_ref = 0;
    for (const auto& l : layouts) {
      machine::MachineConfig cfg =
          machine::anton_with_torus(l[0], l[1], l[2]);
      machine::TimingModel model(cfg);
      auto work = machine::estimate_step_work(stats, cfg.node_count(),
                                              params);
      double t = bench::amortized_step_s(model, work, 2);
      if (nodes_ref == 0) {
        t_ref = t;
        nodes_ref = cfg.node_count();
      }
      double eff = (t_ref * static_cast<double>(nodes_ref)) /
                   (t * static_cast<double>(cfg.node_count()));
      table.add_row(
          {std::to_string(cfg.node_count()),
           "water-" + std::to_string(waters),
           Table::num(static_cast<double>(stats.atoms) /
                          static_cast<double>(cfg.node_count()),
                      0),
           Table::num(t * 1e6, 2),
           Table::num(machine::ns_per_day(2.5, t), 0),
           Table::num(eff, 2)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nShape check: efficiency stays high while atoms/node >~ 1000 and "
      "degrades as the per-node work shrinks toward the network floor.\n");

  MetricList report;
  wall_clock_scaling(report);
  host_md_scaling(report);
  network_attribution(report);
  simd_isa_scaling(report);
  bench::write_json_report("f1_scaling", 8, report);
  return 0;
}
