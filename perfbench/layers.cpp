#include "layers.hpp"

#include <filesystem>
#include <vector>

#include "fft/fft3d.hpp"
#include "io/checkpoint.hpp"
#include "math/units.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "spans.hpp"
#include "util/execution.hpp"

namespace perfbench {

using namespace antmd;

double time_calls(const char* name, const std::function<void()>& fn,
                  const std::function<void()>& prepare, size_t max_calls,
                  double budget_s) {
  if (max_calls > 1) {
    // Untimed first call: fills caches and grows the callee's buffers the
    // way every call after the first one inside a run finds them.
    if (prepare) prepare();
    fn();
  }
  std::vector<double> ms;
  const int64_t start = now_ns();
  while (ms.size() < max_calls &&
         (ms.empty() || seconds_since(start) < budget_s)) {
    if (prepare) prepare();
    const int64_t t0 = now_ns();
    {
      ScopedSpan span(name);
      fn();
    }
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

void probe_md_layers(const CapturedSystem& sys, Result& out) {
  const ForceField& field = *sys.field;
  const Topology& topo = field.topology();
  const size_t n = topo.atom_count();
  ExecutionConfig lanes4;
  lanes4.threads = 4;
  const auto exec4 = ExecutionContext::create(lanes4);

  // Reciprocal space and its FFT.
  ForceResult kspace(n);
  out.set("ewald.compute_ms",
          time_calls("ewald.compute",
                     [&] { field.compute_kspace(sys.positions, sys.box, kspace); },
                     [&] { kspace.reset(n); }),
          "ms");
  Grid3D grid;
  if (const GseSolver* gse = field.gse()) {
    grid = Grid3D(gse->nx(), gse->ny(), gse->nz());
  }
  out.set("fft.grid_points", static_cast<double>(grid.size()), "count");
  out.set("fft.transform_ms",
          time_calls("fft.transform", [&] { fft3d_forward(grid); },
                     [&] { grid.fill(Complex(1.0, 0.0)); }),
          "ms");

  // Neighbor search, serial and on four lanes.
  const double cutoff = field.model().cutoff;
  md::NeighborList nlist(topo, cutoff, sys.skin, /*cluster_mode=*/true);
  out.set("md.nlist.build_ms_t1", time_calls("md.nlist.build_t1", [&] {
            nlist.build(sys.positions, sys.box);
          }), "ms");
  md::NeighborList nlist4(topo, cutoff, sys.skin, /*cluster_mode=*/true);
  nlist4.set_execution(exec4);
  out.set("md.nlist.build_ms_t4", time_calls("md.nlist.build_t4", [&] {
            nlist4.build(sys.positions, sys.box);
          }), "ms");
  const ff::ClusterPairList& clusters = nlist.clusters();
  out.set("md.nlist.pairs", static_cast<double>(clusters.real_pairs), "count");
  out.set("ff.cluster.fill_ratio", clusters.fill_ratio(), "ratio");
  out.set("ff.cluster.streamed_fill_ratio", clusters.streamed_fill_ratio(),
          "ratio");

  // Real-space nonbonded tiles over the list just built.
  ForceResult nb(n);
  const auto reset_nb = [&] { nb.reset(n); };
  const double nb_t1 = time_calls(
      "ff.nonbonded_t1",
      [&] {
        field.compute_nonbonded_clusters(clusters, sys.positions, sys.box, nb);
      },
      reset_nb);
  out.set("ff.nonbonded_ms_t1", nb_t1, "ms");
  out.set("ff.nonbonded_ms_t4",
          time_calls(
              "ff.nonbonded_t4",
              [&] {
                field.compute_nonbonded_clusters(nlist4.clusters(),
                                                 sys.positions, sys.box, nb,
                                                 exec4.get());
              },
              reset_nb),
          "ms");
  out.set("ff.pairs_per_us",
          nb_t1 > 0 ? static_cast<double>(clusters.real_pairs) / (nb_t1 * 1e3)
                    : 0.0,
          "1/us");

  // Constraints: SHAKE on one unconstrained drift step from the captured
  // state, then the RATTLE velocity stage (the Simulation's settings).
  const md::ConstraintSolver solver(topo, 1e-8, 500);
  const double dt = units::fs_to_internal(sys.dt_fs);
  std::vector<Vec3> drifted(n), pos, vel;
  for (size_t i = 0; i < n; ++i) {
    drifted[i] = sys.positions[i] + sys.velocities[i] * dt;
  }
  size_t iterations = 0;
  out.set("md.constraints_ms",
          time_calls(
              "md.constraints",
              [&] {
                iterations = solver
                                 .apply_positions(sys.positions, pos, vel, dt,
                                                  sys.box)
                                 .iterations;
                solver.apply_velocities(pos, vel, sys.box);
              },
              [&] {
                pos = drifted;
                vel.assign(sys.velocities.begin(), sys.velocities.end());
              }),
          "ms");
  out.set("md.constraints.iterations", static_cast<double>(iterations),
          "count");
}

void probe_checkpoint(util::Checkpointable& obj, const std::string& path,
                      Result& out) {
  out.set("io.checkpoint_write_ms", time_calls("io.checkpoint_write", [&] {
            io::save_checkpoint_v2(path, {{"sim", &obj}});
          }), "ms");
  out.set("io.checkpoint_bytes",
          static_cast<double>(std::filesystem::file_size(path)), "bytes");
  out.set("io.checkpoint_read_ms", time_calls("io.checkpoint_read", [&] {
            io::load_checkpoint_v2(path, {{"sim", &obj}});
          }), "ms");
  std::filesystem::remove(path);
}

void probe_fleet_layer(const std::vector<fleet::RunSpec>& specs,
                       size_t slice_steps, Result& out) {
  std::vector<double> materialize_ms, advance_ms;
  for (const fleet::RunSpec& spec : specs) {
    std::unique_ptr<fleet::Driver> driver;
    materialize_ms.push_back(time_calls(
        "fleet.materialize",
        [&] { driver = fleet::materialize(spec, nullptr, 1, ""); }, {}, 1));
    advance_ms.push_back(time_calls(
        "fleet.advance", [&] { driver->advance(slice_steps); }, {}, 1));
  }
  out.set("fleet.materialize_ms", median(materialize_ms), "ms");
  out.set("fleet.advance_ms", median(advance_ms), "ms");
}

}  // namespace perfbench
