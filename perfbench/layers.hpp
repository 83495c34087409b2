// Per-layer probes for the traced run: the benchmark times calls into each
// layer's public functions, applied to states captured from the run.  Each
// call is recorded as a span; a probe reports the median over its calls.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "bench.hpp"
#include "ff/forcefield.hpp"
#include "fleet/run.hpp"
#include "math/pbc.hpp"
#include "util/serialize.hpp"

namespace perfbench {

/// Calls fn under span `name` at least once and at most `max_calls` times,
/// stopping early once `budget_s` is spent; returns the median call in ms.
/// With max_calls > 1 an untimed warm-up call comes first.  `prepare`
/// (optional) runs before each call, outside the timing.
double time_calls(const char* name, const std::function<void()>& fn,
                  const std::function<void()>& prepare = {},
                  size_t max_calls = 5, double budget_s = 1.0);

/// A captured simulation state plus what its layers were built from.
struct CapturedSystem {
  const antmd::ForceField* field = nullptr;
  std::span<const antmd::Vec3> positions;
  std::span<const antmd::Vec3> velocities;
  antmd::Box box;
  double skin = 1.5;
  double dt_fs = 2.0;
};

/// ewald.compute_ms, fft.*, md.nlist.* (except rebuilds), ff.*, and
/// md.constraints*.  Layers a system does not use are still called (they
/// return at once), so their time reads as the cost of the no-op.
void probe_md_layers(const CapturedSystem& sys, Result& out);

/// io.checkpoint_{bytes,write_ms,read_ms}: v2 checkpoint of `obj` at
/// `path` (fsync'd write, CRC-verified read that restores into `obj`).
void probe_checkpoint(antmd::util::Checkpointable& obj, const std::string& path,
                      Result& out);

/// fleet.materialize_ms and fleet.advance_ms: each spec is materialized on
/// one lane and advanced by one supervised slice of `slice_steps`; the
/// metrics are the medians over specs.
void probe_fleet_layer(const std::vector<antmd::fleet::RunSpec>& specs,
                       size_t slice_steps, Result& out);

}  // namespace perfbench
