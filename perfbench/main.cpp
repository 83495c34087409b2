// antmd_perfbench: one workload, one seed, one process.
//
//   antmd_perfbench --workload water_gse|lj_cutoff|fleet_small --seed N
//                   --seconds S --trace 0|1 [--cache-dir DIR] [--out-dir DIR]
//                   [--tiny]
//   antmd_perfbench --gate-selftest
//
// Prints the host fingerprint, the sanity-gate and output-check verdicts,
// every metric with its unit, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant and reports the
// per-layer metrics, writing its spans to <out-dir>/trace-<workload>-<seed>.json.
// Exit codes: 0 correct, 1 a check failed, 2 usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: antmd_perfbench --workload water_gse|lj_cutoff|"
               "fleet_small --seed N --seconds S --trace 0|1\n"
               "                       [--cache-dir DIR] [--out-dir DIR] "
               "[--tiny]\n"
               "       antmd_perfbench --gate-selftest\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

void print_result(const Result& res) {
  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : res.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool gate_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_number(argv[++i], number) &&
               number >= 0) {
      opt.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && has_value &&
               parse_number(argv[++i], number) && number > 0) {
      opt.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace" && has_value &&
               (std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      opt.trace = argv[++i][0] == '1';
      have_trace = true;
    } else if (arg == "--cache-dir" && has_value) {
      opt.cache_dir = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--gate-selftest") {
      gate_selftest = true;
    } else {
      return usage();
    }
  }

  try {
    if (gate_selftest) {
      // The gate must reject the unequilibrated lattice start of the
      // canonical water; exit 0 only when it does.
      std::vector<std::string> notes;
      const bool rejected = gate_rejects_lattice_start(notes);
      for (const std::string& n : notes) std::printf("%s\n", n.c_str());
      std::printf("lattice start %s by the sanity gate\n",
                  rejected ? "rejected" : "NOT rejected");
      return rejected ? 0 : 1;
    }
    if (!have_seed || !have_seconds || !have_trace) return usage();

    std::printf("workload %s, seed %llu, %g s, trace %d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::map<std::string, std::string> meta;
    for (const auto& [key, value] : host_fingerprint()) {
      std::printf("host %s: %s\n", key.c_str(), value.c_str());
      meta[key] = value;
    }

    Result res;
    if (opt.workload == "water_gse" || opt.workload == "lj_cutoff") {
      res = run_md_workload(opt);
    } else if (opt.workload == "fleet_small") {
      res = run_fleet_workload(opt);
    } else {
      std::fprintf(stderr, "antmd_perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    for (const Metric& m : res.metrics) {
      if (!std::isfinite(m.value)) res.attempt(false, m.name, "not finite");
    }
    for (Metric& m : res.metrics) {
      if (!std::isfinite(m.value)) m.value = 0.0;  // keep the JSON valid
    }

    if (opt.trace) {
      std::filesystem::create_directories(opt.out_dir);
      const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".json";
      meta["workload"] = opt.workload;
      meta["seed"] = std::to_string(opt.seed);
      if (recorder().write_chrome_trace(path, meta)) {
        res.notes.push_back("wrote trace " + path);
      } else {
        res.attempt(false, "trace file", "could not write " + path);
      }
    }
    print_result(res);
    return res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "antmd_perfbench: %s\n", e.what());
    return 1;
  }
}
