// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload flow_1t|flow_4t|serve_sweep --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Prints one JSON result line on stdout (everything else goes to stderr):
// with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
// from a traced run. perfbench/run.py builds this program and calls it; see
// perfbench/README.md for the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "util/logging.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "flow_1t|flow_4t|serve_sweep --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else if (key == "--trace-out") {
      opt.trace_path = val;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (!have_seed || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    return usage("--seed, --seconds and --work-dir are required");
  }
  xplace::log::set_level(xplace::log::Level::kWarn);

  Report report;
  Spans spans;
  Spans* traced = opt.trace ? &spans : nullptr;
  try {
    if (opt.workload == "flow_1t" || opt.workload == "flow_4t") {
      const int threads =
          opt.workload == "flow_1t"
              ? 1
              : static_cast<int>(std::clamp(
                    std::thread::hardware_concurrency(), 1u, 4u));
      run_flow_workload(opt, threads, report, traced);
    } else if (opt.workload == "serve_sweep") {
      run_serve_workload(opt, report, traced);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);

  if (opt.trace) {
    report.set("trace.spans", static_cast<double>(spans.size()), "count");
    if (!opt.trace_path.empty() && !spans.write_chrome(opt.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_path.c_str());
      return 1;
    }
  } else {
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("success_share",
               1.0 - static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()),
               "ratio");
  }
  return report.print_json(stdout) ? 0 : 1;
}
