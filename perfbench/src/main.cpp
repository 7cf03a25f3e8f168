// perfbench_runner: runs one workload of the soctest benchmark and prints
// its result as one JSON line, the last line of standard output.
//
//   perfbench_runner --workload sweep|cold|service|serve --seed N --seconds S
//                    --trace 0|1 [--work-dir DIR] [--bin-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and a
// traced half and prints the per-layer metrics and the tracing overhead.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

const char* unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name == "setup_s") return "s";
  if (name == "solves_per_s") return "1/s";
  if (name == "rss_peak_mb") return "MB";
  if (ends("makespan_geomean")) return "cycles";
  if (ends("_ms") || ends(".ms")) return "ms";
  if (ends("_pct")) return "%";
  if (ends(".bytes")) return "bytes";
  if (ends(".hit_ratio")) return "ratio";
  return "count";
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "sweep|cold|service|serve --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--bin-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") o.work_dir = value;
      else if (flag == "--bin-dir") o.bin_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  if (o.workload != "sweep" && o.workload != "cold" && o.workload != "service" &&
      o.workload != "serve") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  perfbench::RunResult result;
  try {
    if (options.workload == "serve" || options.workload == "service") {
      result = perfbench::run_serve(options);
    } else {
      auto workload = options.workload == "sweep" ? perfbench::make_sweep(options)
                                                  : perfbench::make_cold(options);
      result = perfbench::run_in_process(*workload, options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  soctest::JsonWriter w;
  w.begin_object();
  w.key("correct").value(result.correct);
  w.key("attempted").value(result.attempted);
  w.key("failed").value(result.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, value] : result.metrics) {
    w.key(name).begin_object();
    w.key("value").value(std::isfinite(value) ? value : 0.0);
    w.key("unit").value(unit_of(name));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
