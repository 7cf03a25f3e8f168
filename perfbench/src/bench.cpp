#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "report/run_report.hpp"

namespace perfbench {

namespace obs = soctest::obs;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

LayerSpan::LayerSpan(std::string_view name, long long op) {
  if (obs::enabled()) span_.emplace(name, std::initializer_list<obs::Arg>{{"op", op}});
}

PhaseStats run_rounds(InProcessWorkload& workload, double seconds,
                      std::vector<std::string>& errors) {
  PhaseStats stats;
  const std::size_t n = workload.round_size();
  stats.by_index_ms.resize(n);
  long long op = 0;
  while (stats.busy_s < seconds) {
    const double round_start_s = stats.busy_s;
    for (std::size_t i = 0; i < n; ++i) {
      workload.prepare(i);
      const auto start = Clock::now();
      {
        LayerSpan root(kOpSpan, op);
        workload.run(i, op);
      }
      const double ms = ms_since(start);
      stats.latency_ms.push_back(ms);
      stats.by_index_ms[i].push_back(ms);
      stats.busy_s += ms / 1000.0;
      ++op;
      const OpOutcome outcome = workload.check(i, errors);
      stats.makespans.push_back(outcome.t_cycles);
      ++stats.attempted;
      if (outcome.failed) ++stats.failed;
      auto& kind = stats.by_label[workload.label(i)];
      ++kind.ops;
      kind.ms += ms;
      if (outcome.failed) ++kind.failed;
    }
    workload.check_round(errors);
    stats.round_per_s.push_back(static_cast<double>(n) /
                                (stats.busy_s - round_start_s));
    if (static_cast<long long>(stats.round_per_s.size()) == kRssRounds) {
      stats.rss_mb = peak_rss_mb(::getpid());
    }
  }
  if (stats.rss_mb == 0.0) stats.rss_mb = peak_rss_mb(::getpid());
  return stats;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<long long>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (long long v : values) log_sum += std::log(static_cast<double>(std::max(1LL, v)));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::map<std::string, double> end_to_end(const std::vector<double>& setup_s,
                                         const PhaseStats& phase,
                                         double rss_mb,
                                         bool per_operation_median) {
  std::map<std::string, double> m;
  m["setup_s"] = median(setup_s);
  m["solves_per_s"] = median(phase.round_per_s);
  std::vector<double> latency = phase.latency_ms;
  if (per_operation_median) {
    latency.clear();
    for (const auto& rounds : phase.by_index_ms) latency.push_back(median(rounds));
  }
  m["latency_p50_ms"] = percentile(latency, 0.50);
  m["latency_p95_ms"] = percentile(latency, 0.95);
  m["makespan_geomean"] = geomean(phase.makespans);
  m["rss_peak_mb"] = rss_mb;
  return m;
}

namespace {

const obs::SpanProfile* find_span(const obs::Profile& profile,
                                  std::string_view name) {
  for (const auto& s : profile.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

double span_total_ms(const obs::Profile& profile, std::string_view name) {
  const auto* s = find_span(profile, name);
  return s ? s->total_us / 1000.0 : 0.0;
}

double span_self_ms(const obs::Profile& profile, std::string_view name) {
  const auto* s = find_span(profile, name);
  return s ? s->self_us / 1000.0 : 0.0;
}

long long span_count(const obs::Profile& profile, std::string_view name) {
  const auto* s = find_span(profile, name);
  return s ? s->count : 0;
}

long long counter_value(std::string_view name) {
  for (const auto& c : obs::counter_values()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "soc.parse.calls",        "soc.parse.ms",
      "wrapper.table.builds",   "wrapper.table.cells",
      "wrapper.table.ms",       "wrapper.table.memo_hits",
      "wrapper.table.memo_entries",
      "tam.width_search.calls", "tam.width_search.ms",
      "tam.width_search.partitions",
      "tam.exact.ms",           "tam.exact.nodes",
      "tam.proven",             "tam.greedy.ms",
      "tam.portfolio.calls",    "tam.portfolio.ms",
      "tam.portfolio.races",    "tam.portfolio.cert_weaker",
      "ilp.calls",              "ilp.ms",
      "ilp.bb.nodes",           "ilp.simplex.pivots",
      "pack.calls",             "pack.skyline.ms",
      "pack.exact.ms",          "pack.exact.nodes",
      "pack.exact.proven",      "pack.makespan_geomean",
      "layout.plan.calls",      "layout.plan.ms",
      "layout.stub_wirelength",
      "sched.schedule.calls",   "sched.schedule.ms",
      "sched.power.ms",
      "report.json.calls",      "report.json.ms",
      "report.json.bytes",
      "service.rtt_ms",         "service.queue_ms",
      "service.solve_ms",       "service.overhead_ms",
      "frontdoor.relay_ms",     "service.cache.hits",
      "service.cache.misses",   "service.cache.hit_ratio",
      "service.cache.lookups",  "service.partials",
      "service.parse.ms",
      "root.self_ms",
      "trace.overhead_solves_pct", "trace.overhead_p50_pct",
  };
  return names;
}

void add_overhead(const std::map<std::string, double>& untraced,
                  const std::map<std::string, double>& traced,
                  std::map<std::string, double>& out) {
  const auto pct = [](double base, double value) {
    return base > 0.0 ? 100.0 * (value - base) / base : 0.0;
  };
  // Fewer solves per second under tracing is a cost, so the sign flips.
  out["trace.overhead_solves_pct"] =
      -pct(untraced.at("solves_per_s"), traced.at("solves_per_s"));
  out["trace.overhead_p50_pct"] =
      pct(untraced.at("latency_p50_ms"), traced.at("latency_p50_ms"));
}

void write_trace(const obs::TraceSink& sink, const Options& options) {
  ::mkdir(options.work_dir.c_str(), 0755);
  const std::string path = options.work_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  std::ofstream out(path);
  out << soctest::trace_json(sink, "perfbench") << "\n";
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
}

RunResult run_in_process(InProcessWorkload& workload, const Options& options) {
  RunResult result;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto start = Clock::now();
    workload.setup();
    setup_s.push_back(ms_since(start) / 1000.0);
  }
  if (!options.trace) {
    const PhaseStats phase = run_rounds(workload, options.seconds, errors);
    result.metrics = end_to_end(setup_s, phase, phase.rss_mb,
                                workload.repeats_operations());
    for (const auto& [label, kind] : phase.by_label) {
      std::fprintf(stderr, "perfbench: %-28s %6lld ops %5lld failed %9.3f ms mean\n",
                   label.c_str(), kind.ops, kind.failed,
                   kind.ms / static_cast<double>(kind.ops));
    }
    result.attempted = phase.attempted;
    result.failed = phase.failed;
  } else {
    // Untraced and traced halves of the same run: the difference between
    // them is the tracing overhead.
    const PhaseStats plain = run_rounds(workload, options.seconds / 2, errors);
    obs::TraceSink sink;
    std::map<std::string, double> layers;
    PhaseStats traced;
    {
      obs::TraceSession session(&sink);
      workload.setup();
      // Counters cover the timed phase; set-up spans stay in the trace.
      obs::reset_metrics();
      traced = run_rounds(workload, options.seconds / 2, errors);
      const obs::Profile profile = obs::build_profile(sink);
      const auto rounds = static_cast<double>(traced.round_per_s.size());
      workload.layer_metrics(profile, rounds, layers);
      layers["root.self_ms"] = span_self_ms(profile, kOpSpan) / rounds;
    }
    const bool repeats = workload.repeats_operations();
    add_overhead(end_to_end(setup_s, plain, 0.0, repeats),
                 end_to_end(setup_s, traced, 0.0, repeats), layers);
    write_trace(sink, options);
    for (const auto& name : per_layer_names()) result.metrics[name] = layers[name];
    result.attempted = plain.attempted + traced.attempted;
    result.failed = plain.failed + traced.failed;
  }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", errors[i].c_str());
  }
  result.correct = errors.empty();
  return result;
}

}  // namespace perfbench
