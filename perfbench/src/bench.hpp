#pragma once

// Shared machinery of the benchmark runner: run options, the timed-phase
// loop, latency statistics, benchmark-side layer spans and the result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (fleet sockets, trace files).
  std::string work_dir = ".bench_build/run";
  /// Directory holding soctest-serve / soctest-frontdoor / soctest-perf.
  std::string bin_dir = ".bench_build/bin";
};

/// How many times set-up is repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// rss_peak_mb is read once a run has completed this many rounds (or at
/// its end, if it completes fewer): memory that grows with every operation
/// then shows as growth per operation, not as how far a run got.
inline constexpr long long kRssRounds = 8;

/// A benchmark-side span around one call into a module's public function.
/// Recorded as an obs span named "bench.<layer>" carrying the operation id,
/// so the program's own spans opened inside the call nest under it and the
/// span profile yields the layer's self time. Costs nothing untraced.
class LayerSpan {
 public:
  LayerSpan(std::string_view name, long long op);

 private:
  std::optional<soctest::obs::Span> span_;
};

/// Outcome of one timed operation, as the workload reports it.
struct OpOutcome {
  long long t_cycles = 0;  ///< returned system test time
  bool failed = false;     ///< counted in `failed` (see the named fault)
};

/// Collected figures of one timed phase.
struct PhaseStats {
  /// Latency of every operation, in run order.
  std::vector<double> latency_ms;
  /// latency_ms regrouped by position in the round: [index][round].
  std::vector<std::vector<double>> by_index_ms;
  /// Operations per second of each whole round.
  std::vector<double> round_per_s;
  std::vector<long long> makespans;
  double busy_s = 0.0;  ///< summed operation time (checks excluded)
  double rss_mb = 0.0;  ///< peak RSS after kRssRounds rounds
  /// Per-label operations, failures and summed ms, for the stderr summary.
  struct Kind {
    long long ops = 0;
    long long failed = 0;
    double ms = 0.0;
  };
  std::map<std::string, Kind> by_label;
  long long attempted = 0;
  long long failed = 0;
};

/// A workload whose operations run serially in this process.
class InProcessWorkload {
 public:
  virtual ~InProcessWorkload() = default;
  /// One full set-up (inputs generated, memo warmed as the workload says).
  virtual void setup() = 0;
  /// Operations per round; every run attempts whole rounds.
  virtual std::size_t round_size() const = 0;
  /// True when round after round repeats the same operations on the same
  /// inputs: an operation's latency is then its median over the rounds,
  /// which keeps a burst of machine noise from moving the percentiles.
  virtual bool repeats_operations() const { return false; }
  /// Groups operations in the per-kind latency summary on stderr.
  virtual std::string label(std::size_t index) const = 0;
  /// Prepares operation `index` of the round (untimed).
  virtual void prepare(std::size_t /*index*/) {}
  /// Runs operation `index` of the round: the timed part.
  virtual void run(std::size_t index, long long op) = 0;
  /// Checks the result of the last run() independently and reports it
  /// (untimed). Check failures go to `errors`.
  virtual OpOutcome check(std::size_t index,
                          std::vector<std::string>& errors) = 0;
  /// Cross-operation checks after each whole round.
  virtual void check_round(std::vector<std::string>& /*errors*/) {}
  /// Per-layer figures of the traced phase (obs still live), per round:
  /// counts and times are divided by `rounds`, so that they do not depend
  /// on how many rounds a run got through.
  virtual void layer_metrics(const soctest::obs::Profile& profile,
                             double rounds,
                             std::map<std::string, double>& out) = 0;
};

/// Runs whole rounds until `seconds` of operation time have elapsed.
PhaseStats run_rounds(InProcessWorkload& workload, double seconds,
                      std::vector<std::string>& errors);

/// Nearest-rank percentile of `values` (p in [0,1]); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double geomean(const std::vector<long long>& values);

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
double peak_rss_mb(int pid);

/// The six end-to-end metrics, keyed by name. solves_per_s is the median
/// over rounds of each round's operations per second; with
/// `per_operation_median` the latency percentiles are taken over each
/// operation's median latency across rounds, else over every latency.
std::map<std::string, double> end_to_end(const std::vector<double>& setup_s,
                                         const PhaseStats& phase,
                                         double rss_mb,
                                         bool per_operation_median = false);

/// Span-profile lookups by name (0 when the span never ran).
double span_total_ms(const soctest::obs::Profile& profile,
                     std::string_view name);
double span_self_ms(const soctest::obs::Profile& profile,
                    std::string_view name);
long long span_count(const soctest::obs::Profile& profile,
                     std::string_view name);
/// Counter value from the obs registry (0 when never registered).
long long counter_value(std::string_view name);

/// Self time of the per-operation root spans: traced time in no layer.
inline constexpr const char* kOpSpan = "bench.op";

/// Every per-layer metric name, in report order; a workload that does not
/// exercise a layer reports it as 0.
const std::vector<std::string>& per_layer_names();

/// Runs a whole in-process workload for the runner: repeated set-up, the
/// timed phase, and with `trace` the untraced/traced phase pair.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
};
RunResult run_in_process(InProcessWorkload& workload, const Options& options);

/// Adds trace.overhead_* figures comparing a traced phase with an untraced
/// one (percent change; positive = tracing made it slower).
void add_overhead(const std::map<std::string, double>& untraced,
                  const std::map<std::string, double>& traced,
                  std::map<std::string, double>& out);

/// Writes the obs trace of the traced phase (benchmark and program spans)
/// as soctest-trace-v1 JSON under the work directory.
void write_trace(const soctest::obs::TraceSink& sink, const Options& options);

}  // namespace perfbench
