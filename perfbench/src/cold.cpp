// cold: screening of SOCs the process has never seen. Every operation takes
// a generated SOC (20-200 cores) as .soc text and runs it through
// parse -> test-time table at W=64 -> greedy width search plus a
// node-budgeted explicit-width exact solve -> schedule and power profile ->
// JSON report. The wrapper table, the parser and the report dominate; the
// solvers do little, and the process-wide table memo only grows.
//
// A round is a fixed set of SOC structures drawn from the seed. Each
// operation renames its SOC uniquely; the name is part of the memo key, so
// every operation is new to the process (parse, table build, memo insert),
// while T, and so makespan_geomean, is the same in every round.

#include <stdexcept>

#include "checks.hpp"
#include "report/design_report.hpp"
#include "report/json.hpp"
#include "sched/power_profile.hpp"
#include "sched/schedule.hpp"
#include "soc/soc_format.hpp"
#include "tam/architect.hpp"
#include "tam/timing.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace soctest;

namespace {

/// SOC sizes; a round screens kPerSize SOCs of each.
const int kColdSizes[] = {20, 40, 60, 90, 120, 160, 200};
constexpr std::size_t kPerSize = 8;
constexpr std::size_t kRound = std::size(kColdSizes) * kPerSize;
constexpr int kWidth = 64;
constexpr int kBuses = 2;
constexpr long long kExactNodeBudget = 20000;

int size_of(std::size_t index) {
  return kColdSizes[index % std::size(kColdSizes)];
}

class Cold final : public InProcessWorkload {
 public:
  explicit Cold(const Options& options) : options_(options) {}

  void setup() override {
    test_time_table_memo().clear();
    inputs_.clear();
    serial_ = 0;
    report_bytes_ = proven_ = table_cells_ = 0.0;
    for (std::size_t j = 0; j < kRound; ++j) {
      inputs_.push_back(unnamed_soc_text(
          stratified_soc(size_of(j), mix(options_.seed, 1000 + j))));
    }
    memo_start_ = test_time_table_memo().stats();
  }

  std::size_t round_size() const override { return kRound; }

  std::string label(std::size_t index) const override {
    return "screen n=" + std::to_string(size_of(index));
  }

  void prepare(std::size_t index) override {
    text_ = "soc cold" + std::to_string(options_.seed) + "-" +
            std::to_string(serial_++) + inputs_[index];
  }

  void run(std::size_t /*index*/, long long op) override {
    const std::string& text = text_;
    {
      LayerSpan span("bench.soc.parse", op);
      StatusOr<Soc> parsed = parse_soc_string(text, "cold");
      if (!parsed.ok()) throw std::runtime_error(parsed.status().message());
      soc_ = parsed.take();
    }
    {
      LayerSpan span("bench.wrapper.table", op);
      table_ = &cached_test_time_table(soc_, kWidth);
    }
    table_cells_ += static_cast<double>(soc_.num_cores()) * kWidth;
    ArchitectureResult greedy;
    {
      LayerSpan span("bench.tam.greedy", op);
      WidthPartitionOptions options;
      options.solver = InnerSolver::kGreedy;
      greedy = optimize_widths(soc_, *table_, kBuses, kWidth, nullptr, -1, -1.0,
                               options);
    }
    if (!greedy.feasible) throw std::runtime_error("greedy width search infeasible");
    result_ = DesignResult{};
    result_.feasible = true;
    result_.bus_widths = greedy.bus_widths;
    result_.assignment = greedy.assignment;
    result_.partitions_tried = greedy.partitions_tried;
    {
      LayerSpan span("bench.tam.fixed", op);
      problem_ = make_tam_problem(soc_, *table_, greedy.bus_widths);
      ExactSolverOptions options;
      options.max_nodes = kExactNodeBudget;
      const TamSolveResult exact = solve_exact(problem_, options);
      result_.total_nodes = exact.nodes;
      if (exact.feasible && exact.assignment.makespan <= greedy.assignment.makespan) {
        result_.assignment = exact.assignment;
        result_.proved_optimal = exact.proved_optimal;
        result_.search_mode = exact.search_mode;
      }
      const long long t = static_cast<long long>(result_.assignment.makespan);
      result_.certificate =
          result_.proved_optimal
              ? certify_optimal(t)
              : certify_bounded(t, static_cast<long long>(problem_.lower_bound()),
                                exact.stop);
    }
    {
      LayerSpan span("bench.sched.schedule", op);
      schedule_ = build_schedule(problem_, result_.assignment.core_to_bus);
    }
    {
      LayerSpan span("bench.sched.power", op);
      profile_ = compute_power_profile(soc_, schedule_);
    }
    {
      LayerSpan span("bench.report.json", op);
      DesignRequest request;
      request.num_buses = kBuses;
      request.total_width = kWidth;
      report_ = design_report_json(soc_, request, result_, &schedule_);
    }
    report_bytes_ += static_cast<double>(report_.size());
    if (result_.proved_optimal) ++proven_;
  }

  OpOutcome check(std::size_t index, Errors& errors) override {
    const std::string where =
        "cold op " + std::to_string(serial_ - 1) + " n=" + std::to_string(size_of(index));
    OpOutcome out;
    out.t_cycles = static_cast<long long>(result_.assignment.makespan);
    if (soc_.num_cores() != static_cast<std::size_t>(size_of(index))) {
      errors.push_back(where + ": parsed core count");
    }
    DesignLimits limits;
    limits.num_buses = kBuses;
    limits.total_width = kWidth;
    check_fixed_bus(where, soc_, *table_, limits, result_.bus_widths,
                    result_.assignment.core_to_bus, out.t_cycles, nullptr, 0,
                    errors);
    check_schedule(where, *table_, result_.bus_widths,
                   result_.assignment.core_to_bus, schedule_, out.t_cycles, errors);
    check_power_profile(where, soc_, schedule_, profile_, errors);
    const auto report = parse_json(report_);
    if (!report || report->number_or("test_time_cycles", -1) !=
                       static_cast<double>(out.t_cycles)) {
      errors.push_back(where + ": report does not carry T");
    } else if (const JsonValue* buses = report->find("buses");
               !buses || buses->items.size() != result_.bus_widths.size()) {
      errors.push_back(where + ": report bus list");
    } else {
      for (std::size_t j = 0; j < buses->items.size(); ++j) {
        if (buses->items[j].number_or("width", -1) != result_.bus_widths[j]) {
          errors.push_back(where + ": report bus width");
        }
      }
    }
    return out;
  }

  void layer_metrics(const obs::Profile& profile, double rounds,
                     std::map<std::string, double>& out) override {
    const auto stats = test_time_table_memo().stats();
    const auto count = [&](const char* name) {
      return static_cast<double>(span_count(profile, name)) / rounds;
    };
    const auto ms = [&](const char* name) {
      return span_total_ms(profile, name) / rounds;
    };
    out["soc.parse.calls"] = count("bench.soc.parse");
    out["soc.parse.ms"] = ms("bench.soc.parse");
    out["wrapper.table.builds"] =
        static_cast<double>(stats.misses - memo_start_.misses) / rounds;
    out["wrapper.table.cells"] = table_cells_ / rounds;
    out["wrapper.table.ms"] = ms("bench.wrapper.table");
    out["wrapper.table.memo_hits"] =
        static_cast<double>(stats.hits - memo_start_.hits) / rounds;
    out["wrapper.table.memo_entries"] = static_cast<double>(stats.size);
    out["tam.greedy.ms"] = ms("bench.tam.greedy");
    out["tam.width_search.calls"] = count("bench.tam.greedy");
    out["tam.width_search.ms"] = span_self_ms(profile, "bench.tam.greedy") / rounds;
    out["tam.exact.ms"] = ms("tam.exact.solve");
    out["tam.exact.nodes"] = static_cast<double>(counter_value("tam.exact.nodes")) / rounds;
    out["tam.proven"] = proven_ / rounds;
    out["sched.schedule.calls"] = count("bench.sched.schedule");
    out["sched.schedule.ms"] = ms("bench.sched.schedule");
    out["sched.power.ms"] = ms("bench.sched.power");
    out["report.json.calls"] = count("bench.report.json");
    out["report.json.ms"] = ms("bench.report.json");
    out["report.json.bytes"] = report_bytes_ / rounds;
  }

 private:
  Options options_;
  /// SOC texts of one round without their first "soc <name>" token.
  std::vector<std::string> inputs_;
  std::string text_;
  long long serial_ = 0;
  TestTimeTableMemo::Stats memo_start_;
  Soc soc_;
  const TestTimeTable* table_ = nullptr;
  TamProblem problem_;
  DesignResult result_;
  TestSchedule schedule_;
  PowerProfile profile_;
  std::string report_;
  double report_bytes_ = 0.0;
  double proven_ = 0.0;
  double table_cells_ = 0.0;
};

}  // namespace

std::unique_ptr<InProcessWorkload> make_cold(const Options& options) {
  return std::make_unique<Cold>(options);
}

}  // namespace perfbench
