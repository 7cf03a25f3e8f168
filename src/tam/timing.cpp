#include "tam/timing.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace soctest {

TestTimeTableMemo& test_time_table_memo() {
  // Unbounded (capacity 0): entries are pinned so the references
  // cached_test_time_table hands out stay valid for the process lifetime.
  static TestTimeTableMemo memo(/*capacity=*/0, /*num_shards=*/8);
  return memo;
}

const TestTimeTable& cached_test_time_table(const Soc& soc, int max_width,
                                            PartitionHeuristic heuristic) {
  // One span per lookup, hit or miss: a span on builds alone would make a
  // run's profile depend on what earlier runs left in the process-wide memo.
  obs::Span span("wrapper.table.lookup");
  std::ostringstream key;
  key << max_width << '|' << static_cast<int>(heuristic) << '|'
      << soc_table_fingerprint(soc);
  bool built = false;
  const TestTimeTable& table = *test_time_table_memo().get_or_create(key.str(), [&] {
    built = true;
    return TestTimeTable(soc, max_width, heuristic);
  });
  if (span.active()) {
    span.arg({"cores", soc.num_cores()});
    span.arg({"max_width", max_width});
    span.arg({"built", built});
  }
  return table;
}

std::vector<double> bus_clock_periods_ns(const BusPlan& plan,
                                         const std::vector<int>& assignment,
                                         const TamClockModel& model) {
  std::vector<int> max_stub(plan.num_buses(), 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const int bus = assignment[i];
    if (bus < 0 || static_cast<std::size_t>(bus) >= plan.num_buses()) {
      throw std::invalid_argument("assignment references unknown bus");
    }
    const int d = plan.distance(i, static_cast<std::size_t>(bus));
    if (d < 0) {
      throw std::invalid_argument("core " + std::to_string(i) +
                                  " unreachable from its bus");
    }
    max_stub[static_cast<std::size_t>(bus)] =
        std::max(max_stub[static_cast<std::size_t>(bus)], d);
  }
  std::vector<double> periods(plan.num_buses(), model.base_period_ns);
  for (std::size_t j = 0; j < plan.num_buses(); ++j) {
    const int critical = plan.buses[j].trunk.length() + max_stub[j];
    periods[j] += model.per_cell_ns * critical;
  }
  return periods;
}

double wall_clock_test_time_ns(const TamProblem& problem, const BusPlan& plan,
                               const std::vector<int>& assignment,
                               const TamClockModel& model) {
  const auto periods = bus_clock_periods_ns(plan, assignment, model);
  std::vector<Cycles> load(problem.num_buses(), 0);
  for (std::size_t i = 0; i < problem.num_cores(); ++i) {
    const auto j = static_cast<std::size_t>(assignment[i]);
    load[j] += problem.time[i][j];
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < problem.num_buses(); ++j) {
    worst = std::max(worst, static_cast<double>(load[j]) * periods[j]);
  }
  return worst;
}

}  // namespace soctest
