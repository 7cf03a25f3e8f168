#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

using soctest::Cycles;

namespace {

void fail(Errors& errors, const std::string& where, const std::string& what) {
  errors.push_back(where + ": " + what);
}

bool power_conflict(const soctest::Soc& soc, std::size_t a, std::size_t b,
                    double p_max) {
  return p_max >= 0.0 &&
         soc.core(a).test_power_mw + soc.core(b).test_power_mw > p_max + 1e-9;
}

/// Peak of the summed power of intervals [start, end) over all instants.
double peak_power(const std::vector<Cycles>& starts,
                  const std::vector<Cycles>& ends,
                  const std::vector<double>& power) {
  double peak = 0.0;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const Cycles t = starts[k];
    double sum = 0.0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      if (starts[i] <= t && t < ends[i]) sum += power[i];
    }
    peak = std::max(peak, sum);
  }
  return peak;
}

/// T >= sum_i min_w (w * t_i(w)) / W and T >= max_i t_i(W).
void check_lower_bounds(const std::string& where,
                        const soctest::TestTimeTable& table, int total_width,
                        long long t_cycles, Errors& errors) {
  double area = 0.0;
  Cycles single = 0;
  const int w_top = std::min(total_width, table.max_width());
  for (std::size_t i = 0; i < table.num_cores(); ++i) {
    Cycles best = -1;
    for (int w = 1; w <= w_top; ++w) {
      const Cycles a = static_cast<Cycles>(w) * table.time(i, w);
      if (best < 0 || a < best) best = a;
    }
    area += static_cast<double>(best);
    single = std::max(single, table.time(i, w_top));
  }
  if (static_cast<double>(t_cycles) + 1e-6 < area / total_width) {
    fail(errors, where, "T=" + std::to_string(t_cycles) +
                            " below the area bound " +
                            std::to_string(area / total_width));
  }
  if (t_cycles < single) {
    fail(errors, where, "T=" + std::to_string(t_cycles) +
                            " below the single-core bound " +
                            std::to_string(single));
  }
}

}  // namespace

void check_fixed_bus(const std::string& where, const soctest::Soc& soc,
                     const soctest::TestTimeTable& table,
                     const DesignLimits& limits, const std::vector<int>& widths,
                     const std::vector<int>& core_to_bus, long long t_cycles,
                     const soctest::BusPlan* plan, long long stub_wirelength,
                     Errors& errors) {
  const std::size_t n = soc.num_cores();
  const int buses = static_cast<int>(widths.size());
  if (buses != limits.num_buses) {
    fail(errors, where, "bus count " + std::to_string(buses));
    return;
  }
  if (!limits.widths.empty() && widths != limits.widths) {
    fail(errors, where, "explicit widths not kept");
  }
  const int total = std::accumulate(widths.begin(), widths.end(), 0);
  if (total > limits.total_width ||
      *std::min_element(widths.begin(), widths.end()) < 1 ||
      *std::max_element(widths.begin(), widths.end()) > table.max_width()) {
    fail(errors, where, "widths exceed W or the table");
    return;
  }
  if (core_to_bus.size() != n) {
    fail(errors, where, "assignment does not cover every core");
    return;
  }
  std::vector<Cycles> load(static_cast<std::size_t>(buses), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int b = core_to_bus[i];
    if (b < 0 || b >= buses) {
      fail(errors, where, "core " + std::to_string(i) + " on no bus");
      return;
    }
    load[static_cast<std::size_t>(b)] +=
        table.time(i, widths[static_cast<std::size_t>(b)]);
  }
  const Cycles makespan = *std::max_element(load.begin(), load.end());
  if (makespan != t_cycles) {
    fail(errors, where, "T=" + std::to_string(t_cycles) +
                            " but the bus loads give " +
                            std::to_string(makespan));
  }
  check_lower_bounds(where, table, limits.total_width, t_cycles, errors);
  if (limits.p_max_mw >= 0.0) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (power_conflict(soc, a, b, limits.p_max_mw) &&
            core_to_bus[a] != core_to_bus[b]) {
          fail(errors, where, "power pair " + std::to_string(a) + "," +
                                  std::to_string(b) + " not serialized");
          return;
        }
      }
    }
  }
  if (limits.ate_depth >= 0) {
    for (Cycles l : load) {
      if (l > limits.ate_depth) fail(errors, where, "bus load above ATE depth");
    }
  }
  if (limits.d_max >= 0 || limits.wire_budget >= 0) {
    if (plan == nullptr || plan->num_buses() != static_cast<std::size_t>(buses)) {
      fail(errors, where, "layout result without a bus plan");
      return;
    }
    long long wire = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int d = plan->distance(i, static_cast<std::size_t>(core_to_bus[i]));
      if (d < 0 || (limits.d_max >= 0 && d > limits.d_max)) {
        fail(errors, where, "core " + std::to_string(i) + " beyond d_max");
        return;
      }
      wire += d;
    }
    if (limits.wire_budget >= 0 && wire > limits.wire_budget) {
      fail(errors, where, "stub wire " + std::to_string(wire) +
                              " above the budget");
    }
    if (wire != stub_wirelength) {
      fail(errors, where, "reported stub wirelength " +
                              std::to_string(stub_wirelength) + " != " +
                              std::to_string(wire));
    }
  }
}

void check_packing(const std::string& where, const soctest::Soc& soc,
                   const soctest::TestTimeTable& table, int strip_width,
                   double p_max_mw,
                   const std::vector<soctest::PackPlacement>& placements,
                   long long t_cycles, Errors& errors) {
  const std::size_t n = soc.num_cores();
  if (placements.size() != n) {
    fail(errors, where, "packing places " + std::to_string(placements.size()) +
                            " of " + std::to_string(n) + " cores");
    return;
  }
  std::vector<char> seen(n, 0);
  std::vector<Cycles> starts, ends;
  std::vector<double> power;
  Cycles last_end = 0;
  for (const auto& p : placements) {
    if (p.core >= n || seen[p.core]) {
      fail(errors, where, "core placed twice or unknown");
      return;
    }
    seen[p.core] = 1;
    if (p.width < 1 || p.x < 0 || p.x + p.width > strip_width ||
        p.start < 0 || p.end - p.start != table.time(p.core, p.width)) {
      fail(errors, where, "core " + std::to_string(p.core) +
                              " outside the strip or with a wrong time");
      return;
    }
    starts.push_back(p.start);
    ends.push_back(p.end);
    power.push_back(soc.core(p.core).test_power_mw);
    last_end = std::max(last_end, p.end);
  }
  for (std::size_t a = 0; a < placements.size(); ++a) {
    for (std::size_t b = a + 1; b < placements.size(); ++b) {
      const auto& p = placements[a];
      const auto& q = placements[b];
      const bool wires = p.x < q.x + q.width && q.x < p.x + p.width;
      const bool time = p.start < q.end && q.start < p.end;
      if (wires && time) {
        fail(errors, where, "rectangles of cores " + std::to_string(p.core) +
                                " and " + std::to_string(q.core) + " overlap");
        return;
      }
    }
  }
  if (p_max_mw >= 0.0 && peak_power(starts, ends, power) > p_max_mw + 1e-6) {
    fail(errors, where, "time-resolved power above p_max");
  }
  if (last_end != t_cycles) {
    fail(errors, where, "T=" + std::to_string(t_cycles) + " but the last end is " +
                            std::to_string(last_end));
  }
  check_lower_bounds(where, table, strip_width, t_cycles, errors);
}

long long brute_force_makespan(const soctest::Soc& soc,
                               const soctest::TestTimeTable& table,
                               const DesignLimits& limits,
                               const soctest::BusPlan* plan) {
  const std::size_t n = soc.num_cores();
  const auto buses = limits.widths.size();
  std::vector<int> x(n, 0);
  long long best = -1;
  while (true) {
    bool ok = true;
    std::vector<Cycles> load(buses, 0);
    long long wire = 0;
    for (std::size_t i = 0; i < n && ok; ++i) {
      const auto b = static_cast<std::size_t>(x[i]);
      load[b] += table.time(i, limits.widths[b]);
      if (plan != nullptr && (limits.d_max >= 0 || limits.wire_budget >= 0)) {
        const int d = plan->distance(i, b);
        if (d < 0 || (limits.d_max >= 0 && d > limits.d_max)) ok = false;
        wire += d;
      }
      for (std::size_t k = 0; k < i && ok; ++k) {
        if (x[k] != x[i] && power_conflict(soc, i, k, limits.p_max_mw)) ok = false;
      }
    }
    if (ok && limits.wire_budget >= 0 && wire > limits.wire_budget) ok = false;
    const Cycles makespan = *std::max_element(load.begin(), load.end());
    if (ok && limits.ate_depth >= 0 && makespan > limits.ate_depth) ok = false;
    if (ok && (best < 0 || makespan < best)) best = makespan;
    std::size_t i = 0;
    while (i < n && ++x[i] == static_cast<int>(buses)) x[i++] = 0;
    if (i == n) break;
  }
  return best;
}

void check_schedule(const std::string& where,
                    const soctest::TestTimeTable& table,
                    const std::vector<int>& widths,
                    const std::vector<int>& core_to_bus,
                    const soctest::TestSchedule& schedule, long long t_cycles,
                    Errors& errors) {
  const std::size_t n = core_to_bus.size();
  if (schedule.tests.size() != n) {
    fail(errors, where, "schedule has " + std::to_string(schedule.tests.size()) +
                            " tests for " + std::to_string(n) + " cores");
    return;
  }
  std::vector<char> seen(n, 0);
  std::vector<Cycles> bus_end(widths.size(), 0);
  for (const auto& t : schedule.tests) {
    if (t.core >= n || seen[t.core] || t.bus != core_to_bus[t.core]) {
      fail(errors, where, "schedule test on the wrong bus or repeated");
      return;
    }
    seen[t.core] = 1;
    const auto b = static_cast<std::size_t>(t.bus);
    if (t.start != bus_end[b] ||
        t.end - t.start != table.time(t.core, widths[b])) {
      fail(errors, where, "schedule of core " + std::to_string(t.core) +
                              " not back to back with its table time");
      return;
    }
    bus_end[b] = t.end;
  }
  const Cycles last = *std::max_element(bus_end.begin(), bus_end.end());
  if (last != t_cycles || schedule.makespan != t_cycles) {
    fail(errors, where, "schedule makespan " + std::to_string(last) +
                            " != T=" + std::to_string(t_cycles));
  }
}

void check_power_profile(const std::string& where, const soctest::Soc& soc,
                         const soctest::TestSchedule& schedule,
                         const soctest::PowerProfile& profile, Errors& errors) {
  std::vector<Cycles> starts, ends;
  std::vector<double> power;
  for (const auto& t : schedule.tests) {
    starts.push_back(t.start);
    ends.push_back(t.end);
    power.push_back(soc.core(t.core).test_power_mw);
  }
  const double expected = peak_power(starts, ends, power);
  if (std::fabs(profile.peak() - expected) > 1e-6 * std::max(1.0, expected)) {
    fail(errors, where, "power profile peak " + std::to_string(profile.peak()) +
                            " != " + std::to_string(expected));
  }
}

}  // namespace perfbench
