#include "tam/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"
#include "runtime/failpoint.hpp"

namespace soctest {

namespace {

constexpr Cycles kInfCycles = std::numeric_limits<Cycles>::max();

/// The contracted problem: one item per power co-group plus one per
/// ungrouped core, in flat arrays sorted by decreasing minimum time over
/// the allowed buses (LPT order).
struct Items {
  std::size_t count = 0;
  std::size_t buses = 0;
  /// Members in CSR form: item k owns members[first[k] .. first[k + 1]).
  std::vector<std::size_t> first;
  std::vector<std::size_t> members;
  std::vector<Cycles> time;      ///< [k * buses + j]; kInfCycles when not allowed
  std::vector<long long> wire;   ///< [k * buses + j]; 0 when not allowed
  std::vector<double> max_power; ///< max member power (bus-max-sum constraint)

  Cycles t(std::size_t k, std::size_t j) const { return time[k * buses + j]; }
  long long w(std::size_t k, std::size_t j) const { return wire[k * buses + j]; }
};

/// Σ_j max power over an item-space assignment (0 when unconstrained).
double bus_max_power_sum(const TamProblem& problem, const Items& items,
                         const std::vector<int>& item_bus) {
  if (problem.bus_power_budget < 0) return 0.0;
  std::vector<double> bus_max(problem.num_buses(), 0.0);
  for (std::size_t k = 0; k < items.count; ++k) {
    auto& m = bus_max[static_cast<std::size_t>(item_bus[k])];
    m = std::max(m, items.max_power[k]);
  }
  double sum = 0.0;
  for (double m : bus_max) sum += m;
  return sum;
}

/// Sums one item's members per bus into `time`/`wire` (b entries each) and
/// returns its minimum time over allowed buses (kInfCycles when none).
Cycles item_row(const TamProblem& problem, const std::size_t* cores,
                std::size_t count, Cycles* time, long long* wire) {
  const std::size_t b = problem.num_buses();
  Cycles min_time = kInfCycles;
  for (std::size_t j = 0; j < b; ++j) {
    Cycles t = 0;
    long long w = 0;
    for (std::size_t m = 0; m < count; ++m) {
      const std::size_t core = cores[m];
      if (!problem.allowed[core][j]) {
        t = kInfCycles;
        w = 0;
        break;
      }
      t += problem.time[core][j];
      if (!problem.wire_cost.empty()) w += problem.wire_cost[core][j];
    }
    time[j] = t;
    wire[j] = w;
    if (t != kInfCycles) min_time = std::min(min_time, t);
  }
  return min_time;
}

/// Contracts co-groups into items: groups first, in co_groups order, then
/// ungrouped cores ascending; then sorts (min_time, index) pairs by
/// decreasing min_time alone. std::sort sees the same key sequence it would
/// on whole items, so the order and every tie-break match a sort of the
/// items themselves.
Items contract(const TamProblem& problem) {
  const std::size_t n = problem.num_cores();
  const std::size_t b = problem.num_buses();
  const std::size_t groups = problem.co_groups.size();
  std::vector<std::size_t> singles;
  {
    std::vector<char> grouped(n, 0);
    for (const auto& group : problem.co_groups) {
      for (std::size_t core : group) grouped[core] = 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!grouped[i]) singles.push_back(i);
    }
  }
  const std::size_t m = groups + singles.size();
  const auto members_of = [&](std::size_t c) -> std::pair<const std::size_t*, std::size_t> {
    if (c < groups) return {problem.co_groups[c].data(), problem.co_groups[c].size()};
    return {&singles[c - groups], 1};
  };

  Items items;
  items.count = m;
  items.buses = b;
  items.time.resize(m * b);
  items.wire.resize(m * b);
  // (key, contraction index) pairs, keys computed with row 0 as scratch:
  // every row is written in sorted order below.
  std::vector<std::pair<Cycles, std::size_t>> order(m);
  for (std::size_t c = 0; c < m; ++c) {
    const auto [cores, count] = members_of(c);
    order[c] = {item_row(problem, cores, count, items.time.data(), items.wire.data()), c};
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& c) { return a.first > c.first; });

  items.first.resize(m + 1);
  items.members.reserve(n);
  items.max_power.assign(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const auto [cores, count] = members_of(order[k].second);
    items.first[k] = items.members.size();
    items.members.insert(items.members.end(), cores, cores + count);
    item_row(problem, cores, count, &items.time[k * b], &items.wire[k * b]);
    if (!problem.core_power_mw.empty()) {
      for (std::size_t x = 0; x < count; ++x) {
        items.max_power[k] = std::max(items.max_power[k], problem.core_power_mw[cores[x]]);
      }
    }
  }
  items.first[m] = items.members.size();
  return items;
}

TamSolveResult assemble(const TamProblem& problem, const Items& items,
                        const std::vector<int>& item_bus, long long nodes) {
  TamSolveResult result;
  result.nodes = nodes;
  result.assignment.core_to_bus.assign(problem.num_cores(), -1);
  for (std::size_t k = 0; k < items.count; ++k) {
    if (item_bus[k] < 0) return result;  // unplaceable item: infeasible
    for (std::size_t x = items.first[k]; x < items.first[k + 1]; ++x) {
      result.assignment.core_to_bus[items.members[x]] = item_bus[k];
    }
  }
  result.assignment.makespan = problem.makespan(result.assignment.core_to_bus);
  result.feasible = problem.check_assignment(result.assignment.core_to_bus).empty();
  return result;
}

}  // namespace

TamSolveResult solve_greedy_lpt(const TamProblem& problem) {
  if (obs::enabled()) obs::counter("tam.greedy.solves").add(1);
  const Items items = contract(problem);
  const std::size_t b = problem.num_buses();
  std::vector<Cycles> load(b, 0);
  std::vector<double> bus_max(b, 0.0);
  double power_sum = 0.0;
  long long wire_used = 0;
  std::vector<int> item_bus(items.count, -1);
  for (std::size_t k = 0; k < items.count; ++k) {
    const Cycles* time = &items.time[k * b];
    const long long* wire = &items.wire[k * b];
    const double power = items.max_power[k];
    int best_j = -1;
    bool best_feasible = false;
    for (std::size_t j = 0; j < b; ++j) {
      if (time[j] == kInfCycles) continue;
      const bool in_budget = problem.wire_budget < 0 ||
                             wire_used + wire[j] <= problem.wire_budget;
      const bool power_fits =
          problem.bus_power_budget < 0 ||
          power_sum + std::max(bus_max[j], power) - bus_max[j] <=
              problem.bus_power_budget + 1e-9;
      const bool depth_fits = problem.bus_depth_limit < 0 ||
                              load[j] + time[j] <= problem.bus_depth_limit;
      const bool feasible = in_budget && power_fits && depth_fits;
      auto better = [&] {
        if (best_j < 0) return true;
        if (feasible != best_feasible) return feasible;  // prefer feasible
        const auto jb = static_cast<std::size_t>(best_j);
        const Cycles lj = load[j] + time[j];
        const Cycles lb = load[jb] + time[jb];
        if (lj != lb) return lj < lb;
        return wire[j] < wire[jb];
      };
      if (better()) {
        best_j = static_cast<int>(j);
        best_feasible = feasible;
      }
    }
    if (best_j < 0) {
      // Item has no allowed bus at all; leave unassigned -> infeasible.
      return assemble(problem, items, item_bus, static_cast<long long>(k));
    }
    const auto jb = static_cast<std::size_t>(best_j);
    item_bus[k] = best_j;
    load[jb] += time[jb];
    wire_used += wire[jb];
    power_sum += std::max(bus_max[jb], power) - bus_max[jb];
    bus_max[jb] = std::max(bus_max[jb], power);
  }
  return assemble(problem, items, item_bus, static_cast<long long>(items.count));
}

TamSolveResult solve_sa(const TamProblem& problem, const SaSolverOptions& options) {
  obs::Span span("tam.sa.solve", {{"iterations", options.iterations}});
  const Items items = contract(problem);
  const std::size_t b = problem.num_buses();

  // Seed from the greedy solution expressed in item space.
  std::vector<int> item_bus(items.count, -1);
  {
    std::vector<Cycles> load(b, 0);
    for (std::size_t k = 0; k < items.count; ++k) {
      int best_j = -1;
      for (std::size_t j = 0; j < b; ++j) {
        if (items.t(k, j) == kInfCycles) continue;
        if (best_j < 0 || load[j] + items.t(k, j) <
                              load[static_cast<std::size_t>(best_j)] +
                                  items.t(k, static_cast<std::size_t>(best_j))) {
          best_j = static_cast<int>(j);
        }
      }
      if (best_j < 0) return assemble(problem, items, item_bus, 0);
      item_bus[k] = best_j;
      load[static_cast<std::size_t>(best_j)] += items.t(k, static_cast<std::size_t>(best_j));
    }
  }

  auto evaluate = [&](const std::vector<int>& assignment) -> double {
    std::vector<Cycles> load(b, 0);
    long long wire = 0;
    for (std::size_t k = 0; k < items.count; ++k) {
      const auto j = static_cast<std::size_t>(assignment[k]);
      load[j] += items.t(k, j);
      wire += items.w(k, j);
    }
    const Cycles makespan = *std::max_element(load.begin(), load.end());
    double cost = static_cast<double>(makespan);
    if (problem.wire_budget >= 0 && wire > problem.wire_budget) {
      cost += options.wire_penalty *
              static_cast<double>(wire - problem.wire_budget);
    }
    if (problem.bus_power_budget >= 0) {
      const double power = bus_max_power_sum(problem, items, assignment);
      if (power > problem.bus_power_budget) {
        cost += options.wire_penalty * (power - problem.bus_power_budget);
      }
    }
    if (problem.bus_depth_limit >= 0) {
      for (Cycles l : load) {
        if (l > problem.bus_depth_limit) {
          cost += options.wire_penalty *
                  static_cast<double>(l - problem.bus_depth_limit);
        }
      }
    }
    return cost;
  };
  auto in_budget = [&](const std::vector<int>& assignment) {
    if (problem.wire_budget >= 0) {
      long long wire = 0;
      for (std::size_t k = 0; k < items.count; ++k) {
        wire += items.w(k, static_cast<std::size_t>(assignment[k]));
      }
      if (wire > problem.wire_budget) return false;
    }
    if (problem.bus_power_budget >= 0 &&
        bus_max_power_sum(problem, items, assignment) >
            problem.bus_power_budget + 1e-9) {
      return false;
    }
    if (problem.bus_depth_limit >= 0) {
      std::vector<Cycles> load(problem.num_buses(), 0);
      for (std::size_t k = 0; k < items.count; ++k) {
        const auto j = static_cast<std::size_t>(assignment[k]);
        load[j] += items.t(k, j);
      }
      for (Cycles l : load) {
        if (l > problem.bus_depth_limit) return false;
      }
    }
    return true;
  };

  Rng rng(options.seed);
  double cost = evaluate(item_bus);
  std::vector<int> best_feasible;
  double best_feasible_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_any = item_bus;
  double best_any_cost = cost;
  if (in_budget(item_bus)) {
    best_feasible = item_bus;
    best_feasible_cost = cost;
  }
  double temperature = options.initial_temperature > 0
                           ? options.initial_temperature
                           : std::max(1.0, cost * 0.05);
  long long moves = 0;
  long long accepted = 0;
  StopCheck stop_check(options.deadline, options.cancel,
                       failpoint::sites::kSaIter);
  for (int it = 0; it < options.iterations; ++it) {
    if (stop_check.should_stop()) break;
    std::vector<int> candidate = item_bus;
    if (items.count >= 2 && rng.bernoulli(0.3)) {
      // Swap the buses of two items (when mutually allowed).
      const std::size_t a = rng.index(items.count);
      std::size_t c = rng.index(items.count);
      if (a == c) c = (c + 1) % items.count;
      const auto ja = static_cast<std::size_t>(candidate[a]);
      const auto jc = static_cast<std::size_t>(candidate[c]);
      if (ja == jc || items.t(a, jc) == kInfCycles ||
          items.t(c, ja) == kInfCycles) {
        continue;
      }
      std::swap(candidate[a], candidate[c]);
    } else {
      // Move one item to a different allowed bus.
      const std::size_t a = rng.index(items.count);
      const std::size_t j = rng.index(b);
      if (static_cast<int>(j) == candidate[a] || items.t(a, j) == kInfCycles) {
        continue;
      }
      candidate[a] = static_cast<int>(j);
    }
    ++moves;
    const double cand_cost = evaluate(candidate);
    const double delta = cand_cost - cost;
    if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
      ++accepted;
      item_bus = std::move(candidate);
      cost = cand_cost;
      if (cost < best_any_cost) {
        best_any_cost = cost;
        best_any = item_bus;
      }
      if (cost < best_feasible_cost && in_budget(item_bus)) {
        best_feasible_cost = cost;
        best_feasible = item_bus;
      }
    }
    temperature *= options.cooling;
  }
  if (obs::enabled()) {
    obs::counter("tam.sa.solves").add(1);
    obs::counter("tam.sa.moves").add(moves);
    obs::counter("tam.sa.accepted").add(accepted);
  }
  if (span.active()) {
    span.arg({"moves", moves});
    span.arg({"accepted", accepted});
  }
  const auto& chosen = best_feasible.empty() ? best_any : best_feasible;
  TamSolveResult result = assemble(problem, items, chosen, moves);
  result.stop = stop_check.reason();
  return result;
}

}  // namespace soctest
