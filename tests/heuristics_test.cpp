#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <tuple>

#include "soc/builtin.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "test_util.hpp"

namespace soctest {
namespace {

TEST(GreedyLpt, PerfectSplitOnEasyInstance) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time = {{40, 40}, {40, 40}, {30, 30}, {30, 30}};
  p.allowed.assign(4, {1, 1});
  const auto r = solve_greedy_lpt(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.assignment.makespan, 70);
}

TEST(GreedyLpt, NeverClaimsOptimality) {
  TamProblem p;
  p.bus_widths = {8};
  p.time = {{10}};
  p.allowed = {{1}};
  EXPECT_FALSE(solve_greedy_lpt(p).proved_optimal);
}

TEST(GreedyLpt, RespectsForbiddenPairs) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time = {{10, 90}, {10, 90}, {10, 90}};
  p.allowed = {{0, 1}, {0, 1}, {1, 1}};
  const auto r = solve_greedy_lpt(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.assignment.core_to_bus[0], 1);
  EXPECT_EQ(r.assignment.core_to_bus[1], 1);
  EXPECT_EQ(p.check_assignment(r.assignment.core_to_bus), "");
}

TEST(GreedyLpt, RespectsCoGroups) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time.assign(4, std::vector<Cycles>(2, 25));
  p.allowed.assign(4, std::vector<char>(2, 1));
  p.co_groups = {{0, 1}, {2, 3}};
  const auto r = solve_greedy_lpt(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.assignment.core_to_bus[0], r.assignment.core_to_bus[1]);
  EXPECT_EQ(r.assignment.core_to_bus[2], r.assignment.core_to_bus[3]);
  EXPECT_EQ(r.assignment.makespan, 50);
}

TEST(GreedyLpt, ReportsInfeasibleWhenBudgetBlown) {
  TamProblem p;
  p.bus_widths = {8};
  p.time = {{10}, {10}};
  p.allowed = {{1}, {1}};
  p.wire_cost = {{5}, {5}};
  p.wire_budget = 7;  // both cores must take the only bus: 10 > 7
  const auto r = solve_greedy_lpt(p);
  EXPECT_FALSE(r.feasible);
}

TEST(GreedyLpt, UnassignableCoreReportedInfeasible) {
  TamProblem p;
  p.bus_widths = {8, 8};
  p.time = {{10, 10}};
  p.allowed = {{0, 0}};
  EXPECT_FALSE(solve_greedy_lpt(p).feasible);
}

/// Greedy-LPT written directly from the rule in tam/heuristics.hpp, one
/// vector per item: the reference the flat implementation must match.
/// Returns nullopt when two items share a sort key, since the rule leaves
/// their order unspecified.
std::optional<TamSolveResult> naive_lpt(const TamProblem& p) {
  constexpr Cycles kInf = std::numeric_limits<Cycles>::max();
  const std::size_t n = p.num_cores();
  const std::size_t b = p.num_buses();
  struct NaiveItem {
    std::vector<std::size_t> cores;
    std::vector<Cycles> time;
    std::vector<long long> wire;
    Cycles min_time = kInf;
    double power = 0.0;
  };
  std::vector<NaiveItem> items;
  std::vector<char> grouped(n, 0);
  for (const auto& group : p.co_groups) {
    items.push_back({group, {}, {}, kInf, 0.0});
    for (std::size_t core : group) grouped[core] = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!grouped[i]) items.push_back({{i}, {}, {}, kInf, 0.0});
  }
  std::set<Cycles> keys;
  for (NaiveItem& item : items) {
    item.time.assign(b, 0);
    item.wire.assign(b, 0);
    for (std::size_t j = 0; j < b; ++j) {
      bool allowed = true;
      for (std::size_t core : item.cores) {
        allowed = allowed && p.allowed[core][j];
        item.time[j] += p.time[core][j];
        if (!p.wire_cost.empty()) item.wire[j] += p.wire_cost[core][j];
      }
      if (!allowed) {
        item.time[j] = kInf;
      } else {
        item.min_time = std::min(item.min_time, item.time[j]);
      }
    }
    for (std::size_t core : item.cores) {
      if (!p.core_power_mw.empty()) item.power = std::max(item.power, p.core_power_mw[core]);
    }
    if (!keys.insert(item.min_time).second) return std::nullopt;
  }
  std::sort(items.begin(), items.end(), [](const NaiveItem& a, const NaiveItem& c) {
    return a.min_time > c.min_time;
  });

  TamSolveResult result;
  result.assignment.core_to_bus.assign(n, -1);
  std::vector<Cycles> load(b, 0);
  std::vector<double> bus_max(b, 0.0);
  double power_sum = 0.0;
  long long wire_used = 0;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const NaiveItem& item = items[k];
    const auto added_power = [&](std::size_t j) {
      return std::max(bus_max[j], item.power) - bus_max[j];
    };
    const auto keeps_budgets = [&](std::size_t j) {
      return (p.wire_budget < 0 || wire_used + item.wire[j] <= p.wire_budget) &&
             (p.bus_power_budget < 0 ||
              power_sum + added_power(j) <= p.bus_power_budget + 1e-9) &&
             (p.bus_depth_limit < 0 || load[j] + item.time[j] <= p.bus_depth_limit);
    };
    // Rank: keeps every budget, then smaller load, then less wire; the
    // strict comparison leaves ties on the lower index.
    const auto rank = [&](std::size_t j) {
      return std::make_tuple(!keeps_budgets(j), load[j] + item.time[j], item.wire[j]);
    };
    int best = -1;
    for (std::size_t j = 0; j < b; ++j) {
      if (item.time[j] == kInf) continue;
      if (best < 0 || rank(j) < rank(static_cast<std::size_t>(best))) {
        best = static_cast<int>(j);
      }
    }
    if (best < 0) {
      result.nodes = static_cast<long long>(k);
      return result;
    }
    const auto j = static_cast<std::size_t>(best);
    for (std::size_t core : item.cores) result.assignment.core_to_bus[core] = best;
    power_sum += added_power(j);
    bus_max[j] = std::max(bus_max[j], item.power);
    load[j] += item.time[j];
    wire_used += item.wire[j];
  }
  result.nodes = static_cast<long long>(items.size());
  result.assignment.makespan = p.makespan(result.assignment.core_to_bus);
  result.feasible = p.check_assignment(result.assignment.core_to_bus).empty();
  return result;
}

TEST(GreedyLpt, MatchesNaiveReferenceOnFuzzedProblems) {
  Rng rng(2024);
  int compared = 0;
  int infeasible = 0;
  for (int trial = 0; compared < 250; ++trial) {
    ASSERT_LT(trial, 2000) << "too many fuzzed problems with tied sort keys";
    testutil::RandomProblemOptions options;
    options.num_cores = 3 + rng.index(40);
    options.num_buses = 1 + rng.index(4);
    options.min_time = 10;
    options.max_time = 1000000;
    options.forbid_probability = rng.uniform(0.0, 0.35);
    options.num_co_pairs = static_cast<int>(rng.index(5));
    options.with_wire_budget = rng.bernoulli(0.5);
    options.with_bus_power = rng.bernoulli(0.5);
    // Identical bus columns make loads tie, so the wire and index
    // tie-breaks decide; the wire costs are then redrawn per bus.
    options.identical_buses = rng.bernoulli(0.3);
    TamProblem p = testutil::random_problem(rng, options);
    if (options.identical_buses && options.with_wire_budget) {
      for (auto& row : p.wire_cost) {
        for (long long& cost : row) cost = rng.uniform_int(0, 4);
      }
    }
    if (rng.bernoulli(0.4)) {
      Cycles total = 0;
      for (const auto& row : p.time) total += *std::min_element(row.begin(), row.end());
      const auto buses = static_cast<double>(p.num_buses());
      p.bus_depth_limit =
          static_cast<Cycles>(static_cast<double>(total) / buses * rng.uniform(0.9, 1.6));
    }
    const auto expected = naive_lpt(p);
    if (!expected) continue;
    ++compared;
    const TamSolveResult got = solve_greedy_lpt(p);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(got.assignment.core_to_bus, expected->assignment.core_to_bus);
    EXPECT_EQ(got.assignment.makespan, expected->assignment.makespan);
    EXPECT_EQ(got.feasible, expected->feasible);
    EXPECT_EQ(got.nodes, expected->nodes);
    EXPECT_FALSE(got.proved_optimal);
    if (!got.feasible) ++infeasible;
  }
  // The budgets must bite on some problems for the comparison to cover
  // the infeasible branch.
  EXPECT_GT(infeasible, 10);
  EXPECT_LT(infeasible, compared - 10);
}

class HeuristicQuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeuristicQuality, GreedyNeverBeatsExact) {
  Rng rng(GetParam());
  testutil::RandomProblemOptions options;
  options.num_cores = 8;
  options.num_buses = 3;
  options.forbid_probability = 0.15;
  const TamProblem p = testutil::random_problem(rng, options);
  const auto exact = solve_exact(p);
  const auto greedy = solve_greedy_lpt(p);
  if (greedy.feasible) {
    ASSERT_TRUE(exact.feasible);
    EXPECT_GE(greedy.assignment.makespan, exact.assignment.makespan);
  }
}

TEST_P(HeuristicQuality, SaNeverWorseThanGreedySeed) {
  Rng rng(GetParam() + 50);
  testutil::RandomProblemOptions options;
  options.num_cores = 9;
  options.num_buses = 3;
  const TamProblem p = testutil::random_problem(rng, options);
  const auto greedy = solve_greedy_lpt(p);
  SaSolverOptions sa_options;
  sa_options.iterations = 20000;
  sa_options.seed = GetParam();
  const auto sa = solve_sa(p, sa_options);
  ASSERT_TRUE(greedy.feasible);
  ASSERT_TRUE(sa.feasible);
  EXPECT_LE(sa.assignment.makespan, greedy.assignment.makespan);
}

TEST_P(HeuristicQuality, SaNeverBeatsExact) {
  Rng rng(GetParam() + 150);
  testutil::RandomProblemOptions options;
  options.num_cores = 7;
  options.num_buses = 3;
  options.num_co_pairs = 1;
  const TamProblem p = testutil::random_problem(rng, options);
  const auto exact = solve_exact(p);
  SaSolverOptions sa_options;
  sa_options.seed = GetParam();
  const auto sa = solve_sa(p, sa_options);
  if (sa.feasible) {
    ASSERT_TRUE(exact.feasible);
    EXPECT_GE(sa.assignment.makespan, exact.assignment.makespan);
    EXPECT_EQ(p.check_assignment(sa.assignment.core_to_bus), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicQuality,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(SaSolver, DeterministicForSeed) {
  Rng rng(42);
  testutil::RandomProblemOptions options;
  options.num_cores = 8;
  options.num_buses = 3;
  const TamProblem p = testutil::random_problem(rng, options);
  SaSolverOptions sa_options;
  sa_options.seed = 7;
  const auto a = solve_sa(p, sa_options);
  const auto b = solve_sa(p, sa_options);
  EXPECT_EQ(a.assignment.core_to_bus, b.assignment.core_to_bus);
}

TEST(SaSolver, FindsOptimumOnSmallInstances) {
  Rng rng(11);
  testutil::RandomProblemOptions options;
  options.num_cores = 5;
  options.num_buses = 2;
  int optimal_hits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const TamProblem p = testutil::random_problem(rng, options);
    const Cycles brute = testutil::brute_force_makespan(p);
    SaSolverOptions sa_options;
    sa_options.seed = static_cast<std::uint64_t>(trial);
    const auto sa = solve_sa(p, sa_options);
    ASSERT_TRUE(sa.feasible);
    if (sa.assignment.makespan == brute) ++optimal_hits;
  }
  EXPECT_GE(optimal_hits, 8);  // SA should nearly always nail 5-core instances
}

}  // namespace
}  // namespace soctest
