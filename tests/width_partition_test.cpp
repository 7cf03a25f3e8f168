#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "layout/bus_planner.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/heuristics.hpp"
#include "tam/width_partition.hpp"

namespace soctest {
namespace {

TEST(WidthPartitions, KnownCounts) {
  // Partitions of n into exactly k parts: p(6,3) = 3; p(8,4) = 5; p(10,2)=5.
  EXPECT_EQ(width_partitions(6, 3).size(), 3u);
  EXPECT_EQ(width_partitions(8, 4).size(), 5u);
  EXPECT_EQ(width_partitions(10, 2).size(), 5u);
  EXPECT_EQ(width_partitions(5, 5).size(), 1u);
  EXPECT_EQ(width_partitions(4, 5).size(), 0u);
  EXPECT_EQ(width_partitions(7, 1).size(), 1u);
}

TEST(WidthPartitions, PartsSumAndAreNonIncreasing) {
  for (const auto& partition : width_partitions(20, 4)) {
    EXPECT_EQ(std::accumulate(partition.begin(), partition.end(), 0), 20);
    ASSERT_EQ(partition.size(), 4u);
    for (std::size_t k = 1; k < partition.size(); ++k) {
      EXPECT_LE(partition[k], partition[k - 1]);
    }
    for (int w : partition) EXPECT_GE(w, 1);
  }
}

TEST(WidthPartitions, AllDistinct) {
  const auto partitions = width_partitions(24, 3);
  std::set<std::vector<int>> unique(partitions.begin(), partitions.end());
  EXPECT_EQ(unique.size(), partitions.size());
}

class WidthSearch : public ::testing::Test {
 protected:
  void SetUp() override {
    soc_ = builtin_soc2();
    table_.emplace(soc_, 24);
  }
  Soc soc_;
  std::optional<TestTimeTable> table_;
};

TEST_F(WidthSearch, BeatsOrMatchesEqualSplit) {
  const auto best = optimize_widths(soc_, *table_, 2, 24);
  ASSERT_TRUE(best.feasible);
  EXPECT_TRUE(best.proved_optimal);
  // Compare to the fixed equal split (12, 12).
  const TamProblem equal = make_tam_problem(soc_, *table_, {12, 12});
  const auto equal_result = solve_exact(equal);
  ASSERT_TRUE(equal_result.feasible);
  EXPECT_LE(best.assignment.makespan, equal_result.assignment.makespan);
}

TEST_F(WidthSearch, MoreTotalWidthNeverHurts) {
  Cycles prev = -1;
  for (int total : {8, 12, 16, 20, 24}) {
    const auto r = optimize_widths(soc_, *table_, 2, total);
    ASSERT_TRUE(r.feasible) << "W=" << total;
    if (prev >= 0) {
      EXPECT_LE(r.assignment.makespan, prev) << "W=" << total;
    }
    prev = r.assignment.makespan;
  }
}

TEST_F(WidthSearch, MoreBusesNeverHelpWithFixedTotal) {
  // With total width fixed, adding buses splits wires; 1 fat bus serializes
  // everything, many thin buses parallelize. Neither direction is monotone a
  // priori, but B buses can always emulate B-1 buses only if a zero-width
  // bus were allowed — it is not — so we just assert all are solved and the
  // best of the three is no worse than each individually.
  const auto b1 = optimize_widths(soc_, *table_, 1, 16);
  const auto b2 = optimize_widths(soc_, *table_, 2, 16);
  const auto b3 = optimize_widths(soc_, *table_, 3, 16);
  ASSERT_TRUE(b1.feasible && b2.feasible && b3.feasible);
  // Parallelism should pay off for this SOC: 2 buses beat 1.
  EXPECT_LE(b2.assignment.makespan, b1.assignment.makespan);
}

TEST_F(WidthSearch, WidthSumsRespected) {
  const auto r = optimize_widths(soc_, *table_, 3, 18);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(std::accumulate(r.bus_widths.begin(), r.bus_widths.end(), 0), 18);
  EXPECT_EQ(r.bus_widths.size(), 3u);
}

TEST_F(WidthSearch, GreedyInnerSolverRunsAndIsNoBetter) {
  WidthPartitionOptions greedy_options;
  greedy_options.solver = InnerSolver::kGreedy;
  const auto greedy = optimize_widths(soc_, *table_, 2, 16, nullptr, -1, -1.0,
                                      greedy_options);
  const auto exact = optimize_widths(soc_, *table_, 2, 16);
  ASSERT_TRUE(greedy.feasible && exact.feasible);
  EXPECT_GE(greedy.assignment.makespan, exact.assignment.makespan);
  EXPECT_FALSE(greedy.proved_optimal);
}

TEST_F(WidthSearch, RejectsBadArguments) {
  EXPECT_THROW(optimize_widths(soc_, *table_, 0, 8), std::invalid_argument);
  EXPECT_THROW(optimize_widths(soc_, *table_, 4, 3), std::invalid_argument);
}

TEST_F(WidthSearch, PowerConstraintsRaiseTestTime) {
  const auto unconstrained = optimize_widths(soc_, *table_, 2, 16);
  const auto constrained =
      optimize_widths(soc_, *table_, 2, 16, nullptr, -1, 1200.0);
  ASSERT_TRUE(unconstrained.feasible);
  ASSERT_TRUE(constrained.feasible);
  EXPECT_GE(constrained.assignment.makespan, unconstrained.assignment.makespan);
}

TEST_F(WidthSearch, LayoutPermutationExploresWidthsOntoRoutes) {
  const BusPlan plan = plan_buses(soc_, 2);
  const LayoutConstraints layout(plan, soc_.num_cores(), -1);
  const auto r = optimize_widths(soc_, *table_, 2, 12, &layout);
  ASSERT_TRUE(r.feasible);
  // Permutation mode: partitions_tried counts arrangements, which must be at
  // least the number of plain partitions of 12 into 2 parts (6).
  EXPECT_GE(r.partitions_tried, 6);
}

/// The constraints one optimize_widths call runs under.
struct SearchSetting {
  const char* name = "";
  const LayoutConstraints* layout = nullptr;
  long long wire_budget = -1;
  double p_max_mw = -1.0;
  PowerConstraintMode power_mode = PowerConstraintMode::kPairwiseSerialization;
  Cycles depth = -1;
};

/// What the width search did, written from the search's contract: one
/// make_tam_problem per partition, skipped under an ATE depth limit when it
/// throws std::runtime_error, pruned when its lower bound cannot beat the
/// incumbent, solved by the inner solver otherwise. Counts the partitions
/// the depth limit ruled out in `depth_skips`.
ArchitectureResult reference_search(const Soc& soc, const TestTimeTable& table,
                                    int buses, int total,
                                    const SearchSetting& setting,
                                    InnerSolver solver, long long node_budget,
                                    int& depth_skips) {
  ArchitectureResult best;
  best.proved_optimal = true;
  for (const auto& partition : width_partitions(total, buses)) {
    std::vector<int> widths = partition;
    std::sort(widths.begin(), widths.end());
    do {
      ++best.partitions_tried;
      TamProblem problem;
      try {
        problem = make_tam_problem(soc, table, widths, setting.layout,
                                   setting.wire_budget, setting.p_max_mw,
                                   setting.power_mode, setting.depth);
      } catch (const std::runtime_error&) {
        if (setting.depth < 0) throw;
        ++depth_skips;
        continue;
      }
      if (best.feasible && problem.lower_bound() >= best.assignment.makespan) {
        continue;
      }
      TamSolveResult result;
      if (solver == InnerSolver::kGreedy) {
        result = solve_greedy_lpt(problem);
      } else {
        ExactSolverOptions exact;
        exact.max_nodes = node_budget;
        exact.initial_upper_bound = best.feasible ? best.assignment.makespan : -1;
        result = solve_exact(problem, exact);
      }
      best.total_nodes += result.nodes;
      if (!result.proved_optimal) best.proved_optimal = false;
      if (best.stop == StopReason::kNone) best.stop = result.stop;
      if (result.feasible &&
          (!best.feasible || result.assignment.makespan < best.assignment.makespan)) {
        best.feasible = true;
        best.bus_widths = widths;
        best.assignment = result.assignment;
      }
    } while (setting.layout != nullptr &&
             std::next_permutation(widths.begin(), widths.end()));
  }
  if (!best.feasible) {
    best.proved_optimal = false;
    best.certificate = certify_infeasible(best.stop == StopReason::kNone, best.stop);
    return best;
  }
  // Width-relaxed bound: every core at the widest bus a partition can have.
  const int w_max = std::min(table.max_width(), total - (buses - 1));
  Cycles sum = 0;
  Cycles max_single = 0;
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    sum += table.time(i, w_max);
    max_single = std::max(max_single, table.time(i, w_max));
  }
  const Cycles lb = std::max(max_single, (sum + buses - 1) / buses);
  const auto t = static_cast<long long>(best.assignment.makespan);
  if (best.proved_optimal || t <= lb) {
    best.proved_optimal = true;
    best.certificate = certify_optimal(t);
  } else {
    best.certificate = certify_bounded(t, lb, best.stop);
  }
  return best;
}

TEST(WidthSearchDifferential, MatchesOneProblemPerPartition) {
  int searches = 0;
  int depth_skips = 0;
  for (int seed = 1; seed <= 110; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7127);
    SocGeneratorOptions gen;
    gen.num_cores = 4 + seed % 11;
    const Soc soc = generate_soc(gen, rng);
    const int buses = 2 + seed % 2;
    const int total = buses == 2 ? 12 + seed % 13 : 10 + seed % 9;
    const TestTimeTable table(soc, total);

    std::vector<double> powers;
    for (const auto& core : soc.cores()) powers.push_back(core.test_power_mw);
    std::sort(powers.rbegin(), powers.rend());
    double top = 0.0;  // the B largest powers
    for (std::size_t j = 0; j < static_cast<std::size_t>(buses) && j < powers.size(); ++j) {
      top += powers[j];
    }

    const BusPlan plan = plan_buses(soc, buses);
    const LayoutConstraints unlimited(plan, soc.num_cores(), -1);
    int d_need = 0;
    long long wire_floor = 0;
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      int nearest = -1;
      for (std::size_t j = 0; j < static_cast<std::size_t>(buses); ++j) {
        const int d = unlimited.distance(i, j);
        if (d >= 0 && (nearest < 0 || d < nearest)) nearest = d;
      }
      d_need = std::max(d_need, nearest);
      wire_floor += nearest;
    }
    const LayoutConstraints layout(plan, soc.num_cores(), d_need + seed % 4);

    WidthPartitionOptions greedy_only;
    greedy_only.solver = InnerSolver::kGreedy;
    const Cycles greedy_t =
        optimize_widths(soc, table, buses, total, nullptr, -1, -1.0, greedy_only)
            .assignment.makespan;

    std::vector<SearchSetting> settings(5);
    settings[0].name = "none";
    settings[1].name = "pairwise";
    settings[1].p_max_mw = powers.front() + powers.back() + 1.0;
    settings[2].name = "bus-max-sum";
    settings[2].p_max_mw = std::max(powers.front(), 0.8 * top);
    settings[2].power_mode = PowerConstraintMode::kBusMaxSum;
    settings[3].name = "layout";
    settings[3].layout = &layout;
    settings[3].wire_budget = wire_floor + wire_floor / 5;
    settings[4].name = "ate-depth";
    settings[4].depth = greedy_t;

    for (const SearchSetting& setting : settings) {
      for (InnerSolver solver : {InnerSolver::kGreedy, InnerSolver::kExact}) {
        SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " " +
                     setting.name + " " + inner_solver_name(solver));
        WidthPartitionOptions options;
        options.solver = solver;
        options.max_nodes_per_solve = 400;
        options.power_mode = setting.power_mode;
        options.bus_depth_limit = setting.depth;
        const ArchitectureResult got =
            optimize_widths(soc, table, buses, total, setting.layout,
                            setting.wire_budget, setting.p_max_mw, options);
        const ArchitectureResult want =
            reference_search(soc, table, buses, total, setting, solver,
                             options.max_nodes_per_solve, depth_skips);
        ++searches;
        EXPECT_EQ(got.feasible, want.feasible);
        EXPECT_EQ(got.bus_widths, want.bus_widths);
        EXPECT_EQ(got.assignment.core_to_bus, want.assignment.core_to_bus);
        EXPECT_EQ(got.assignment.makespan, want.assignment.makespan);
        EXPECT_EQ(got.partitions_tried, want.partitions_tried);
        EXPECT_EQ(got.total_nodes, want.total_nodes);
        EXPECT_EQ(got.proved_optimal, want.proved_optimal);
        EXPECT_EQ(got.stop, want.stop);
        EXPECT_EQ(got.certificate.to_string(), want.certificate.to_string());
      }
    }
  }
  EXPECT_EQ(searches, 110 * 5 * 2);
  // The depth setting must actually rule partitions out.
  EXPECT_GT(depth_skips, 100);
}

// Under an ATE depth limit a partition that cannot be built is skipped
// instead of failing the search (narrow buses may break the limit where
// wide ones do not). A layout or power infeasibility breaks every
// partition alike, so the search then returns "infeasible" after trying
// them all; without a depth limit the same input throws.
TEST_F(WidthSearch, DepthLimitTurnsAnUnbuildableProblemIntoSkippedPartitions) {
  double heaviest = 0.0;
  for (const auto& core : soc_.cores()) heaviest = std::max(heaviest, core.test_power_mw);
  const BusPlan plan = plan_buses(soc_, 2);
  const LayoutConstraints unreachable(plan, soc_.num_cores(), 0);
  ASSERT_FALSE(unreachable.all_cores_connectable());

  WidthPartitionOptions depth;
  depth.bus_depth_limit = std::numeric_limits<Cycles>::max() / 4;
  const auto over_power =
      optimize_widths(soc_, *table_, 2, 16, nullptr, -1, heaviest - 1.0, depth);
  EXPECT_FALSE(over_power.feasible);
  EXPECT_EQ(over_power.partitions_tried, 8);
  EXPECT_EQ(over_power.certificate.to_string(), "infeasible");
  const auto cut_off = optimize_widths(soc_, *table_, 2, 16, &unreachable, -1, -1.0, depth);
  EXPECT_FALSE(cut_off.feasible);
  EXPECT_EQ(cut_off.partitions_tried, 15);  // 8 partitions, 7 permuted twice

  EXPECT_THROW(optimize_widths(soc_, *table_, 2, 16, nullptr, -1, heaviest - 1.0),
               std::runtime_error);
  EXPECT_THROW(optimize_widths(soc_, *table_, 2, 16, &unreachable), std::runtime_error);
}

TEST_F(WidthSearch, TableNarrowerThanTheWidestBusIsRejected) {
  const TestTimeTable narrow(soc_, 10);
  EXPECT_THROW(optimize_widths(soc_, narrow, 2, 16), std::invalid_argument);
}

}  // namespace
}  // namespace soctest
