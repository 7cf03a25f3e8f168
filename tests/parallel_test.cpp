// Tests for the parallel solver engine: the thread pool, cancellation
// tokens, the root-splitting exact search's determinism guarantee (identical
// results at any thread count), portfolio racing, and the shared-incumbent
// plumbing of the LP branch & bound.

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "ilp/branch_and_bound.hpp"
#include "soc/builtin.hpp"
#include "tam/architect.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/portfolio.hpp"
#include "test_util.hpp"
#include "tam/timing.hpp"

namespace soctest {
namespace {

TEST(ThreadPoolTest, RunsAllPostedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.post([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_all();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expected = 0;
  for (int i = 0; i < 20; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.post([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitAllIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.post([&counter] { ++counter; });
  pool.wait_all();
  EXPECT_EQ(counter.load(), 1);
  pool.post([&counter] { ++counter; });
  pool.wait_all();
  EXPECT_EQ(counter.load(), 2);
}

TEST(CancellationTokenTest, CancelAndReset) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ParallelConfigTest, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_GE(default_thread_count(), 1);
}

// --- Determinism of the parallel exact solver ---------------------------

void expect_same_result(const TamSolveResult& a, const TamSolveResult& b,
                        const char* what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.proved_optimal, b.proved_optimal) << what;
  if (a.feasible && b.feasible) {
    EXPECT_EQ(a.assignment.makespan, b.assignment.makespan) << what;
    EXPECT_EQ(a.assignment.core_to_bus, b.assignment.core_to_bus) << what;
  }
}

TamSolveResult solve_with_threads(const TamProblem& problem, int threads) {
  ExactSolverOptions options;
  options.threads = threads;
  return solve_exact(problem, options);
}

TEST(ParallelExactTest, IdenticalResultAcrossThreadCountsOnSoc1) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 16);
  const TamProblem problem = make_tam_problem(soc, table, {16, 8, 8});
  const TamSolveResult serial = solve_with_threads(problem, 1);
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(serial.proved_optimal);
  for (int threads : {2, 8}) {
    expect_same_result(serial, solve_with_threads(problem, threads),
                       "soc1 16/8/8");
  }
}

TEST(ParallelExactTest, IdenticalResultOnRandomConstrainedInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 101);
    testutil::RandomProblemOptions gen;
    gen.num_cores = 12;
    gen.num_buses = 3;
    gen.forbid_probability = 0.15;
    gen.num_co_pairs = 2;
    gen.with_wire_budget = (seed % 2) == 0;
    gen.with_bus_power = (seed % 3) == 0;
    const TamProblem problem = testutil::random_problem(rng, gen);
    const TamSolveResult serial = solve_with_threads(problem, 1);
    for (int threads : {2, 8}) {
      expect_same_result(serial, solve_with_threads(problem, threads),
                         "random instance");
    }
  }
}

TEST(ParallelExactTest, ParallelMatchesBruteForceOptimum) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 977);
    testutil::RandomProblemOptions gen;
    gen.num_cores = 8;
    gen.num_buses = 3;
    gen.forbid_probability = 0.2;
    gen.num_co_pairs = 1;
    const TamProblem problem = testutil::random_problem(rng, gen);
    const Cycles reference = testutil::brute_force_makespan(problem);
    const TamSolveResult parallel = solve_with_threads(problem, 4);
    if (reference < 0) {
      EXPECT_FALSE(parallel.feasible);
    } else {
      ASSERT_TRUE(parallel.feasible);
      EXPECT_TRUE(parallel.proved_optimal);
      EXPECT_EQ(parallel.assignment.makespan, reference);
    }
  }
}

TEST(ParallelExactTest, LexSolveIsThreadCountInvariant) {
  Rng rng(4242);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 10;
  gen.num_buses = 3;
  gen.with_wire_budget = true;
  const TamProblem problem = testutil::random_problem(rng, gen);
  ExactSolverOptions serial_options;
  const TamSolveResult serial = solve_exact_lex(problem, serial_options);
  ExactSolverOptions parallel_options;
  parallel_options.threads = 4;
  const TamSolveResult parallel = solve_exact_lex(problem, parallel_options);
  expect_same_result(serial, parallel, "lex solve");
  if (serial.feasible) {
    long long serial_wire = 0, parallel_wire = 0;
    for (std::size_t i = 0; i < problem.num_cores(); ++i) {
      serial_wire += problem.wire_cost[i][static_cast<std::size_t>(
          serial.assignment.core_to_bus[i])];
      parallel_wire += problem.wire_cost[i][static_cast<std::size_t>(
          parallel.assignment.core_to_bus[i])];
    }
    EXPECT_EQ(serial_wire, parallel_wire);
  }
}

TEST(ParallelExactTest, WarmStartDoesNotChangeTheWitness) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 16);
  const TamProblem problem = make_tam_problem(soc, table, {16, 8, 8});
  const TamSolveResult cold = solve_exact(problem);
  ASSERT_TRUE(cold.proved_optimal);

  const TamSolveResult greedy = solve_greedy_lpt(problem);
  ASSERT_TRUE(greedy.feasible);
  ExactSolverOptions warm;
  warm.initial_upper_bound = greedy.assignment.makespan;
  const TamSolveResult warmed = solve_exact(problem, warm);
  expect_same_result(cold, warmed, "warm start");
  EXPECT_LE(warmed.nodes, cold.nodes);
}

TEST(ParallelExactTest, NodeLimitAbortReturnsUnproved) {
  Rng rng(31337);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 16;
  gen.num_buses = 4;
  const TamProblem problem = testutil::random_problem(rng, gen);
  ExactSolverOptions options;
  options.threads = 4;
  options.max_nodes = 64;
  const TamSolveResult result = solve_exact(problem, options);
  EXPECT_FALSE(result.proved_optimal);
}

TEST(ParallelExactTest, CancelledSolveUnwindsQuickly) {
  Rng rng(55);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 14;
  gen.num_buses = 4;
  const TamProblem problem = testutil::random_problem(rng, gen);
  CancellationToken cancel;
  cancel.cancel();  // pre-cancelled: the search must not run to completion
  ExactSolverOptions options;
  options.threads = 4;
  options.cancel = &cancel;
  const TamSolveResult result = solve_exact(problem, options);
  EXPECT_FALSE(result.proved_optimal);
}

TEST(ParallelExactTest, ProvenInfeasibleAtAnyThreadCount) {
  // A one-core problem whose only wire cost exceeds the budget.
  TamProblem problem;
  problem.bus_widths = {8, 8};
  problem.time = {{100, 100}};
  problem.allowed = {{1, 1}};
  problem.wire_cost = {{5, 5}};
  problem.wire_budget = 4;
  const TamSolveResult serial = solve_with_threads(problem, 1);
  EXPECT_FALSE(serial.feasible);
  EXPECT_TRUE(serial.proved_optimal);
  for (int threads : {2, 8}) {
    expect_same_result(serial, solve_with_threads(problem, threads),
                       "infeasible instance");
  }
}

// --- Portfolio racing ----------------------------------------------------

TEST(PortfolioTest, MatchesColdExactAssignmentWhenProved) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 16);
  const TamProblem problem = make_tam_problem(soc, table, {16, 8, 8});
  const TamSolveResult cold = solve_exact(problem);
  ASSERT_TRUE(cold.proved_optimal);

  const PortfolioResult portfolio = solve_portfolio(problem);
  EXPECT_EQ(portfolio.winner, "exact");
  ASSERT_TRUE(portfolio.best.feasible);
  EXPECT_TRUE(portfolio.best.proved_optimal);
  EXPECT_EQ(portfolio.best.assignment.makespan, cold.assignment.makespan);
  EXPECT_EQ(portfolio.best.assignment.core_to_bus,
            cold.assignment.core_to_bus);
  // The greedy incumbent must actually have been fed into the warm start.
  EXPECT_GE(portfolio.heuristic_bound, cold.assignment.makespan);
}

TEST(PortfolioTest, CancelsSaOnceOptimalityIsProved) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 16);
  const TamProblem problem = make_tam_problem(soc, table, {16, 8, 8});
  PortfolioOptions options;
  // Big enough that SA cannot finish before the (millisecond-scale) exact
  // proof unless cancellation is broken.
  options.sa.iterations = 20'000'000;
  const PortfolioResult portfolio = solve_portfolio(problem, options);
  EXPECT_TRUE(portfolio.best.proved_optimal);
  EXPECT_TRUE(portfolio.sa_cancelled);
  EXPECT_LT(portfolio.sa_moves, options.sa.iterations);
}

TEST(PortfolioTest, FallsBackToHeuristicIncumbentWhenExactAborts) {
  Rng rng(90210);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 14;
  gen.num_buses = 4;
  const TamProblem problem = testutil::random_problem(rng, gen);
  PortfolioOptions options;
  options.max_nodes = 16;  // force an exact abort
  options.sa.iterations = 2000;
  const PortfolioResult portfolio = solve_portfolio(problem, options);
  ASSERT_TRUE(portfolio.best.feasible);
  EXPECT_FALSE(portfolio.best.proved_optimal);
  // Whatever won, it can't be worse than plain greedy.
  const TamSolveResult greedy = solve_greedy_lpt(problem);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_LE(portfolio.best.assignment.makespan, greedy.assignment.makespan);
}

// Inside a width search the exact racer is warm-started from the
// cross-partition incumbent and often proves that a partition cannot reach
// it. That proof must survive the race: the portfolio's certificate on a
// whole width search is as strong as serial exact's. (soc1 B=2 W=32 runs
// without the formulation race: there the packing wins with a smaller T
// and its own, bounded certificate.)
TEST(PortfolioTest, WidthSearchKeepsTheExactProof) {
  struct Cell {
    Soc soc;
    int buses;
    int width;
    bool pack_race;
  };
  for (const Cell& cell :
       {Cell{builtin_soc3(), 3, 48, true}, Cell{builtin_soc1(), 2, 32, false}}) {
    DesignRequest request;
    request.num_buses = cell.buses;
    request.total_width = cell.width;
    request.threads = 2;
    request.pack_race = cell.pack_race;
    request.solver = InnerSolver::kExact;
    const DesignResult exact = design_architecture(cell.soc, request);
    request.solver = InnerSolver::kPortfolio;
    const DesignResult portfolio = design_architecture(cell.soc, request);
    ASSERT_EQ(exact.certificate.status, SolveStatus::kOptimal) << cell.soc.name();
    EXPECT_EQ(portfolio.certificate.status, SolveStatus::kOptimal)
        << cell.soc.name() << ": " << portfolio.certificate.to_string();
    EXPECT_EQ(portfolio.certificate.stop, StopReason::kNone) << cell.soc.name();
    EXPECT_TRUE(portfolio.proved_optimal) << cell.soc.name();
    EXPECT_EQ(portfolio.assignment.makespan, exact.assignment.makespan)
        << cell.soc.name();
  }
}

TEST(PortfolioTest, CarriesAnExactProofThatNothingBeatsTheBound) {
  const Soc soc = builtin_soc1();
  const TestTimeTable table(soc, 16);
  const TamProblem problem = make_tam_problem(soc, table, {16, 8, 8});
  const TamSolveResult cold = solve_exact(problem);
  ASSERT_TRUE(cold.proved_optimal);
  // A bound below the optimum: serial exact proves nothing reaches it.
  ExactSolverOptions bounded;
  bounded.initial_upper_bound = cold.assignment.makespan - 1;
  const TamSolveResult serial = solve_exact(problem, bounded);
  ASSERT_FALSE(serial.feasible);
  ASSERT_TRUE(serial.proved_optimal);

  PortfolioOptions options;
  options.initial_upper_bound = bounded.initial_upper_bound;
  options.sa.iterations = 20'000'000;  // still running when exact finishes
  const PortfolioResult portfolio = solve_portfolio(problem, options);
  EXPECT_EQ(portfolio.winner, "exact");
  EXPECT_FALSE(portfolio.best.feasible);
  EXPECT_TRUE(portfolio.best.proved_optimal);
  EXPECT_EQ(portfolio.best.stop, StopReason::kNone);
  EXPECT_EQ(portfolio.certificate.status, SolveStatus::kInfeasible);
  EXPECT_EQ(portfolio.certificate.stop, StopReason::kNone);
}

// --- Shared incumbent / cancellation in the LP branch & bound ------------

TEST(MipParallelTest, PublishesIncumbentToSharedAtomic) {
  Rng rng(7);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 6;
  gen.num_buses = 2;
  const TamProblem problem = testutil::random_problem(rng, gen);
  const LinearProgram lp = build_tam_ilp(problem);

  const MipResult cold = solve_mip(lp);
  ASSERT_EQ(cold.status, MipStatus::kOptimal);

  std::atomic<double> shared{std::numeric_limits<double>::infinity()};
  MipOptions options;
  options.shared_incumbent = &shared;
  const MipResult result = solve_mip(lp, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, cold.objective, 1e-6);
  EXPECT_NEAR(shared.load(), cold.objective, 1e-6);
}

TEST(MipParallelTest, SharedBoundPrunesWithoutClaimingInfeasible) {
  Rng rng(7);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 6;
  gen.num_buses = 2;
  const TamProblem problem = testutil::random_problem(rng, gen);
  const LinearProgram lp = build_tam_ilp(problem);
  const MipResult cold = solve_mip(lp);
  ASSERT_EQ(cold.status, MipStatus::kOptimal);

  // A racing solver already holds the optimum: this solver can't beat it,
  // and must report a limit, not infeasibility.
  std::atomic<double> shared{cold.objective};
  MipOptions options;
  options.shared_incumbent = &shared;
  const MipResult result = solve_mip(lp, options);
  if (result.status != MipStatus::kOptimal) {
    EXPECT_EQ(result.status, MipStatus::kNodeLimit);
  }
  EXPECT_LE(result.nodes_explored, cold.nodes_explored);
}

TEST(MipParallelTest, PreCancelledSolveStopsImmediately) {
  Rng rng(7);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 6;
  gen.num_buses = 2;
  const TamProblem problem = testutil::random_problem(rng, gen);
  const LinearProgram lp = build_tam_ilp(problem);
  CancellationToken cancel;
  cancel.cancel();
  MipOptions options;
  options.cancel = &cancel;
  const MipResult result = solve_mip(lp, options);
  EXPECT_EQ(result.status, MipStatus::kNodeLimit);
  EXPECT_LE(result.nodes_explored, 1);
}

// --- SA cancellation ------------------------------------------------------

TEST(SaCancellationTest, CancelledSaStopsEarly) {
  Rng rng(12);
  testutil::RandomProblemOptions gen;
  gen.num_cores = 10;
  gen.num_buses = 3;
  const TamProblem problem = testutil::random_problem(rng, gen);
  CancellationToken cancel;
  cancel.cancel();
  SaSolverOptions options;
  options.iterations = 5'000'000;
  options.cancel = &cancel;
  const TamSolveResult result = solve_sa(problem, options);
  // Pre-cancelled: returns the greedy starting point after ~0 moves.
  EXPECT_LT(result.nodes, 1000);
  EXPECT_TRUE(result.feasible);
}

// --- Cached test-time tables ---------------------------------------------

TEST(CachedTableTest, ReturnsSameInstanceForSameKey) {
  const Soc soc = builtin_soc1();
  const TestTimeTable& a = cached_test_time_table(soc, 16);
  const TestTimeTable& b = cached_test_time_table(soc, 16);
  EXPECT_EQ(&a, &b);
  const TestTimeTable& c = cached_test_time_table(soc, 24);
  EXPECT_NE(&a, &c);
  // Cached contents must match a freshly built table.
  const TestTimeTable fresh(soc, 16);
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    for (int w = 1; w <= 16; ++w) {
      EXPECT_EQ(a.time(i, w), fresh.time(i, w));
    }
  }
}

TEST(CachedTableTest, ThreadSafeUnderConcurrentLookup) {
  const Soc soc = builtin_soc2();
  std::vector<const TestTimeTable*> seen(16, nullptr);
  {
    ThreadPool pool(8);
    for (std::size_t t = 0; t < seen.size(); ++t) {
      pool.post([&soc, &seen, t] {
        seen[t] = &cached_test_time_table(soc, 12);
      });
    }
    pool.wait_all();
  }
  for (const TestTimeTable* table : seen) {
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table, seen[0]);
  }
}

}  // namespace
}  // namespace soctest
