// Google-benchmark microbenchmarks for the hot kernels: wrapper design,
// test-time table construction, maze routing, simplex, the TAM solvers and
// the greedy width search.
// Results default to machine-readable JSON in BENCH_micro.json (pass your
// own --benchmark_out=... to override).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "ilp/simplex.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "tam/exact_solver.hpp"
#include "tam/heuristics.hpp"
#include "tam/ilp_solver.hpp"
#include "tam/portfolio.hpp"
#include "tam/search_core.hpp"
#include "tam/staircase.hpp"
#include "tam/width_partition.hpp"
#include "wrapper/test_time_table.hpp"

namespace soctest {
namespace {

void BM_WrapperDesign(benchmark::State& state) {
  const Soc soc = builtin_soc1();
  const auto idx = *soc.find_core("s38417");
  const int w = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(design_wrapper(soc.core(idx), w));
  }
}
BENCHMARK(BM_WrapperDesign)->Arg(4)->Arg(16)->Arg(64);

void BM_TestTimeTable(benchmark::State& state) {
  const Soc soc = builtin_soc1();
  const int max_width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TestTimeTable table(soc, max_width);
    benchmark::DoNotOptimize(table.time(0, max_width));
  }
}
BENCHMARK(BM_TestTimeTable)->Arg(16)->Arg(64);

void BM_BusPlanning(benchmark::State& state) {
  const Soc soc = builtin_soc1();
  const int buses = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_buses(soc, buses));
  }
}
BENCHMARK(BM_BusPlanning)->Arg(2)->Arg(4);

// TamProblem is self-contained (matrices are copied in), so the SOC and
// table can be temporaries.
TamProblem sized_problem(int n) {
  Rng rng(static_cast<std::uint64_t>(n));
  SocGeneratorOptions gen;
  gen.num_cores = n;
  gen.place = false;
  const Soc soc = generate_soc(gen, rng);
  const TestTimeTable table(soc, 16);
  return make_tam_problem(soc, table, {16, 8, 8});
}

// The admissible lower bound evaluated at every B&B node — the single
// hottest scalar kernel of the exact solver.
void BM_LowerBound(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.lower_bound());
  }
}
BENCHMARK(BM_LowerBound)->Arg(8)->Arg(16)->Arg(32);

// Per-iteration cost of the dense-tableau simplex on the TAM ILP
// relaxation; items/iteration puts a number on one pivot.
void BM_SimplexIteration(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  const LinearProgram lp = build_tam_ilp(problem);
  long long iterations = 0;
  for (auto _ : state) {
    const LpResult result = solve_lp(lp);
    benchmark::DoNotOptimize(result.objective);
    iterations += result.iterations;
  }
  state.SetItemsProcessed(iterations);
}
BENCHMARK(BM_SimplexIteration)->Arg(6)->Arg(10)->Arg(14);

void BM_ExactSolver(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_exact(problem));
  }
}
BENCHMARK(BM_ExactSolver)->Arg(8)->Arg(12)->Arg(16);

// Warm-started portfolio on the same instances as BM_ExactSolver — the
// JSON diff of the two is the warm-start speedup at micro scale.
void BM_PortfolioSolver(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_portfolio(problem));
  }
}
BENCHMARK(BM_PortfolioSolver)->Arg(8)->Arg(12)->Arg(16);

// Branch-free staircase row reduction (sum + max over one contiguous
// width-major row) — the bound kernel of the width search and the width DP.
// Items/second counts staircase cells evaluated.
void BM_StaircaseEval(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n));
  SocGeneratorOptions gen;
  gen.num_cores = n;
  gen.place = false;
  const Soc soc = generate_soc(gen, rng);
  const TestTimeTable table(soc, 32);
  const Staircase stairs(table);
  int w = 1;
  long long cells = 0;
  for (auto _ : state) {
    const Staircase::RowStats stats = stairs.row_stats(w);
    benchmark::DoNotOptimize(stats.total + stats.max_single);
    w = w % stairs.max_width() + 1;  // sweep all rows, defeat caching of one
    cells += static_cast<long long>(stairs.num_cores());
  }
  state.SetItemsProcessed(cells);
}
BENCHMARK(BM_StaircaseEval)->Arg(16)->Arg(64)->Arg(256);

// Bitset candidate kernel of the exact search: allowed-mask AND symmetry
// drop (`e & (e - 1)` per bus class) replacing the old per-bus scan.
// Items/second counts candidate masks produced.
void BM_PruneMask(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  const exactcore::CoreTables t = exactcore::build_core_tables(problem);
  const std::uint64_t full =
      t.num_buses >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << t.num_buses) - 1;
  std::uint64_t empty = full;
  long long masks = 0;
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < t.num_items; ++k) {
      acc ^= exactcore::candidate_mask(t, t.allowed[k], empty);
    }
    benchmark::DoNotOptimize(acc);
    empty = empty == 0 ? full : empty >> 1;  // vary the empty-bus pattern
    masks += static_cast<long long>(t.num_items);
  }
  state.SetItemsProcessed(masks);
}
BENCHMARK(BM_PruneMask)->Arg(16)->Arg(64);

void BM_GreedyLpt(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_greedy_lpt(problem));
  }
}
BENCHMARK(BM_GreedyLpt)->Arg(8)->Arg(16)->Arg(32);

// Greedy width search over every partition of W wires into B buses: one
// staircase, one problem re-targeted per partition, greedy-LPT per
// partition. Args: cores, buses, total width. Items/second counts
// partitions tried.
void BM_WidthSearchGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int buses = static_cast<int>(state.range(1));
  const int width = static_cast<int>(state.range(2));
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  SocGeneratorOptions gen;
  gen.num_cores = n;
  gen.place = false;
  const Soc soc = generate_soc(gen, rng);
  const TestTimeTable table(soc, width);
  WidthPartitionOptions options;
  options.solver = InnerSolver::kGreedy;
  long long partitions = 0;
  for (auto _ : state) {
    const ArchitectureResult r =
        optimize_widths(soc, table, buses, width, nullptr, -1, -1.0, options);
    benchmark::DoNotOptimize(r.assignment.makespan);
    partitions += r.partitions_tried;
  }
  state.SetItemsProcessed(partitions);
}
BENCHMARK(BM_WidthSearchGreedy)->Args({24, 3, 32})->Args({100, 2, 64});

void BM_IlpSolver(benchmark::State& state) {
  const TamProblem problem = sized_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_ilp(problem));
  }
}
BENCHMARK(BM_IlpSolver)->Arg(6)->Arg(8);

}  // namespace
}  // namespace soctest

// Custom main (instead of benchmark_main) so results land in
// BENCH_micro.json by default; explicit --benchmark_out flags win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
