// Robustness ("fuzz-ish") tests: the text parsers must never crash on
// malformed input — only throw std::runtime_error (soc format) or report
// an error string (json_check). Seeded random mutations of valid documents
// plus pure-noise inputs.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pack/exact_pack.hpp"
#include "pack/skyline.hpp"
#include "report/json.hpp"
#include "soc/builtin.hpp"
#include "soc/generator.hpp"
#include "soc/soc_format.hpp"
#include "tam/timing.hpp"
#include "tam/width_partition.hpp"

namespace soctest {
namespace {

std::string mutate(const std::string& base, Rng& rng, int edits) {
  std::string s = base;
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.index(s.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip a character
        s[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:  // delete a character
        s.erase(pos, 1);
        break;
      case 2:  // duplicate a chunk
        s.insert(pos, s.substr(pos, std::min<std::size_t>(8, s.size() - pos)));
        break;
      case 3:  // insert noise
        s.insert(pos, std::string(1, static_cast<char>(rng.uniform_int(1, 126))));
        break;
    }
  }
  return s;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, SocParserNeverCrashes) {
  Rng rng(GetParam());
  const std::string base = write_soc(builtin_soc1());
  for (int trial = 0; trial < 50; ++trial) {
    const std::string text =
        mutate(base, rng, static_cast<int>(rng.uniform_int(1, 30)));
    try {
      const Soc soc = read_soc_string(text);
      // If it parsed, it must be semantically valid (the parser validates).
      EXPECT_EQ(soc.validate(), "");
    } catch (const std::runtime_error&) {
      // expected for malformed input
    } catch (const std::invalid_argument&) {
      // bounds violations surfaced during construction are acceptable too
    }
  }
}

TEST_P(FuzzSeeds, SocParserPureNoise) {
  Rng rng(GetParam() + 5000);
  for (int trial = 0; trial < 30; ++trial) {
    std::string noise;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 300));
    for (std::size_t k = 0; k < len; ++k) {
      noise += static_cast<char>(rng.uniform_int(1, 126));
    }
    try {
      (void)read_soc_string(noise);
    } catch (const std::exception&) {
      // any std::exception is fine; crashes/UB are not
    }
  }
}

TEST_P(FuzzSeeds, JsonCheckerNeverCrashes) {
  Rng rng(GetParam() + 9000);
  const std::string base =
      R"({"name":"x","list":[1,2.5,-3e2,true,null],"nested":{"a":"b\nc"}})";
  for (int trial = 0; trial < 100; ++trial) {
    const std::string text =
        mutate(base, rng, static_cast<int>(rng.uniform_int(1, 20)));
    (void)json_check(text);  // must terminate without crashing
  }
  // Pathological inputs.
  (void)json_check(std::string(1000, '['));
  (void)json_check(std::string(1000, '{'));
  (void)json_check("\"" + std::string(500, '\\'));
}

// Random PackProblems with adversarial menus (not derived from any SOC):
// whatever the solvers emit must pass the independent feasibility oracle,
// and the three solvers must respect their dominance contracts.
PackProblem random_pack_problem(Rng& rng) {
  PackProblem p;
  p.total_width = static_cast<int>(rng.uniform_int(3, 16));
  const int n = static_cast<int>(rng.uniform_int(1, 8));
  for (int i = 0; i < n; ++i) {
    std::vector<PackRect> menu;
    int width = static_cast<int>(rng.uniform_int(1, p.total_width));
    Cycles time = rng.uniform_int(5, 200);
    // Walk widths upward / times strictly downward so the menu is a valid
    // Pareto staircase by construction.
    while (true) {
      menu.push_back({width, time});
      if (menu.size() >= 4 || rng.bernoulli(0.4)) break;
      width += static_cast<int>(rng.uniform_int(1, 4));
      if (width > p.total_width || time <= 1) break;
      time -= rng.uniform_int(1, std::max<Cycles>(1, time / 2));
      if (time < 1) break;
    }
    p.menu.push_back(std::move(menu));
  }
  if (rng.bernoulli(0.5)) {
    double tallest = 0;
    for (int i = 0; i < n; ++i) {
      p.power_mw.push_back(rng.uniform(50.0, 300.0));
      tallest = std::max(tallest, p.power_mw.back());
    }
    p.p_max_mw = tallest * rng.uniform(1.2, 2.5);
  }
  return p;
}

TEST_P(FuzzSeeds, PackSolversSatisfyTheOracleOnRandomProblems) {
  Rng rng(GetParam() + 13000);
  for (int trial = 0; trial < 20; ++trial) {
    const PackProblem problem = random_pack_problem(rng);
    ASSERT_EQ(problem.validate(), "");
    const PackSolveResult sky = solve_pack_skyline(problem);
    PackSolverOptions repair;
    repair.sa_iterations = 400;
    const PackSolveResult repaired = solve_pack(problem, repair);
    PackExactOptions budgeted;
    budgeted.max_nodes = 20000;
    const PackSolveResult exact = solve_pack_exact(problem, budgeted);
    for (const PackSolveResult* r : {&sky, &repaired, &exact}) {
      ASSERT_TRUE(r->feasible);
      EXPECT_EQ(check_packing(problem, r->placements, r->makespan), "");
      EXPECT_GE(r->makespan, problem.lower_bound());
    }
    EXPECT_LE(repaired.makespan, sky.makespan);
    EXPECT_LE(exact.makespan, sky.makespan);  // warm-started from it
  }
}

/// Certificate strength: optimal > feasible_bounded > feasible >
/// infeasible > error.
int certificate_rank(const SolveCertificate& c) {
  switch (c.status) {
    case SolveStatus::kOptimal: return 4;
    case SolveStatus::kFeasibleBounded: return 3;
    case SolveStatus::kFeasible: return 2;
    case SolveStatus::kInfeasible: return 1;
    case SolveStatus::kError: return 0;
  }
  return 0;
}

// The portfolio races greedy, SA and exact inside every partition of the
// width search, so its answer is never worse than any member's own width
// search, and its certificate never weaker than what exact alone proves.
TEST_P(FuzzSeeds, PortfolioNeverWeakerThanItsMembers) {
  Rng rng(GetParam() + 17000);
  for (int trial = 0; trial < 4; ++trial) {
    SocGeneratorOptions gen;
    gen.num_cores = static_cast<int>(rng.uniform_int(4, 9));
    gen.soft_core_fraction = 0.3;
    gen.place = false;
    const Soc soc = generate_soc(gen, rng);
    const int buses = static_cast<int>(rng.uniform_int(2, 3));
    const int width = static_cast<int>(rng.uniform_int(8, 32));
    const TestTimeTable& table =
        cached_test_time_table(soc, width - (buses - 1));
    const auto search = [&](InnerSolver solver) {
      WidthPartitionOptions options;
      options.solver = solver;
      options.threads = 2;
      return optimize_widths(soc, table, buses, width, nullptr, -1, -1.0,
                             options);
    };
    const ArchitectureResult portfolio = search(InnerSolver::kPortfolio);
    const ArchitectureResult exact = search(InnerSolver::kExact);
    const std::string where = "seed " + std::to_string(GetParam()) +
                              " trial " + std::to_string(trial);
    ASSERT_TRUE(portfolio.feasible) << where;
    for (InnerSolver member :
         {InnerSolver::kGreedy, InnerSolver::kSa, InnerSolver::kExact}) {
      const ArchitectureResult r =
          member == InnerSolver::kExact ? exact : search(member);
      ASSERT_TRUE(r.feasible) << where;
      EXPECT_LE(portfolio.assignment.makespan, r.assignment.makespan)
          << where << " member " << inner_solver_name(member);
    }
    EXPECT_GE(certificate_rank(portfolio.certificate),
              certificate_rank(exact.certificate))
        << where << ": portfolio " << portfolio.certificate.to_string()
        << " vs exact " << exact.certificate.to_string();
    if (portfolio.certificate.status == SolveStatus::kFeasibleBounded &&
        exact.certificate.status == SolveStatus::kFeasibleBounded) {
      EXPECT_LE(portfolio.certificate.gap(), exact.certificate.gap()) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(0, 8));

TEST(Fuzz, DeepJsonNestingTerminates) {
  // 10k-deep nesting: the validator is recursive, so keep the depth below
  // stack limits but large enough to prove linear behavior.
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "[";
  for (int i = 0; i < 2000; ++i) deep += "]";
  EXPECT_EQ(json_check(deep), "");
  deep.pop_back();
  EXPECT_NE(json_check(deep), "");
}

}  // namespace
}  // namespace soctest
