#include <gtest/gtest.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/run.hpp"
#include "report/json.hpp"

namespace soctest {
namespace {

std::string trim_copy(const std::string& s) {
  const auto b = s.find_first_not_of(" \n\t");
  const auto e = s.find_last_not_of(" \n\t");
  return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
}

TEST(CliParse, Defaults) {
  const CliOptions o = parse_cli({});
  EXPECT_EQ(o.soc, "soc1");
  EXPECT_EQ(o.buses, 2);
  EXPECT_EQ(o.total_width, 32);
  EXPECT_TRUE(o.widths.empty());
  EXPECT_EQ(o.d_max, -1);
  EXPECT_EQ(o.p_max, -1.0);
  EXPECT_EQ(o.solver, InnerSolver::kExact);
  EXPECT_FALSE(o.help);
  EXPECT_FALSE(o.gantt);
  EXPECT_FALSE(o.idle_insertion);
}

TEST(CliParse, AllFlags) {
  const CliOptions o = parse_cli({"--soc", "soc3", "--widths", "16,8,8",
                                  "--dmax", "20", "--wire-budget", "100",
                                  "--pmax", "1500", "--solver", "sa",
                                  "--gantt", "--idle-insertion"});
  EXPECT_EQ(o.soc, "soc3");
  EXPECT_EQ(o.widths, (std::vector<int>{16, 8, 8}));
  EXPECT_EQ(o.d_max, 20);
  EXPECT_EQ(o.wire_budget, 100);
  EXPECT_DOUBLE_EQ(o.p_max, 1500.0);
  EXPECT_EQ(o.solver, InnerSolver::kSa);
  EXPECT_TRUE(o.gantt);
  EXPECT_TRUE(o.idle_insertion);
}

TEST(CliParse, SolverNames) {
  EXPECT_EQ(parse_cli({"--solver", "exact"}).solver, InnerSolver::kExact);
  EXPECT_EQ(parse_cli({"--solver", "ilp"}).solver, InnerSolver::kIlp);
  EXPECT_EQ(parse_cli({"--solver", "greedy"}).solver, InnerSolver::kGreedy);
  EXPECT_THROW(parse_cli({"--solver", "magic"}), std::invalid_argument);
}

TEST(CliParse, Rejections) {
  EXPECT_THROW(parse_cli({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--buses"}), std::invalid_argument);        // missing value
  EXPECT_THROW(parse_cli({"--buses", "0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--buses", "two"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--widths", ""}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--widths", "4,,8"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--widths", "4,0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--width", "2", "--buses", "3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--pmax", "12x"}), std::invalid_argument);
}

TEST(CliParse, PowerMode) {
  EXPECT_EQ(parse_cli({"--power-mode", "pairwise"}).power_mode,
            PowerConstraintMode::kPairwiseSerialization);
  EXPECT_EQ(parse_cli({"--power-mode", "busmax"}).power_mode,
            PowerConstraintMode::kBusMaxSum);
  EXPECT_THROW(parse_cli({"--power-mode", "triple"}), std::invalid_argument);
}

TEST(CliRun, BusMaxModeMeetsBudgetOnThreeBuses) {
  const CliResult r = run_cli(parse_cli({"--soc", "soc1", "--widths",
                                         "16,16,16", "--pmax", "2000",
                                         "--power-mode", "busmax"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("OK"), std::string::npos);
  EXPECT_EQ(r.output.find("VIOLATION"), std::string::npos);
}

TEST(CliParse, HelpFlag) {
  EXPECT_TRUE(parse_cli({"--help"}).help);
  EXPECT_TRUE(parse_cli({"-h"}).help);
}

TEST(CliRun, HelpPrintsUsage) {
  CliOptions o;
  o.help = true;
  const CliResult r = run_cli(o);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage: soctest"), std::string::npos);
}

TEST(CliRun, BuiltinSocFixedWidths) {
  const CliResult r = run_cli(parse_cli({"--soc", "soc2", "--widths", "8,8"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("system test time"), std::string::npos);
  EXPECT_NE(r.output.find("optimal"), std::string::npos);
}

TEST(CliRun, WidthSearchWithGantt) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc2", "--buses", "2", "--width", "12", "--gantt"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("bus 0 ["), std::string::npos);
}

TEST(CliRun, PowerConstrainedReportsPeak) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc2", "--widths", "8,8", "--pmax", "1400"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("schedule peak power"), std::string::npos);
  EXPECT_NE(r.output.find("OK"), std::string::npos);
}

TEST(CliRun, IdleInsertionPath) {
  const CliResult r = run_cli(parse_cli({"--soc", "soc1", "--widths", "16,16",
                                         "--pmax", "1700",
                                         "--idle-insertion"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("idle-insertion schedule"), std::string::npos);
  EXPECT_NE(r.output.find("OK"), std::string::npos);
}

TEST(CliRun, LayoutConstrained) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc1", "--widths", "16,16,16", "--dmax", "30"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("stub wirelength"), std::string::npos);
}

TEST(CliRun, LoadsSocFromFile) {
  const std::string path = ::testing::TempDir() + "/cli_test_chip.soc";
  {
    std::ofstream out(path);
    out << "soc filechip 20 20\n"
           "core a inputs 8 outputs 8 patterns 20 power 100 size 4 4\n"
           "core b inputs 6 outputs 6 patterns 30 power 150 size 4 4\n"
           "scan a 12 12\n"
           "softscan b 40\n"
           "place a 2 2\n"
           "place b 10 2\n"
           "end\n";
  }
  const CliResult r = run_cli(parse_cli({"--soc", path, "--widths", "4,4"}));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("filechip"), std::string::npos);
  EXPECT_NE(r.output.find("system test time"), std::string::npos);
}

TEST(CliRun, LoadsShippedSampleSoc) {
  // The repo ships data/camchip.soc; resolve it relative to this source
  // file's directory recorded at configure time.
#ifdef SOCTEST_REPO_ROOT
  const std::string path = std::string(SOCTEST_REPO_ROOT) + "/data/camchip.soc";
  const CliResult r = run_cli(parse_cli(
      {"--soc", path, "--widths", "12,8", "--dmax", "24", "--pmax", "1650"}));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("camchip"), std::string::npos);
#else
  GTEST_SKIP() << "SOCTEST_REPO_ROOT not defined";
#endif
}

TEST(CliRun, MissingSocFileReportsError) {
  const CliResult r = run_cli(parse_cli({"--soc", "/no/such/file.soc"}));
  EXPECT_EQ(r.exit_code, 3);  // input error (docs/robustness.md exit codes)
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("not_found"), std::string::npos);
}

TEST(CliRun, InfeasiblePowerBudgetExitsNonzero) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc2", "--widths", "8,8", "--pmax", "100"}));
  EXPECT_NE(r.exit_code, 0);
}

TEST(CliRun, JsonOutputIsValid) {
  const CliResult r = run_cli(parse_cli(
      {"--soc", "soc2", "--widths", "8,8", "--pmax", "1400", "--json"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(json_check(trim_copy(r.output)), "") << r.output;
  EXPECT_NE(r.output.find("\"test_time_cycles\""), std::string::npos);
  // The text report must not be mixed in.
  EXPECT_EQ(r.output.find("system test time"), std::string::npos);
}

// The text report and the JSON report read their per-bus times from the
// same table, so they must print the same bus loads.
TEST(CliRun, TextAndJsonBusLoadsAgree) {
  const std::vector<std::vector<std::string>> cases = {
      {"--soc", "soc1", "--buses", "3", "--width", "40"},
      {"--soc", "soc3", "--widths", "16,8,8"},
      {"--soc", "soc2", "--widths", "40,4", "--width", "16"},
  };
  for (const auto& args : cases) {
    const CliResult text = run_cli(parse_cli(args));
    auto json_args = args;
    json_args.push_back("--json");
    const CliResult json = run_cli(parse_cli(json_args));
    ASSERT_EQ(text.exit_code, 0) << text.output;
    ASSERT_EQ(json.exit_code, 0) << json.output;

    std::vector<long long> text_loads;
    const std::string tag = "[load ";
    for (std::size_t at = text.output.find(tag); at != std::string::npos;
         at = text.output.find(tag, at + 1)) {
      text_loads.push_back(std::stoll(text.output.substr(at + tag.size())));
    }
    const auto doc = parse_json(trim_copy(json.output));
    ASSERT_TRUE(doc) << json.output;
    const JsonValue* buses = doc->find("buses");
    ASSERT_NE(buses, nullptr) << json.output;
    std::vector<long long> json_loads;
    for (const JsonValue& bus : buses->items) {
      json_loads.push_back(static_cast<long long>(bus.number_or("load", -1)));
    }
    EXPECT_FALSE(text_loads.empty()) << text.output;
    EXPECT_EQ(text_loads, json_loads) << text.output << json.output;
  }
}

TEST(CliRun, SvgOutputWritesWellFormedFile) {
  const std::string path = ::testing::TempDir() + "/soctest_cli_test.svg";
  const CliResult r = run_cli(parse_cli({"--soc", "soc1", "--widths",
                                         "16,16", "--dmax", "40", "--svg",
                                         path}));
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("<svg"), std::string::npos);
  EXPECT_NE(buffer.str().find("polyline"), std::string::npos);  // trunks+stubs
}

TEST(CliRun, SvgToUnwritablePathFails) {
  const CliResult r = run_cli(parse_cli(
      {"--soc", "soc1", "--widths", "16,16", "--svg", "/no/such/dir/x.svg"}));
  EXPECT_EQ(r.exit_code, 4);  // output I/O error
  EXPECT_NE(r.output.find("io_error"), std::string::npos);
}

TEST(CliParse, RobustnessFlags) {
  const CliOptions o = parse_cli(
      {"--time-limit-ms", "250", "--failpoints", "tam.exact.node=error"});
  EXPECT_DOUBLE_EQ(o.time_limit_ms, 250.0);
  EXPECT_EQ(o.failpoints, "tam.exact.node=error");
  EXPECT_THROW(parse_cli({"--time-limit-ms", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--time-limit-ms"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--failpoints", ""}), std::invalid_argument);
}

TEST(CliRun, TimeLimitReportsCertificate) {
  // A zero budget expires before the first search node; the degradation
  // chain (portfolio greedy floor) must still deliver an architecture with
  // an honest gap report and a success exit.
#ifdef SOCTEST_REPO_ROOT
  const std::string path = std::string(SOCTEST_REPO_ROOT) + "/data/camchip.soc";
  const CliResult r = run_cli(
      parse_cli({"--soc", path, "--buses", "2", "--width", "24",
                 "--time-limit-ms", "0"}));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("system test time"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("status=feasible_bounded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("gap="), std::string::npos) << r.output;
#else
  GTEST_SKIP() << "SOCTEST_REPO_ROOT not defined";
#endif
}

TEST(CliRun, NoTimeLimitMatchesGoldenOutput) {
  // Without --time-limit-ms the anytime machinery must stay fully inert:
  // two runs (and the pre-deadline code path) give byte-identical reports.
  const std::vector<std::string> args{"--soc", "soc2", "--widths", "16,16"};
  const CliResult a = run_cli(parse_cli(args));
  const CliResult b = run_cli(parse_cli(args));
  EXPECT_EQ(a.exit_code, 0);
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output.find("status=optimal"), std::string::npos) << a.output;
}

TEST(CliRun, JsonReportCarriesCertificate) {
  const CliResult r = run_cli(parse_cli(
      {"--soc", "soc2", "--widths", "16,16", "--json"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"status\":\"optimal\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"stop_reason\":\"none\""), std::string::npos)
      << r.output;
}

TEST(CliRun, Soc3Solves) {
  const CliResult r = run_cli(
      parse_cli({"--soc", "soc3", "--widths", "24,16,16", "--solver", "greedy"}));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("system test time"), std::string::npos);
}

}  // namespace
}  // namespace soctest
