// sweep: warm design-space exploration through design_architecture, the way
// the CLI and the examples call it. The built-in soc1-soc4 plus seeded
// generated SOCs (8-26 cores) are solved on a grid of cells: unconstrained
// width searches at two bus counts, layout (d_max + wire budget), power
// (p_max) and ATE-depth width searches, explicit-width exact and ILP solves,
// pack and pack-exact strips, and 2-thread portfolio width searches on the
// built-in SOCs. Every (SOC, max_width) table is built during set-up, so the
// timed operations run the tam/ilp/pack/layout solvers and no wrapper design.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "checks.hpp"
#include "layout/bus_planner.hpp"
#include "soc/builtin.hpp"
#include "tam/architect.hpp"
#include "tam/timing.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace soctest;

namespace {

/// Generated SOCs per run, sized evenly from 8 to 26 cores (the seed draws
/// their content). Enough of them that every cell kind's cost forms a
/// smooth curve over size, so no percentile sits in a gap between two ops.
constexpr int kGenerated = 24;
/// Per-partition node budget of the exact width searches, so that no
/// instance a seed draws turns into a long B&B.
constexpr long long kExactNodeBudget = 20000;
constexpr long long kPackExactNodeBudget = 5000;
/// Explicit-width cells run brute force, and ILP, only on SOCs this small.
/// The ILP's cost varies most with a generated SOC's content, so built-in
/// SOCs (fixed inputs) get it up to a larger size.
constexpr std::size_t kBruteForceMaxCores = 8;
constexpr std::size_t kIlpMaxBuiltinCores = 10;

enum class CellKind { kWidthSearch, kFixed, kPortfolio, kPack };

struct SocEntry {
  std::string name;
  Soc soc;
  bool builtin = false;
  int d_max = -1;
  long long wire_budget = -1;
  double p_max = -1.0;
  long long ate_depth = -1;
};

struct Cell {
  std::size_t soc = 0;
  std::string label;
  CellKind kind = CellKind::kWidthSearch;
  DesignRequest request;
  DesignLimits limits;
  /// Exact cell solving the same point (portfolio and ILP cells), or -1.
  int twin = -1;
};

class Sweep final : public InProcessWorkload {
 public:
  explicit Sweep(const Options& options) : options_(options) {}

  void setup() override {
    test_time_table_memo().clear();
    table_builds_ = table_cells_ = 0.0;
    socs_.clear();
    cells_.clear();
    check_tables_.clear();
    const Soc builtins[] = {builtin_soc1(), builtin_soc2(), builtin_soc3(),
                            builtin_soc4()};
    for (int k = 0; k < 4; ++k) {
      socs_.push_back({"soc" + std::to_string(k + 1), builtins[k], true});
    }
    for (int k = 0; k < kGenerated; ++k) {
      const int n = 8 + 18 * k / (kGenerated - 1);
      socs_.push_back({"gen" + std::to_string(k) + "-n" + std::to_string(n),
                       stratified_soc(n, mix(options_.seed, static_cast<std::uint64_t>(k))),
                       false});
    }
    for (std::size_t s = 0; s < socs_.size(); ++s) {
      derive_limits(socs_[s]);
      add_cells(s);
    }
    // Every table the timed operations read is built here.
    for (const Cell& cell : cells_) {
      for (int w : table_widths(cell)) warm_table(socs_[cell.soc].soc, w);
    }
    results_.assign(cells_.size(), DesignResult{});
    memo_start_ = test_time_table_memo().stats();
  }

  std::size_t round_size() const override { return cells_.size(); }

  bool repeats_operations() const override { return true; }

  std::string label(std::size_t index) const override {
    return cells_[index].label;
  }

  void run(std::size_t index, long long op) override {
    const Cell& cell = cells_[index];
    const char* span = cell.kind == CellKind::kWidthSearch ? "bench.tam.width_search"
                       : cell.kind == CellKind::kFixed     ? "bench.tam.fixed"
                       : cell.kind == CellKind::kPortfolio ? "bench.tam.portfolio"
                                                           : "bench.pack.design";
    LayerSpan layer(span, op);
    results_[index] = design_architecture(socs_[cell.soc].soc, cell.request);
  }

  OpOutcome check(std::size_t index, Errors& errors) override {
    const Cell& cell = cells_[index];
    const SocEntry& entry = socs_[cell.soc];
    const DesignResult& r = results_[index];
    const std::string where = "sweep " + entry.name + " " + cell.label;
    if (obs::enabled() && (cell.limits.d_max >= 0 || cell.limits.wire_budget >= 0)) {
      // plan_buses runs inside design_architecture without a span of its
      // own; an untimed replay of the same call times the layer.
      LayerSpan replay("bench.layout.plan", -1);
      plan_buses(entry.soc, cell.limits.num_buses);
    }
    OpOutcome out;
    out.t_cycles = static_cast<long long>(r.assignment.makespan);
    out.failed = failed(index);
    if (!r.feasible) {
      errors.push_back(where + ": no feasible design");
      return out;
    }
    const TestTimeTable& table = check_table(cell.soc);
    if (!r.pack_placements.empty()) {
      const int strip = r.bus_widths.empty() ? 0 : r.bus_widths.front();
      if (strip != cell.limits.total_width) errors.push_back(where + ": strip width");
      check_packing(where, entry.soc, table, strip, cell.limits.p_max_mw,
                    r.pack_placements, out.t_cycles, errors);
    } else {
      check_fixed_bus(where, entry.soc, table, cell.limits, r.bus_widths,
                      r.assignment.core_to_bus, out.t_cycles,
                      r.bus_plan ? &*r.bus_plan : nullptr, r.stub_wirelength,
                      errors);
      if (cell.kind == CellKind::kFixed &&
          entry.soc.num_cores() <= kBruteForceMaxCores) {
        const long long best = brute_force_makespan(
            entry.soc, table, cell.limits, r.bus_plan ? &*r.bus_plan : nullptr);
        if (best != out.t_cycles) {
          errors.push_back(where + ": T=" + std::to_string(out.t_cycles) +
                           " but enumeration gives " + std::to_string(best));
        }
      }
    }
    const bool budgeted = r.certificate.stop == StopReason::kNodeBudget;
    if (cell.kind != CellKind::kPack && cell.kind != CellKind::kPortfolio &&
        !budgeted && !r.proved_optimal) {
      errors.push_back(where + ": exact solve without a budget stop not optimal");
    }
    return out;
  }

  void check_round(Errors& errors) override {
    // Twins run in the same round, so both results are from this round.
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      if (cell.twin < 0) continue;
      const DesignResult& r = results_[i];
      const DesignResult& exact = results_[static_cast<std::size_t>(cell.twin)];
      const std::string where = "sweep " + socs_[cell.soc].name + " " + cell.label;
      if (!exact.proved_optimal) continue;
      if (r.pack_placements.empty() &&
          r.assignment.makespan != exact.assignment.makespan) {
        errors.push_back(where + ": T=" + std::to_string(r.assignment.makespan) +
                         " but exact proves " +
                         std::to_string(exact.assignment.makespan));
      }
      if (!r.pack_placements.empty() &&
          r.assignment.makespan >= exact.assignment.makespan) {
        errors.push_back(where + ": pack race won without a smaller T");
      }
    }
  }

  bool failed(std::size_t index) const {
    // The named fault: a portfolio width search whose certificate is weaker
    // than what serial exact proves on the same point.
    const Cell& cell = cells_[index];
    if (cell.kind != CellKind::kPortfolio || cell.twin < 0) return false;
    const DesignResult& exact = results_[static_cast<std::size_t>(cell.twin)];
    return exact.certificate.status == SolveStatus::kOptimal &&
           results_[index].certificate.status != SolveStatus::kOptimal;
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
    const auto counter = [&](const char* name) {
      return static_cast<double>(counter_value(name)) / rounds;
    };
    // The tables are built by set-up, once; these are per set-up.
    out["wrapper.table.builds"] = table_builds_;
    out["wrapper.table.ms"] = span_total_ms(profile, "bench.wrapper.table");
    out["wrapper.table.cells"] = table_cells_;
    out["wrapper.table.memo_entries"] = static_cast<double>(stats.size);
    out["wrapper.table.memo_hits"] =
        static_cast<double>(stats.hits - memo_start_.hits) / rounds;
    out["tam.width_search.calls"] = count("bench.tam.width_search");
    out["tam.width_search.ms"] = span_self_ms(profile, "bench.tam.width_search") / rounds;
    out["tam.exact.ms"] = ms("tam.exact.solve");
    out["tam.exact.nodes"] = counter("tam.exact.nodes");
    out["tam.portfolio.calls"] = count("bench.tam.portfolio");
    out["tam.portfolio.ms"] = ms("bench.tam.portfolio");
    out["tam.portfolio.races"] = counter("tam.portfolio.races");
    out["ilp.ms"] = ms("ilp.solve_mip");
    out["ilp.bb.nodes"] = counter("ilp.bb.nodes");
    out["ilp.simplex.pivots"] = counter("ilp.simplex.pivots");
    out["pack.skyline.ms"] = ms("pack.solve");
    out["pack.exact.ms"] = ms("pack.exact.solve");
    out["pack.exact.nodes"] = counter("pack.exact.nodes");
    out["layout.plan.calls"] = count("bench.layout.plan");
    out["layout.plan.ms"] = ms("bench.layout.plan");
    // Per-round quantities, from the last round's results.
    double partitions = 0, proven = 0, ilp = 0, pack = 0, pack_proven = 0,
           wire = 0, weaker = 0;
    std::vector<long long> pack_t;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const DesignResult& r = results_[i];
      if (cell.kind == CellKind::kWidthSearch) partitions += static_cast<double>(r.partitions_tried);
      if (r.proved_optimal) ++proven;
      if (cell.request.solver == InnerSolver::kIlp) ++ilp;
      if (cell.kind == CellKind::kPack) {
        ++pack;
        pack_t.push_back(static_cast<long long>(r.assignment.makespan));
        if (cell.request.solver == InnerSolver::kPackExact && r.proved_optimal) ++pack_proven;
      }
      wire += static_cast<double>(r.stub_wirelength);
      if (failed(i)) ++weaker;
    }
    out["tam.width_search.partitions"] = partitions;
    out["tam.proven"] = proven;
    out["tam.portfolio.cert_weaker"] = weaker;
    out["ilp.calls"] = ilp;
    out["pack.calls"] = pack;
    out["pack.exact.proven"] = pack_proven;
    out["pack.makespan_geomean"] = geomean(pack_t);
    out["layout.stub_wirelength"] = wire;
  }

 private:
  void derive_limits(SocEntry& entry) {
    const Soc& soc = entry.soc;
    double p_top = 0.0;
    for (const Core& c : soc.cores()) p_top = std::max(p_top, c.test_power_mw);
    entry.p_max = std::round(1.3 * p_top);
    // d_max: the smallest limit that keeps every core connectable to its
    // nearest trunk, plus slack; the wire budget allows half again the
    // nearest-trunk wiring.
    const BusPlan plan = plan_buses(soc, 2);
    int worst = 0;
    long long nearest = 0;
    for (std::size_t i = 0; i < soc.num_cores(); ++i) {
      int best = -1;
      for (std::size_t j = 0; j < plan.num_buses(); ++j) {
        const int d = plan.distance(i, j);
        if (d >= 0 && (best < 0 || d < best)) best = d;
      }
      worst = std::max(worst, best);
      nearest += best;
    }
    entry.d_max = worst + 2;
    entry.wire_budget = nearest + nearest / 2;
    // ATE depth: the greedy width search's makespan is achievable, so the
    // exact search under this depth always has a feasible answer.
    DesignRequest greedy;
    greedy.num_buses = 2;
    greedy.total_width = 32;
    greedy.solver = InnerSolver::kGreedy;
    warm_table(soc, greedy.total_width - (greedy.num_buses - 1));
    entry.ate_depth = static_cast<long long>(
        design_architecture(soc, greedy).assignment.makespan);
  }

  int add_cell(std::size_t s, std::string label, CellKind kind,
               DesignRequest request, int twin = -1) {
    Cell cell;
    cell.soc = s;
    cell.label = std::move(label);
    cell.kind = kind;
    cell.twin = twin;
    cell.limits.num_buses = request.bus_widths.empty()
                                ? request.num_buses
                                : static_cast<int>(request.bus_widths.size());
    cell.limits.total_width =
        request.bus_widths.empty()
            ? request.total_width
            : std::accumulate(request.bus_widths.begin(), request.bus_widths.end(), 0);
    cell.limits.widths = request.bus_widths;
    cell.limits.d_max = request.d_max;
    cell.limits.wire_budget = request.wire_budget;
    cell.limits.p_max_mw = request.p_max_mw;
    cell.limits.ate_depth = request.ate_depth_limit;
    cell.request = std::move(request);
    cells_.push_back(std::move(cell));
    return static_cast<int>(cells_.size()) - 1;
  }

  static DesignRequest search(int buses, int width, InnerSolver solver) {
    DesignRequest r;
    r.num_buses = buses;
    r.total_width = width;
    r.solver = solver;
    if (solver == InnerSolver::kExact) r.max_nodes = kExactNodeBudget;
    return r;
  }

  void add_cells(std::size_t s) {
    const SocEntry& e = socs_[s];
    add_cell(s, "exact B=2 W=32", CellKind::kWidthSearch, search(2, 32, InnerSolver::kExact));
    add_cell(s, "exact B=3 W=24", CellKind::kWidthSearch, search(3, 24, InnerSolver::kExact));
    DesignRequest layout = search(2, 32, InnerSolver::kExact);
    layout.d_max = e.d_max;
    layout.wire_budget = e.wire_budget;
    add_cell(s, "exact layout B=2 W=32", CellKind::kWidthSearch, layout);
    DesignRequest power = search(2, 32, InnerSolver::kExact);
    power.p_max_mw = e.p_max;
    add_cell(s, "exact power B=2 W=32", CellKind::kWidthSearch, power);
    DesignRequest ate = search(2, 32, InnerSolver::kExact);
    ate.ate_depth_limit = e.ate_depth;
    add_cell(s, "exact ate B=2 W=32", CellKind::kWidthSearch, ate);

    DesignRequest fixed;
    fixed.bus_widths = {12, 8, 4};
    fixed.solver = InnerSolver::kExact;
    fixed.max_nodes = kExactNodeBudget;
    const int exact_fixed = add_cell(s, "exact widths 12,8,4", CellKind::kFixed, fixed);
    if (e.soc.num_cores() <=
        (e.builtin ? kIlpMaxBuiltinCores : kBruteForceMaxCores)) {
      fixed.solver = InnerSolver::kIlp;
      add_cell(s, "ilp widths 12,8,4", CellKind::kFixed, fixed, exact_fixed);
      DesignRequest fixed_power = fixed;
      fixed_power.p_max_mw = e.p_max;
      fixed_power.solver = InnerSolver::kExact;
      const int exact_power = add_cell(s, "exact power widths 12,8,4",
                                       CellKind::kFixed, fixed_power);
      fixed_power.solver = InnerSolver::kIlp;
      add_cell(s, "ilp power widths 12,8,4", CellKind::kFixed, fixed_power,
               exact_power);
    }

    DesignRequest pack = search(1, 32, InnerSolver::kPack);
    add_cell(s, "pack W=32", CellKind::kPack, pack);
    if (e.builtin) {
      // Time-resolved power packing costs ~N^2.5; on the built-in SOCs only,
      // it and the portfolio cells are the round's few heaviest operations,
      // and p95 falls in the dense family of pack W=32 cells below them.
      pack.p_max_mw = e.p_max;
      add_cell(s, "pack power W=32", CellKind::kPack, pack);
    }
    DesignRequest pack_exact = search(1, 16, InnerSolver::kPackExact);
    pack_exact.max_nodes = kPackExactNodeBudget;
    add_cell(s, "pack-exact W=16", CellKind::kPack, pack_exact);

    if (e.name == "soc1" || e.name == "soc2" || e.name == "soc3") {
      // Portfolio cells stay on seed-independent built-in SOCs, with their
      // serial-exact twins for the certificate comparison. They race two
      // threads, so their times are the noisiest of the round: three of
      // them keep the named fault in view without dominating the round.
      for (const auto& [b, w] : {std::pair{2, 32}, std::pair{3, 48}}) {
        if ((b == 3) != (e.name == "soc3")) continue;
        DesignRequest exact = search(b, w, InnerSolver::kExact);
        exact.max_nodes = -1;
        const int twin = add_cell(s, "exact twin B=" + std::to_string(b) +
                                         " W=" + std::to_string(w),
                                  CellKind::kWidthSearch, exact);
        DesignRequest portfolio = search(b, w, InnerSolver::kPortfolio);
        portfolio.threads = 2;
        add_cell(s, "portfolio B=" + std::to_string(b) + " W=" + std::to_string(w),
                 CellKind::kPortfolio, portfolio, twin);
      }
    }
  }

  /// max_width values of the memo tables design_architecture reads.
  static std::set<int> table_widths(const Cell& cell) {
    const DesignRequest& r = cell.request;
    if (r.solver == InnerSolver::kPack || r.solver == InnerSolver::kPackExact) {
      return {cell.limits.total_width};
    }
    if (!r.bus_widths.empty()) {
      return {*std::max_element(r.bus_widths.begin(), r.bus_widths.end())};
    }
    std::set<int> widths = {r.total_width - (r.num_buses - 1)};
    if (r.solver == InnerSolver::kPortfolio && r.pack_race && r.d_max < 0 &&
        r.wire_budget < 0 && r.ate_depth_limit < 0) {
      widths.insert(r.total_width);
    }
    return widths;
  }

  /// Builds a memo table under the wrapper layer's span, counting builds.
  void warm_table(const Soc& soc, int max_width) {
    const long long misses = test_time_table_memo().stats().misses;
    {
      LayerSpan span("bench.wrapper.table", -1);
      cached_test_time_table(soc, max_width);
    }
    if (test_time_table_memo().stats().misses != misses) {
      ++table_builds_;
      table_cells_ += static_cast<double>(soc.num_cores()) * max_width;
    }
  }

  /// The checks' own table, built outside the memo and the timed phase.
  const TestTimeTable& check_table(std::size_t s) {
    if (check_tables_.size() != socs_.size()) check_tables_.resize(socs_.size());
    if (!check_tables_[s]) {
      check_tables_[s] = std::make_unique<TestTimeTable>(socs_[s].soc, 48);
    }
    return *check_tables_[s];
  }

  Options options_;
  std::vector<SocEntry> socs_;
  std::vector<Cell> cells_;
  std::vector<DesignResult> results_;
  std::vector<std::unique_ptr<TestTimeTable>> check_tables_;
  TestTimeTableMemo::Stats memo_start_;
  double table_builds_ = 0.0;
  double table_cells_ = 0.0;
};

}  // namespace

std::unique_ptr<InProcessWorkload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}

}  // namespace perfbench
