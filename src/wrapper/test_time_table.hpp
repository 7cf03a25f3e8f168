#pragma once

#include <vector>

#include "soc/soc.hpp"
#include "wrapper/wrapper.hpp"

namespace soctest {

/// Precomputed per-core test times for every TAM width 1..max_width.
///
/// The architecture optimizer consults this table instead of re-running
/// wrapper design. Times are the *monotone envelope* of the wrapper
/// heuristic: a width-w TAM can always leave wires unused, so the effective
/// test time at width w is min over w' <= w of the heuristic time — this also
/// irons out any non-monotonicity of the packing heuristic.
///
/// Cells are computed by a time-only kernel that derives max scan-in and
/// max scan-out without materializing wrapper chains; each cell equals
/// core_test_time(core, w, heuristic) before the envelope is taken. The
/// envelope at width w reads only widths 1..w, so a cell does not depend on
/// max_width: TestTimeTable(soc, W).time(i, w) == TestTimeTable(soc, w).time(i, w).
class TestTimeTable {
 public:
  /// Builds the table for every core of `soc`.
  TestTimeTable(const Soc& soc, int max_width,
                PartitionHeuristic heuristic =
                    PartitionHeuristic::kBestFitDecreasing);

  int max_width() const { return max_width_; }
  std::size_t num_cores() const { return num_cores_; }

  /// Effective (monotone) test time of core `i` at width `w` (1..max_width).
  Cycles time(std::size_t core, int width) const;

  /// Width actually used to achieve time(core, width) — the smallest
  /// w' <= width attaining the envelope (Pareto-optimal width).
  int effective_width(std::size_t core, int width) const;

  /// Strictly improving widths of core `i`: w is Pareto-optimal iff
  /// time(i, w) < time(i, w-1) (w=1 always included).
  std::vector<int> pareto_widths(std::size_t core) const;

  /// Sum over all cores of time(core, width) — total sequential test load if
  /// every core used a width-`width` TAM. Used for lower bounds.
  Cycles total_time(int width) const;

 private:
  /// Index of cell (core, width) in times_; throws std::out_of_range.
  std::size_t cell(std::size_t core, int width) const;

  int max_width_;
  std::size_t num_cores_;
  std::vector<Cycles> times_;  ///< monotone envelope, [core * max_width + w-1]
};

/// Fingerprint of everything TestTimeTable construction reads from a SOC:
/// the per-core test structure. Two SOCs with equal fingerprints produce
/// bit-identical tables. This is the identity the process-wide memo
/// (cached_test_time_table, src/tam/timing.hpp) and the service result
/// cache key off.
std::string soc_table_fingerprint(const Soc& soc);

}  // namespace soctest
