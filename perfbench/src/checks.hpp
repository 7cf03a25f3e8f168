#pragma once

// Output checks computed apart from the solvers under test: they read the
// SOC, the wrapper's test-time table and the returned architecture, and
// never a stored copy of earlier output.

#include <string>
#include <vector>

#include "layout/bus_planner.hpp"
#include "pack/pack_problem.hpp"
#include "sched/power_profile.hpp"
#include "sched/schedule.hpp"
#include "soc/soc.hpp"
#include "wrapper/test_time_table.hpp"

namespace perfbench {

/// The constraints a fixed-bus design was asked to meet.
struct DesignLimits {
  int num_buses = 2;
  int total_width = 32;
  std::vector<int> widths;  ///< explicit widths; empty = width search
  int d_max = -1;
  long long wire_budget = -1;
  double p_max_mw = -1.0;  ///< pairwise serialization when >= 0
  long long ate_depth = -1;
};

using Errors = std::vector<std::string>;

/// Fixed-bus result: every core on exactly one bus, widths within B and W,
/// T = max over buses of the summed table times, the area and single-core
/// lower bounds, pairwise power serialization, d_max, wire budget and ATE
/// depth. `plan` may be null when no layout constraint was requested.
void check_fixed_bus(const std::string& where, const soctest::Soc& soc,
                     const soctest::TestTimeTable& table,
                     const DesignLimits& limits, const std::vector<int>& widths,
                     const std::vector<int>& core_to_bus, long long t_cycles,
                     const soctest::BusPlan* plan, long long stub_wirelength,
                     Errors& errors);

/// Packed strip: each core placed once with its table time at the chosen
/// width, inside the strip, no two rectangles overlapping, the
/// time-resolved power within p_max, and T the last end.
void check_packing(const std::string& where, const soctest::Soc& soc,
                   const soctest::TestTimeTable& table, int strip_width,
                   double p_max_mw,
                   const std::vector<soctest::PackPlacement>& placements,
                   long long t_cycles, Errors& errors);

/// Minimum makespan over every assignment of the cores to `limits.widths`
/// that meets the limits, by plain enumeration (small N only); -1 when no
/// assignment is feasible.
long long brute_force_makespan(const soctest::Soc& soc,
                               const soctest::TestTimeTable& table,
                               const DesignLimits& limits,
                               const soctest::BusPlan* plan);

/// Schedule realizes the assignment: each core once, on its bus, back to
/// back from 0 with its table time; makespan equals T.
void check_schedule(const std::string& where,
                    const soctest::TestTimeTable& table,
                    const std::vector<int>& widths,
                    const std::vector<int>& core_to_bus,
                    const soctest::TestSchedule& schedule, long long t_cycles,
                    Errors& errors);

/// Power profile peak equals the maximum summed power of the tests active
/// at any start instant of the schedule.
void check_power_profile(const std::string& where, const soctest::Soc& soc,
                         const soctest::TestSchedule& schedule,
                         const soctest::PowerProfile& profile, Errors& errors);

}  // namespace perfbench
