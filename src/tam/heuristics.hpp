#pragma once

#include "common/rng.hpp"
#include "tam/exact_solver.hpp"
#include "tam/tam_problem.hpp"

namespace soctest {

/// Longest-processing-time-first list scheduling, constraint-aware:
/// co-assignment groups are contracted into items (an item's time and wire
/// cost on a bus are its members' sums; the bus is allowed only if every
/// member may use it), items are taken by decreasing minimum time over their
/// allowed buses (equal minima in unspecified order), and each goes to the
/// allowed bus that, in order: keeps the remaining wiring budget, the
/// bus-max-sum power budget and the ATE depth limit; gives the smaller
/// resulting load; has the lower wire cost; has the lower index. Budgets
/// are kept greedily: when no allowed bus keeps them all, the best bus
/// that breaks one is taken and the result is infeasible (feasible =
/// false), as it is when an item has no allowed bus.
TamSolveResult solve_greedy_lpt(const TamProblem& problem);

struct SaSolverOptions {
  int iterations = 50000;
  double initial_temperature = 0.0;  ///< 0 = auto (scaled to makespan)
  double cooling = 0.9997;
  std::uint64_t seed = 1;
  /// Penalty per wiring-budget overflow unit, in cycles.
  double wire_penalty = 1000.0;
  /// Optional cooperative cancellation (portfolio racing): checked every
  /// iteration; on cancel the best assignment seen so far is returned.
  const CancellationToken* cancel = nullptr;
  /// Optional wall-clock deadline (anytime mode): the annealing loop stops
  /// when it expires and returns the best assignment seen so far.
  Deadline deadline;
};

/// Simulated-annealing baseline: starts from greedy LPT, perturbs by moving
/// one item to another allowed bus or swapping two items across buses.
/// Objective: makespan + wire_penalty * budget overflow. Returns the best
/// *feasible* assignment seen (falls back to infeasible-best otherwise).
TamSolveResult solve_sa(const TamProblem& problem,
                        const SaSolverOptions& options = {});

}  // namespace soctest
