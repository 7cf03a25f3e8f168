#pragma once

#include <cstddef>
#include <vector>

#include "wrapper/test_time_table.hpp"

namespace soctest {

/// Width-major flattening of a TestTimeTable: one contiguous row of
/// per-core test times per TAM width,
///
///   val[(w - 1) * num_cores + i] = table.time(i, w).
///
/// TestTimeTable stores core-major vectors-of-vectors, which is the right
/// shape for building the monotone envelope but the wrong one for the
/// architecture search: the width search and the width DP both ask "what is
/// every core's time at width w" — a strided, double-indirected walk there,
/// a single cache-line-friendly row scan here. Row kernels (sum, max,
/// masked accumulate) are branch-free loops over that row, so compilers
/// auto-vectorize them.
///
/// Widths outside [1, max_width] are clamped to the edge. Clamping upward
/// is sound wherever the staircase is consulted: times are a monotone
/// non-increasing envelope, so the edge value over-estimates nothing below
/// it and any width beyond the table behaves like the table edge (a wider
/// bus can always leave wires unused).
class Staircase {
 public:
  explicit Staircase(const TestTimeTable& table)
      : Staircase(table, table.max_width()) {}
  /// Copies only widths 1..min(max_width, table.max_width()): a search that
  /// never asks for a wider bus need not flatten the rest of the table.
  Staircase(const TestTimeTable& table, int max_width);

  int max_width() const { return max_width_; }
  std::size_t num_cores() const { return num_cores_; }

  /// Contiguous row of per-core times at `width` (clamped).
  const Cycles* row(int width) const {
    return val_.data() + static_cast<std::size_t>(clamp(width) - 1) * num_cores_;
  }

  /// Single cell, same clamping.
  Cycles at(std::size_t core, int width) const { return row(width)[core]; }

  struct RowStats {
    Cycles total = 0;       ///< sum over cores of time(i, w)
    Cycles max_single = 0;  ///< max over cores of time(i, w)
  };

  /// Sum and max of one row in a single branch-free pass.
  RowStats row_stats(int width) const;

 private:
  int clamp(int width) const {
    if (width < 1) return 1;
    return width > max_width_ ? max_width_ : width;
  }

  int max_width_ = 0;
  std::size_t num_cores_ = 0;
  std::vector<Cycles> val_;  ///< [(width - 1) * num_cores + core]
};

}  // namespace soctest
