#include "tam/staircase.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace soctest {

Staircase::Staircase(const TestTimeTable& table, int max_width)
    : max_width_(std::min(max_width, table.max_width())),
      num_cores_(table.num_cores()) {
  if (max_width_ < 1 || num_cores_ == 0) {
    // Degenerate tables still get one addressable row of zeros so row()
    // never dereferences an empty buffer.
    max_width_ = max_width_ < 1 ? 1 : max_width_;
    val_.assign(static_cast<std::size_t>(max_width_) *
                    (num_cores_ == 0 ? 1 : num_cores_),
                0);
    return;
  }
  val_.resize(static_cast<std::size_t>(max_width_) * num_cores_);
  for (int w = 1; w <= max_width_; ++w) {
    Cycles* out = val_.data() + static_cast<std::size_t>(w - 1) * num_cores_;
    for (std::size_t i = 0; i < num_cores_; ++i) out[i] = table.time(i, w);
  }
  if (obs::enabled()) {
    obs::counter("tam.exact.staircase.builds").add(1);
    obs::counter("tam.exact.staircase.cells")
        .add(static_cast<long long>(val_.size()));
  }
}

Staircase::RowStats Staircase::row_stats(int width) const {
  const Cycles* r = row(width);
  RowStats stats;
  // Separate accumulators, no data-dependent branches: both reductions
  // vectorize over the contiguous row.
  Cycles total = 0;
  Cycles max_single = 0;
  for (std::size_t i = 0; i < num_cores_; ++i) {
    total += r[i];
    max_single = r[i] > max_single ? r[i] : max_single;
  }
  stats.total = total;
  stats.max_single = max_single;
  return stats;
}

}  // namespace soctest
