#include "wrapper/test_time_table.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace soctest {

std::string soc_table_fingerprint(const Soc& soc) {
  std::ostringstream key;
  key << soc.name() << '|' << soc.num_cores();
  for (std::size_t i = 0; i < soc.num_cores(); ++i) {
    const Core& core = soc.core(i);
    key << '|' << core.name << ',' << core.num_inputs << ',' << core.num_outputs
        << ',' << core.num_bidirs << ',' << core.soft_scan_flops << ','
        << core.num_patterns << ':';
    for (int len : core.scan_chain_lengths) key << len << ';';
  }
  return key.str();
}

namespace {

/// Longest chain after `cells` unit items are water-filled onto the
/// ascending chain lengths `sorted[0..w)`: the shortest chains are raised
/// level by level, as design_wrapper's cell distribution does, and the
/// filled chains end at `level + ceil(remaining / k)`.
///
/// Unit fills compose (filling a then b cells leaves the same multiset of
/// lengths as filling a + b), and input and output cells are balanced
/// independently over the internal lengths, so one call per side covers
/// soft flops plus that side's wrapper cells.
long long filled_max(const long long* sorted, std::size_t w, long long cells) {
  long long remaining = cells;
  std::size_t k = 1;  // chains at or below the water level
  long long level = sorted[0];
  while (k < w) {
    const long long capacity = static_cast<long long>(k) * (sorted[k] - level);
    if (capacity >= remaining) break;
    remaining -= capacity;
    level = sorted[k];
    ++k;
  }
  const auto chains = static_cast<long long>(k);
  return std::max(sorted[w - 1], level + (remaining + chains - 1) / chains);
}

/// Time-only wrapper kernel for one core: reproduces
/// wrapper_test_time(core, design_wrapper(core, w, heuristic)) from the
/// per-chain internal loads alone. Its buffers are reused for every core
/// and width of a table.
class TimeKernel {
 public:
  TimeKernel(int max_width, PartitionHeuristic heuristic)
      : heuristic_(heuristic), loads_(static_cast<std::size_t>(max_width)) {}

  /// Prepares `core`: its chain lengths, sorted descending for BFD (kept in
  /// core order for round-robin), once for all widths.
  void load(const Core& core) {
    core_ = &core;
    lengths_.assign(core.scan_chain_lengths.begin(), core.scan_chain_lengths.end());
    if (heuristic_ != PartitionHeuristic::kRoundRobin) {
      std::sort(lengths_.begin(), lengths_.end(), std::greater<>());
    }
  }

  Cycles time(int width) {
    const auto w = static_cast<std::size_t>(width);
    long long* loads = loads_.data();
    const std::size_t n = lengths_.size();
    if (w >= n) {
      // Every internal chain sits alone on its own wrapper chain.
      std::fill(loads, loads + (w - n), 0LL);
      if (heuristic_ == PartitionHeuristic::kRoundRobin) {
        std::copy(lengths_.begin(), lengths_.end(), loads + (w - n));
        std::sort(loads + (w - n), loads + w);
      } else {
        std::reverse_copy(lengths_.begin(), lengths_.end(), loads + (w - n));
      }
    } else if (heuristic_ == PartitionHeuristic::kRoundRobin) {
      std::fill(loads, loads + w, 0LL);
      for (std::size_t c = 0; c < n; ++c) loads[c % w] += lengths_[c];
      std::sort(loads, loads + w);
    } else {
      // Best-fit decreasing: the w longest chains open the wrapper chains,
      // then each next chain joins the currently shortest one (any
      // shortest: ties leave the same multiset of loads).
      std::copy(lengths_.begin(), lengths_.begin() + static_cast<std::ptrdiff_t>(w),
                loads);
      const auto shorter_first = std::greater<>();
      std::make_heap(loads, loads + w, shorter_first);
      for (std::size_t c = w; c < n; ++c) {
        std::pop_heap(loads, loads + w, shorter_first);
        loads[w - 1] += lengths_[c];
        std::push_heap(loads, loads + w, shorter_first);
      }
      std::sort(loads, loads + w);
    }
    const Core& core = *core_;
    const long long soft = core.soft_scan_flops;
    const Cycles si = filled_max(loads, w, soft + core.num_inputs + core.num_bidirs);
    const Cycles so = filled_max(loads, w, soft + core.num_outputs + core.num_bidirs);
    const Cycles p = core.num_patterns;
    return p * (1 + std::max(si, so)) + std::min(si, so);
  }

 private:
  PartitionHeuristic heuristic_;
  const Core* core_ = nullptr;
  std::vector<long long> lengths_;
  std::vector<long long> loads_;
};

}  // namespace

TestTimeTable::TestTimeTable(const Soc& soc, int max_width,
                             PartitionHeuristic heuristic)
    : max_width_(max_width), num_cores_(soc.num_cores()) {
  if (max_width < 1) throw std::invalid_argument("max_width must be >= 1");
  const auto row = static_cast<std::size_t>(max_width);
  times_.resize(num_cores_ * row);
  TimeKernel kernel(max_width, heuristic);
  for (std::size_t i = 0; i < num_cores_; ++i) {
    kernel.load(soc.core(i));
    Cycles* out = times_.data() + i * row;
    out[0] = kernel.time(1);
    for (int w = 2; w <= max_width; ++w) {
      const auto idx = static_cast<std::size_t>(w - 1);
      out[idx] = std::min(kernel.time(w), out[idx - 1]);
    }
  }
  if (obs::enabled()) {
    obs::counter("wrapper.table.builds").add(1);
    obs::counter("wrapper.table.cells").add(static_cast<long long>(times_.size()));
  }
}

std::size_t TestTimeTable::cell(std::size_t core, int width) const {
  if (width < 1 || width > max_width_)
    throw std::out_of_range("width out of table range");
  if (core >= num_cores_) throw std::out_of_range("core out of table range");
  return core * static_cast<std::size_t>(max_width_) +
         static_cast<std::size_t>(width - 1);
}

Cycles TestTimeTable::time(std::size_t core, int width) const {
  return times_[cell(core, width)];
}

int TestTimeTable::effective_width(std::size_t core, int width) const {
  const Cycles target = time(core, width);
  int w = width;
  while (w > 1 && time(core, w - 1) == target) --w;
  return w;
}

std::vector<int> TestTimeTable::pareto_widths(std::size_t core) const {
  std::vector<int> widths{1};
  for (int w = 2; w <= max_width_; ++w) {
    if (time(core, w) < time(core, w - 1)) widths.push_back(w);
  }
  return widths;
}

Cycles TestTimeTable::total_time(int width) const {
  Cycles total = 0;
  for (std::size_t i = 0; i < num_cores_; ++i) total += time(i, width);
  return total;
}

}  // namespace soctest
