#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "soc/generator.hpp"
#include "soc/soc_format.hpp"

namespace perfbench {

using namespace soctest;

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

/// One value from each of n equal slices of [lo, hi], in seeded order.
std::vector<double> strata(int n, double lo, double hi, Rng& rng) {
  std::vector<double> v;
  for (int k = 0; k < n; ++k) v.push_back(lo + (hi - lo) * (k + rng.uniform01()) / n);
  rng.shuffle(v);
  return v;
}

}  // namespace

Soc stratified_soc(int n, std::uint64_t seed) {
  Rng rng(seed);
  const SocGeneratorOptions o;
  const auto inputs = strata(n, o.min_inputs, o.max_inputs, rng);
  const auto outputs = strata(n, o.min_outputs, o.max_outputs, rng);
  const auto patterns = strata(n, o.min_patterns, o.max_patterns, rng);
  const auto power = strata(n, o.min_power_mw, o.max_power_mw, rng);
  const auto chains = strata(n, o.min_chains, o.max_chains, rng);
  const auto chain_len = strata(n, o.min_chain_length, o.max_chain_length, rng);
  // Exactly the generator's share of combinational cores.
  const auto combinational =
      static_cast<int>(std::lround(o.combinational_fraction * n));
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  Soc soc("random", 1, 1);
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    Core core;
    core.name = "core" + std::to_string(i);
    core.num_inputs = static_cast<int>(inputs[k]);
    core.num_outputs = static_cast<int>(outputs[k]);
    core.num_patterns = static_cast<int>(patterns[k]);
    core.test_power_mw = std::round(power[k]);
    if (order[k] >= combinational) {
      const int count = static_cast<int>(chains[k]);
      // Chain lengths vary around the core's stratum by +-25%.
      for (int c = 0; c < count; ++c) {
        core.scan_chain_lengths.push_back(static_cast<int>(
            std::lround(chain_len[k] * rng.uniform(0.75, 1.25))));
      }
    }
    const int volume =
        core.total_scan_flops() + core.num_inputs + core.num_outputs;
    const int side =
        std::max(3, static_cast<int>(std::lround(std::sqrt(volume / 12.0))));
    core.width = side;
    core.height = std::max(3, side + static_cast<int>(rng.uniform_int(-1, 1)));
    soc.add_core(std::move(core));
  }
  shelf_place(soc, o.channel);
  const std::string err = soc.validate();
  if (!err.empty()) throw std::logic_error("generated SOC invalid: " + err);
  return soc;
}

std::string unnamed_soc_text(const Soc& soc) {
  const std::string text = write_soc(soc);
  return text.substr(text.find(' ', 4));
}

}  // namespace perfbench
