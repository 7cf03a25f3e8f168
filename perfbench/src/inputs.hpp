#pragma once

// Seeded input generation shared by the workloads.

#include <cstdint>
#include <string>

#include "soc/soc.hpp"

namespace perfbench {

/// splitmix64 of (seed, k): independent generator seeds per input.
std::uint64_t mix(std::uint64_t seed, std::uint64_t k);

/// A placed random SOC of `num_cores` cores in the parameter ranges of
/// soctest's generate_soc, drawn by stratified sampling: each per-core
/// parameter takes one value from each of `num_cores` equal slices of its
/// range, shuffled across the cores by the seed. Seeds then change which
/// core gets which values, while the per-SOC totals, and so the solve
/// costs and test times, stay close from seed to seed.
soctest::Soc stratified_soc(int num_cores, std::uint64_t seed);

/// The SOC as .soc text without its leading "soc <name>" token, so that a
/// caller can prepend a name of its own.
std::string unnamed_soc_text(const soctest::Soc& soc);

}  // namespace perfbench
