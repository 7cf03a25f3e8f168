#pragma once

#include <memory>

#include "bench.hpp"

namespace perfbench {

/// Warm design-space exploration through design_architecture (sweep.cpp).
std::unique_ptr<InProcessWorkload> make_sweep(const Options& options);

/// Screening of never-seen SOCs: parse, table, search, schedule, report
/// (cold.cpp).
std::unique_ptr<InProcessWorkload> make_cold(const Options& options);

/// `serve`: the front door + two workers over TCP, driven closed-loop;
/// `service`: the same request stream through two in-process serial
/// SolveService instances, one per shard (serve.cpp).
RunResult run_serve(const Options& options);

}  // namespace perfbench
