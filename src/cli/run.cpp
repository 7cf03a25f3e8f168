#include "cli/run.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include <fstream>

#include "common/parallel.hpp"
#include "layout/stub_router.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "report/design_report.hpp"
#include "report/run_report.hpp"
#include "report/svg.hpp"
#include "runtime/failpoint.hpp"
#include "runtime/status.hpp"
#include "sched/gantt.hpp"
#include "sched/power_profile.hpp"
#include "sched/power_sched.hpp"
#include "sched/schedule.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"
#include "service/transport.hpp"
#include "soc/builtin.hpp"
#include "soc/soc_format.hpp"
#include "tam/architect.hpp"

namespace soctest {

namespace {

StatusOr<Soc> load_soc(const std::string& name) {
  if (name == "soc1") return builtin_soc1();
  if (name == "soc2") return builtin_soc2();
  if (name == "soc3") return builtin_soc3();
  if (name == "soc4") return builtin_soc4();
  return parse_soc_file(name);
}

/// Exit code for a run that ended without a usable result: why it stopped
/// decides between plain infeasibility and the interruption codes.
int exit_code_for_stop(StopReason stop) {
  switch (stop) {
    case StopReason::kDeadline:
    case StopReason::kCancelled:
      return kExitDeadline;
    case StopReason::kFault:
      return kExitInternal;
    default:
      return kExitInfeasible;
  }
}

/// Disarms CLI-requested failpoints when the run ends, whichever path it
/// takes out of run_cli.
struct FailpointGuard {
  bool armed = false;
  ~FailpointGuard() {
    if (armed) failpoint::disarm_all();
  }
};

/// What the run ledger needs to know about the solve, filled by run_design
/// as a side channel (the CliResult itself is exit code + text only).
struct SolveSummary {
  std::vector<int> widths;
  bool feasible = false;
  std::string status = "error";  ///< overwritten once a certificate exists
  double gap = -1.0;
  long long t_cycles = -1;
  /// search_mode_name() of the winning solve ("serial", "parallel", "-").
  std::string solve_mode = "-";
};

/// The actual design flow; run_cli wraps it with the observability session.
CliResult run_design(const CliOptions& options,
                     SolveSummary* summary = nullptr) {
  CliResult result;
  std::ostringstream out;
  try {
    StatusOr<Soc> loaded = load_soc(options.soc);
    if (!loaded.ok()) {
      out << "error: " << loaded.status().to_string() << "\n";
      result.exit_code = exit_code_for(loaded.status());
      result.output = out.str();
      return result;
    }
    const Soc soc = loaded.take();

    DesignRequest request;
    request.bus_widths = options.widths;
    request.num_buses = options.buses;
    request.total_width = options.total_width;
    request.d_max = options.d_max;
    request.wire_budget = options.wire_budget;
    request.solver = options.solver;
    request.threads = options.threads;
    // With idle insertion, power is handled at the schedule level, so the
    // assignment itself is solved unconstrained in power — and a packed
    // formulation winner would bypass the scheduler, so the race is off.
    if (!options.idle_insertion) request.p_max_mw = options.p_max;
    request.pack_race = !(options.idle_insertion && options.p_max >= 0);
    request.power_mode = options.power_mode;
    request.ate_depth_limit = options.ate_depth;
    if (options.time_limit_ms >= 0) {
      request.deadline = Deadline::after_ms(options.time_limit_ms);
    }

    const DesignResult design = design_architecture(soc, request);
    if (summary != nullptr) {
      summary->widths = design.bus_widths;
      summary->feasible = design.feasible;
      summary->status = solve_status_name(design.certificate.status);
      summary->gap = design.certificate.gap();
      summary->t_cycles =
          design.feasible ? static_cast<long long>(design.assignment.makespan)
                          : -1;
      summary->solve_mode = search_mode_name(design.search_mode);
    }
    if (!options.json) out << describe_design(soc, request, design);
    if (!design.feasible) {
      if (options.json) out << design_report_json(soc, request, design) << "\n";
      result.exit_code = design.certificate.status == SolveStatus::kError
                             ? kExitInternal
                             : exit_code_for_stop(design.stop);
      result.output = out.str();
      return result;
    }

    // Realize the schedule.
    TestSchedule schedule;
    if (!design.pack_placements.empty()) {
      // Packed formulation: the placements already are the schedule. The
      // `bus` field only drives gantt lanes, so time-overlapping tests get
      // distinct lanes by greedy interval coloring (placements arrive
      // sorted by start).
      std::vector<Cycles> lane_free;
      for (const PackPlacement& p : design.pack_placements) {
        int lane = -1;
        for (std::size_t l = 0; l < lane_free.size(); ++l) {
          if (lane_free[l] <= p.start) {
            lane = static_cast<int>(l);
            break;
          }
        }
        if (lane < 0) {
          lane = static_cast<int>(lane_free.size());
          lane_free.push_back(0);
        }
        lane_free[static_cast<std::size_t>(lane)] = p.end;
        schedule.tests.push_back({p.core, lane, p.start, p.end});
        schedule.makespan = std::max(schedule.makespan, p.end);
      }
    } else {
      const TestTimeTable& table = report_time_table(soc, request, design);
      const TamProblem problem = make_tam_problem(
          soc, table, design.bus_widths, nullptr, -1,
          options.idle_insertion ? -1.0 : options.p_max, options.power_mode);
      if (options.idle_insertion && options.p_max >= 0) {
        PowerScheduleOptions sched_options;
        sched_options.p_max_mw = options.p_max;
        // The scheduler shares the run's wall-clock budget (Deadline is an
        // absolute point in time, so solve time already spent counts).
        sched_options.deadline = request.deadline;
        const PowerScheduleResult ps = build_power_aware_schedule(
            problem, soc, design.assignment.core_to_bus, sched_options);
        if (!ps.feasible) {
          out << "idle-insertion scheduling failed: " << ps.error << "\n";
          result.exit_code = exit_code_for_stop(ps.stop);
          result.output = out.str();
          return result;
        }
        schedule = ps.schedule;
        if (!options.json) {
          out << "idle-insertion schedule: makespan " << schedule.makespan
              << " cycles (" << ps.idle_inserted
              << " idle bus-cycles inserted)\n";
        }
      } else {
        schedule = build_schedule(problem, design.assignment.core_to_bus);
      }
    }
    if (options.p_max >= 0 && !options.json) {
      const double peak = compute_power_profile(soc, schedule).peak();
      out << "schedule peak power: " << peak << " mW (budget " << options.p_max
          << " mW) -> "
          << (check_power(soc, schedule, options.p_max).empty() ? "OK"
                                                                : "VIOLATION")
          << "\n";
    }
    if (options.json) {
      out << design_report_json(soc, request, design, &schedule) << "\n";
    }
    if (options.gantt) out << "\n" << render_gantt(soc, schedule);
    if (!options.svg_path.empty()) {
      if (!soc.has_placement()) {
        out << "error: --svg requires a placed SOC\n";
        result.exit_code = 2;
        result.output = out.str();
        return result;
      }
      std::optional<BusPlan> plan;
      std::optional<StubRoutes> stubs;
      if (design.bus_plan) {
        plan = design.bus_plan;
        stubs = route_stubs(soc, *plan, design.assignment.core_to_bus);
      }
      if (failpoint::armed() &&
          failpoint::hit(failpoint::sites::kReportWrite)) {
        const Status st =
            fault_injected_error("injected fault writing " + options.svg_path);
        out << "error: " << st.to_string() << "\n";
        result.exit_code = exit_code_for(st);
        result.output = out.str();
        return result;
      }
      std::ofstream svg_file(options.svg_path);
      if (!svg_file) {
        const Status st = io_error("cannot write " + options.svg_path);
        out << "error: " << st.to_string() << "\n";
        result.exit_code = exit_code_for(st);
        result.output = out.str();
        return result;
      }
      svg_file << render_floorplan_svg(soc, plan ? &*plan : nullptr,
                                       stubs ? &*stubs : nullptr);
      if (!options.json) out << "wrote " << options.svg_path << "\n";
    }
  } catch (const std::invalid_argument& e) {
    out << "error: " << e.what() << "\n";
    result.exit_code = kExitUsage;
  } catch (const std::bad_alloc&) {
    out << "error: out of memory\n";
    result.exit_code = kExitInternal;
  } catch (const std::runtime_error& e) {
    // The architect throws std::runtime_error for structurally infeasible
    // constraint sets (unconnectable core, over-budget core power).
    out << "error: " << e.what() << "\n";
    result.exit_code = kExitInfeasible;
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    result.exit_code = kExitInternal;
  }
  result.output = out.str();
  return result;
}

/// Deterministic trace id for the index-th sampled request of a client
/// batch: content-derived (same batch position → same id across reruns),
/// never wall-clock or random, so chaos-gate trace merges byte-compare.
std::string client_trace_id(std::size_t index) {
  return trace_span_guid("soctest-client-batch", std::to_string(index));
}

/// Stamps the trace context for trace_id onto a batch line: the line is
/// parsed and re-serialized canonically with a `trace` object whose
/// parent_span names the retry layer's client.request root span. A line
/// that does not parse (or already carries a trace) passes through
/// verbatim — the server owns rejecting it.
std::string stamp_request_line(const std::string& line,
                               const std::string& trace_id) {
  StatusOr<ServiceRequest> parsed = parse_request(line);
  if (!parsed.ok() || !parsed.value().trace_id.empty()) return line;
  ServiceRequest request = parsed.take();
  request.trace_id = trace_id;
  request.trace_parent = trace_span_guid(trace_id, "client.request");
  return request_json(request);
}

/// Client mode: ship the work to a running soctest-serve or
/// soctest-frontdoor (Unix socket or HOST:PORT) and relay the response
/// lines (docs/service.md). Streamed soctest-partial-v1 records may
/// interleave with finals, and a concurrent server answers out of order,
/// so completeness is judged by matching final ids against request ids —
/// never by comparing line counts.
CliResult run_client(const CliOptions& options) {
  CliResult result;
  std::vector<std::string> lines;
  if (!options.batch_path.empty()) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (options.batch_path != "-") {
      file.open(options.batch_path);
      if (!file) {
        const Status st = io_error("cannot read " + options.batch_path);
        result.output = "error: " + st.to_string() + "\n";
        result.exit_code = exit_code_for(st);
        return result;
      }
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    if (options.trace_sample > 0) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i % static_cast<std::size_t>(options.trace_sample) != 0) continue;
        lines[i] = stamp_request_line(lines[i], client_trace_id(i));
      }
    }
  } else {
    ServiceRequest request;
    request.id = "cli";
    request.soc = options.soc;
    request.widths = options.widths;
    request.buses = options.buses;
    request.total_width = options.total_width;
    request.d_max = options.d_max;
    request.wire_budget = options.wire_budget;
    request.p_max = options.p_max;
    request.power_mode = options.power_mode;
    request.ate_depth = options.ate_depth;
    request.solver = options.solver;
    request.threads = options.threads;
    request.time_limit_ms = options.time_limit_ms;
    request.stream = options.stream;
    if (options.trace_sample > 0) {
      request.trace_id = client_trace_id(0);
      request.trace_parent =
          trace_span_guid(request.trace_id, "client.request");
    }
    lines.push_back(request_json(request));
  }

  RetryPolicy policy;
  policy.max_attempts = options.retries + 1;
  policy.base_backoff_ms = options.retry_backoff_ms;
  policy.response_timeout_ms = options.response_timeout_ms;
  RetryingClient client(options.client_socket, policy);
  StatusOr<std::vector<std::string>> responses = client.run_batch(lines);
  if (!responses.ok()) {
    result.output = "error: " + responses.status().to_string() + "\n";
    result.exit_code = exit_code_for(responses.status());
    return result;
  }
  std::ostringstream out;
  for (const std::string& line : responses.value()) out << line << "\n";
  const ClientBatchSummary summary =
      summarize_client_batch(lines, responses.value());
  const RetryStats& rs = client.stats();
  if (!options.batch_path.empty()) {
    // Batch summary: answered counts plus what the retry layer did to get
    // them. Fault-free this line is deterministic (attempts = requests,
    // everything else 0), so byte-compare gates stay byte-identical.
    out << "client: " << summary.finals << "/" << summary.requests
        << " answered, " << summary.partials << " partials, attempts="
        << rs.attempts << " retries=" << rs.retries << " reconnects="
        << rs.reconnects << " backoff_ms="
        << static_cast<long long>(rs.backoff_ms + 0.5) << " gave_up="
        << rs.gave_up << "\n";
  }
  if (!summary.missing_ids.empty()) {
    const Status st = io_error(
        "server answered " + std::to_string(summary.finals) + " of " +
        std::to_string(summary.requests) + " requests");
    out << "error: " << st.to_string() << "\n";
    result.exit_code = exit_code_for(st);
  } else if (rs.gave_up > 0) {
    // Every request has *a* final, but gave_up of them are synthesized
    // retry-budget errors; the exit code must not claim success.
    const Status st = io_error("client gave up on " +
                               std::to_string(rs.gave_up) + " request(s)");
    out << "error: " << st.to_string() << "\n";
    result.exit_code = exit_code_for(st);
  }
  result.output = out.str();
  return result;
}

}  // namespace

CliResult run_cli(const CliOptions& options) {
  if (options.help) {
    CliResult result;
    result.output = cli_usage();
    return result;
  }
  const bool client_mode = !options.client_socket.empty();

  FailpointGuard failpoint_guard;
  if (!client_mode && !options.failpoints.empty()) {
    const Status st = failpoint::arm(options.failpoints);
    if (!st.ok()) {
      CliResult result;
      result.output = "error: " + st.to_string() + "\n" + cli_usage();
      result.exit_code = kExitUsage;
      return result;
    }
    failpoint_guard.armed = true;
  }

  // Profiles fold the trace, so any --profile* flag implies a live sink;
  // the ledger only needs counters, so on its own it runs a null-sink
  // session (same as --metrics without --trace). Client mode never writes
  // the solve ledger — the solve (and its record) happens server-side.
  const std::string ledger_path =
      client_mode ? std::string()
                  : (options.ledger_path.empty() ? obs::ledger_path_from_env()
                                                 : options.ledger_path);
  const bool profiling = options.profile ||
                         !options.profile_json_path.empty() ||
                         !options.profile_folded_path.empty();
  const bool tracing = profiling || !options.trace_path.empty() ||
                       !options.trace_chrome_path.empty();
  if (!tracing && !options.metrics && ledger_path.empty()) {
    // The untraced fast path: no sink, no session, no span bookkeeping.
    return client_mode ? run_client(options) : run_design(options);
  }

  // One sink/session per CLI run; a null sink collects counters only.
  obs::TraceSink sink;
  obs::TraceSession session(tracing ? &sink : nullptr);
  CliResult result;
  SolveSummary summary;
  const auto wall_start = std::chrono::steady_clock::now();
  if (client_mode) {
    // No cli.run root span: the client's spans (client.request /
    // client.attempt, recorded by the retry layer) must stay roots so the
    // cross-process guid links are the only parentage trace-merge sees.
    result = run_client(options);
  } else {
    obs::Span root("cli.run", {{"soc", options.soc}});
    result = run_design(options, &summary);
    if (root.active()) root.arg({"exit_code", result.exit_code});
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  auto write_file = [&](const std::string& path, const std::string& body) {
    Status st = Status::Ok();
    if (failpoint::armed() && failpoint::hit(failpoint::sites::kReportWrite)) {
      st = fault_injected_error("injected fault writing " + path);
    }
    if (st.ok()) {
      std::ofstream file(path);
      if (file) {
        file << body << "\n";
        return;
      }
      st = io_error("cannot write " + path);
    }
    result.output += "error: " + st.to_string() + "\n";
    result.exit_code = exit_code_for(st);
  };
  if (!options.trace_path.empty()) {
    write_file(options.trace_path,
               trace_json(sink, client_mode ? "client" : "cli"));
  }
  if (!options.trace_chrome_path.empty()) {
    write_file(options.trace_chrome_path, chrome_trace_json(sink));
  }
  if (profiling) {
    const obs::Profile profile = obs::build_profile(sink);
    if (options.profile) {
      result.output += profile_text(profile, options.profile_top);
    }
    if (!options.profile_json_path.empty()) {
      write_file(options.profile_json_path, profile_json(profile));
    }
    if (!options.profile_folded_path.empty()) {
      // folded_stacks already ends each line with '\n'; avoid a blank tail.
      std::string folded = obs::folded_stacks(sink);
      if (!folded.empty() && folded.back() == '\n') folded.pop_back();
      write_file(options.profile_folded_path, folded);
    }
  }
  if (options.metrics) {
    result.output += options.json ? metrics_json() + "\n" : metrics_text();
  }
  if (!ledger_path.empty()) {
    obs::LedgerRecord record;
    record.soc = options.soc;
    record.widths = summary.widths;
    record.solver = inner_solver_name(options.solver);
    record.threads_configured = options.threads;
    record.threads_effective = resolve_thread_count(options.threads);
    record.feasible = summary.feasible;
    record.status = summary.status;
    record.gap = summary.gap;
    record.t_cycles = summary.t_cycles;
    record.solve_mode = summary.solve_mode;
    record.wall_ms = wall_ms;
    record.exit_code = result.exit_code;
    obs::fill_ledger_counters(record);
    Status st = Status::Ok();
    if (failpoint::armed() && failpoint::hit(failpoint::sites::kReportWrite)) {
      st = fault_injected_error("injected fault writing " + ledger_path);
    }
    std::string io_message;
    if (st.ok() && !obs::append_ledger_record(ledger_path, record, &io_message)) {
      st = io_error("cannot append ledger record: " + io_message);
    }
    if (!st.ok()) {
      result.output += "error: " + st.to_string() + "\n";
      result.exit_code = exit_code_for(st);
    }
  }
  return result;
}

}  // namespace soctest
