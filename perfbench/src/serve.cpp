// serve: the production topology. soctest-frontdoor shards requests over
// two single-thread soctest-serve workers on TCP; this process drives it
// closed-loop over two connections, because callers of the service wait for
// their replies. Connection c carries the requests of worker shard c, so no
// request waits in a worker behind the other connection's.
//
// A round is 20 requests (see SlotKind): 4 cache hits, 14 repeat misses
// (cache miss, memo hit, solve, cache insert) and 2 new misses (parse, table
// build, solve, cache and memo insert). Hits are 20% and the costliest new
// misses 10% of the requests, so p50 sits inside the repeat-miss mode and
// p95 inside the new-miss mode, away from the boundaries between modes; and
// solves, not process wake-ups, set the pace, which keeps the figures
// steady on a loaded host.

#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "common/net.hpp"
#include "report/json.hpp"
#include "service/frontdoor.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "soc/builtin.hpp"
#include "soc/soc_format.hpp"
#include "tam/architect.hpp"
#include "tam/timing.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace soctest;

namespace {

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr std::size_t kRound = 20;
constexpr int kMissCores = 24;
/// Fleet RSS is read after this many rounds (see kRssRounds).
constexpr long long kRssServeRounds = 100;
constexpr std::size_t kBlockRounds = 25;

/// What a round slot sends. Hits: a built-in SOC, answered from the result
/// cache (set-up solved it once). Repeat misses: one of 14 fixed SOCs with
/// the round number as request seed, which is part of the cache key and no
/// solve input, so the worker misses the cache, finds the table in its memo
/// and solves. New misses: a SOC renamed every round, so the worker also
/// parses it, builds its table and grows its memo; the second one streams
/// partial results.
enum class SlotKind { kHit, kRepeatMiss, kNewMiss };

SlotKind slot_kind(std::size_t slot) {
  if (slot % 5 == 0) return SlotKind::kHit;             // 0, 5, 10, 15
  if (slot % 10 == 7) return SlotKind::kNewMiss;        // 7, 17
  return SlotKind::kRepeatMiss;
}

/// Index of a slot among the round's slots of its kind.
std::size_t kind_index(std::size_t slot) {
  std::size_t k = 0;
  for (std::size_t s = 0; s < slot; ++s) k += slot_kind(s) == slot_kind(slot);
  return k;
}

constexpr std::size_t kHot = 4;
constexpr std::size_t kRepeatMisses = 14;
constexpr std::size_t kNewMisses = 2;

// Exact requests name explicit widths: the service runs every exact solve
// as a portfolio race, and on a width search that race loses its
// certificate (stop=cancelled), which the result cache refuses to store.

/// Hot request k: built-in SOC k+1 on explicit widths 16,8,8, exact.
ServiceRequest hot_request(std::size_t k) {
  ServiceRequest r;
  r.soc = "soc" + std::to_string(k + 1);
  r.widths = {16, 8, 8};
  r.solver = InnerSolver::kExact;
  return r;
}

/// Every miss is a greedy three-bus width search at W=32.
void miss_shape(ServiceRequest& r) {
  r.buses = 3;
  r.total_width = 32;
  r.solver = InnerSolver::kGreedy;
}

/// The part of a final response that the cache must reproduce.
struct Answer {
  bool ok = false;
  bool feasible = false;
  std::string status;
  std::string stop;
  std::vector<int> widths;
  long long t_cycles = -1;
  long long lower_bound = -1;
  double gap = -1;
  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer answer_of(const JsonValue& v) {
  Answer a;
  const JsonValue* ok = v.find("ok");
  a.ok = ok && ok->is_bool() && ok->boolean;
  const JsonValue* feasible = v.find("feasible");
  a.feasible = feasible && feasible->is_bool() && feasible->boolean;
  a.status = v.string_or("status", "");
  a.stop = v.string_or("stop", "");
  if (const JsonValue* w = v.find("widths")) {
    for (const auto& item : w->items) a.widths.push_back(static_cast<int>(item.number));
  }
  a.t_cycles = static_cast<long long>(v.number_or("t_cycles", -1));
  a.lower_bound = static_cast<long long>(v.number_or("lower_bound", -1));
  a.gap = v.number_or("gap", -1);
  return a;
}

/// One request as sent and answered.
struct Exchange {
  std::string id;
  std::size_t slot = 0;  ///< position in the round
  int conn = 0;          ///< the connection, = the worker shard it goes to
  bool stream = false;
  std::string line;
  Clock::time_point sent;
  double rtt_ms = -1;
  int finals = 0;
  std::vector<long long> partial_t;
  bool cached = false;
  double queue_ms = 0;
  double wall_ms = 0;
  Answer answer;
  std::string final_line;
};

/// A running soctest-frontdoor and its workers.
class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { kill_all(); }

  void start(const Options& options, const std::string& dir,
             const std::string& trace_dir) {
    std::vector<std::string> args = {
        options.bin_dir + "/soctest-frontdoor", "--listen", "127.0.0.1:0",
        "--workers", "2", "--worker-threads", "1", "--dir", dir};
    if (!trace_dir.empty()) {
      args.push_back("--trace-dir");
      args.push_back(trace_dir);
    }
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Should this process die first, the front door drains and exits.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::dup2(fds[1], STDOUT_FILENO);
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // "soctest-frontdoor: listening on HOST:PORT"
    std::string text;
    const auto start = Clock::now();
    while (text.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (ms_since(start) > 20000 || ::poll(&p, 1, 1000) < 0) break;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0 && p.revents) break;
      if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    }
    const std::string marker = "listening on ";
    const auto at = text.find(marker);
    if (at == std::string::npos) {
      throw std::runtime_error("soctest-frontdoor did not announce its port");
    }
    const std::string endpoint = text.substr(at + marker.size(),
                            text.find('\n', at) - at - marker.size());
    for (int c = 0; c < kConnections; ++c) {
      auto ep = net::parse_endpoint(endpoint);
      if (!ep.ok()) throw std::runtime_error(ep.status().message());
      auto fd = net::connect_endpoint(ep.value());
      if (!fd.ok()) throw std::runtime_error(fd.status().message());
      net::set_tcp_nodelay(fd.value());
      conns_.push_back(fd.value());
    }
  }

  const std::vector<int>& conns() const { return conns_; }

  /// Worker processes: the front door's children.
  std::vector<pid_t> workers() const {
    std::vector<pid_t> out;
    DIR* proc = ::opendir("/proc");
    if (proc == nullptr) return out;
    while (const dirent* e = ::readdir(proc)) {
      const pid_t pid = static_cast<pid_t>(std::atoi(e->d_name));
      if (pid <= 0) continue;
      std::ifstream stat("/proc/" + std::string(e->d_name) + "/stat");
      std::string line;
      std::getline(stat, line);
      const auto close = line.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream rest(line.substr(close + 2));
      char state = 0;
      long ppid = 0;
      rest >> state >> ppid;
      if (ppid == pid_) out.push_back(pid);
    }
    ::closedir(proc);
    return out;
  }

  double rss_mb() const {
    double total = peak_rss_mb(pid_);
    for (pid_t w : workers()) total += peak_rss_mb(w);
    return total;
  }

  /// SIGTERM drain: the front door must exit 0 and leave no worker behind.
  void drain(Errors& errors) {
    if (pid_ <= 0) return;
    const std::vector<pid_t> workers_before = workers();
    for (int fd : conns_) ::close(fd);
    conns_.clear();
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto start = Clock::now();
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 && ms_since(start) < 30000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (reaped != pid_) {
      errors.push_back("serve: front door did not drain within 30 s");
      kill_all();
      return;
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      errors.push_back("serve: front door drain exit status " + std::to_string(status));
    }
    if (workers_before.size() != 2) {
      errors.push_back("serve: expected 2 workers, saw " +
                       std::to_string(workers_before.size()));
    }
    for (pid_t w : workers_before) {
      const auto wait_start = Clock::now();
      while (::kill(w, 0) == 0 && ms_since(wait_start) < 5000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (::kill(w, 0) == 0) {
        errors.push_back("serve: worker " + std::to_string(w) + " left running");
        ::kill(w, SIGKILL);
      }
    }
    ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  void kill_all() {
    for (int fd : conns_) ::close(fd);
    conns_.clear();
    if (pid_ > 0) {
      for (pid_t w : workers()) ::kill(w, SIGKILL);
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::vector<int> conns_;
};

/// Closed-loop client over the fleet's connections.
class Serve {
 public:
  explicit Serve(const Options& options) : options_(options) {}

  void setup(const std::string& trace_dir) {
    // Repeat-miss SOCs are named so that SOC j lands on shard j % 2; the
    // new-miss SOCs are named per round (see phase()).
    repeat_text_.clear();
    new_text_.clear();
    for (std::size_t j = 0; j < kRepeatMisses; ++j) {
      const std::string body = unnamed_soc_text(
          stratified_soc(kMissCores, mix(options_.seed, 5000 + j)));
      ServiceRequest r;
      for (int k = 0;; ++k) {
        r.soc_text = "soc repeat" + std::to_string(j) + "-" + std::to_string(k) + body;
        if (shard_for_line(request_json(r), kWorkers) == static_cast<int>(j % 2)) break;
      }
      repeat_text_.push_back(r.soc_text);
    }
    for (std::size_t i = 0; i < kNewMisses; ++i) {
      new_text_.push_back(unnamed_soc_text(
          stratified_soc(kMissCores, mix(options_.seed, 6000 + i))));
    }
    if (options_.workload == "service") {
      // One serial SolveService per shard, as the fleet has one worker per
      // shard: the same caches see the same requests, minus transport. The
      // table memo starts empty, as a fresh worker's does.
      test_time_table_memo().clear();
      ServiceConfig config;
      config.serial = true;
      for (int w = 0; w < kWorkers; ++w) {
        services_.push_back(std::make_unique<SolveService>(config));
      }
    } else {
      ::mkdir(options_.work_dir.c_str(), 0755);
      fleet_ = std::make_unique<Fleet>();
      fleet_->start(options_, options_.work_dir + "/fleet" + std::to_string(fleets_++),
                    trace_dir);
    }
    // Warm the hot set: these first answers are the uncached ones.
    std::vector<Exchange> warm;
    for (std::size_t k = 0; k < kHot; ++k) {
      Exchange x;
      x.slot = k;
      ServiceRequest r = hot_request(k);
      r.id = "warm-" + std::to_string(k);
      x.id = r.id;
      x.line = request_json(r);
      x.conn = shard_for_line(x.line, kWorkers) % kConnections;
      warm.push_back(std::move(x));
    }
    exchange(warm, 0, warm.size());
    for (std::size_t k = 0; k < kHot; ++k) {
      if (warm[k].cached) errors_.push_back("serve: warm-up answer came from the cache");
      if (!warm[k].answer.ok) errors_.push_back("serve: warm-up request failed");
      hot_uncached_[k] = warm[k].answer;
    }
  }

  void drain() {
    if (fleet_) fleet_->drain(errors_);
    fleet_.reset();
    services_.clear();
  }

  /// Peak RSS of the fleet, or of this process for the in-process variant.
  double current_rss_mb() const {
    return fleet_ ? fleet_->rss_mb() : peak_rss_mb(::getpid());
  }

  /// Runs whole rounds for `seconds` of wall time; returns the exchanges.
  /// Also reads the fleet's RSS after kRssServeRounds rounds (or at the end).
  std::vector<Exchange> phase(double seconds, bool traced, double* wall_s) {
    std::vector<Exchange> all;
    rss_mb_ = 0.0;
    round_end_s_.clear();
    const long long first_round = rounds_;
    const auto start = Clock::now();
    while (ms_since(start) < seconds * 1000.0) {
      if (rounds_ - first_round == kRssServeRounds) rss_mb_ = current_rss_mb();
      const std::size_t first = all.size();
      for (std::size_t slot = 0; slot < kRound; ++slot) {
        Exchange x;
        x.slot = slot;
        const std::size_t k = kind_index(slot);
        ServiceRequest r;
        switch (slot_kind(slot)) {
          case SlotKind::kHit:
            r = hot_request(k);
            break;
          case SlotKind::kRepeatMiss:
            miss_shape(r);
            r.soc_text = repeat_text_[k];
            r.seed = static_cast<std::uint64_t>(rounds_) + 1;
            break;
          case SlotKind::kNewMiss:
            miss_shape(r);
            r.stream = k == 1;
            // Drawn until it lands on shard k, so each worker gets one.
            for (int n = 0;; ++n) {
              r.soc_text = "soc new" + std::to_string(rounds_) + "-" + std::to_string(n);
              r.soc_text += new_text_[k];
              if (shard_for_line(request_json(r), kWorkers) == static_cast<int>(k)) break;
            }
            break;
        }
        r.id = "r";
        r.id += std::to_string(rounds_) + "-" + std::to_string(slot);
        // Two repeat misses per round carry a trace context: enough relay
        // spans for the median of the mode p50 sits in, without a merged
        // trace of every request.
        if (traced && (slot == 1 || slot == 11)) r.trace_id = trace_span_guid(r.id, "perfbench");
        x.line = request_json(r);
        x.conn = shard_for_line(x.line, kWorkers) % kConnections;
        x.id = r.id;
        x.stream = r.stream;
        all.push_back(std::move(x));
      }
      ++rounds_;
      exchange(all, first, all.size());
      round_end_s_.push_back(ms_since(start) / 1000.0);
    }
    *wall_s = ms_since(start) / 1000.0;
    if (rss_mb_ == 0.0) rss_mb_ = current_rss_mb();
    return all;
  }

  double rss_mb() const { return rss_mb_; }

  /// Requests per second of each block of kBlockRounds rounds of the last
  /// phase: a round alone is too short to time.
  std::vector<double> block_per_s() const {
    std::vector<double> out;
    double start = 0.0;
    for (std::size_t r = kBlockRounds; r <= round_end_s_.size(); r += kBlockRounds) {
      const double end = round_end_s_[r - 1];
      out.push_back(static_cast<double>(kBlockRounds * kRound) / (end - start));
      start = end;
    }
    return out;
  }

  /// Checks every exchange of a phase against the in-process design flow
  /// and the warm-up answers.
  void check(const std::vector<Exchange>& all) {
    for (const Exchange& x : all) {
      const std::string where = "serve request slot " + std::to_string(x.slot);
      if (x.finals != 1) {
        errors_.push_back(where + ": " + std::to_string(x.finals) + " finals");
        continue;
      }
      if (!x.answer.ok || !x.answer.feasible) {
        errors_.push_back(where + ": failed response");
        continue;
      }
      if (!x.stream && !x.partial_t.empty()) errors_.push_back(where + ": unrequested partials");
      for (std::size_t p = 1; p < x.partial_t.size(); ++p) {
        if (x.partial_t[p] >= x.partial_t[p - 1]) errors_.push_back(where + ": partials not improving");
      }
      if (!x.partial_t.empty() && x.answer.t_cycles > x.partial_t.back()) {
        errors_.push_back(where + ": final worse than its last partial");
      }
      const DesignResult& ref = reference(x.slot);
      if (x.answer.t_cycles != static_cast<long long>(ref.assignment.makespan) ||
          x.answer.widths != ref.bus_widths ||
          x.answer.status != solve_status_name(ref.certificate.status)) {
        errors_.push_back(where + ": answer " + x.final_line +
                          " but design_architecture gives T=" +
                          std::to_string(ref.assignment.makespan) + " status " +
                          solve_status_name(ref.certificate.status));
      }
      if (slot_kind(x.slot) == SlotKind::kHit) {
        if (!x.cached) errors_.push_back(where + ": hot request missed the cache: " + x.final_line);
        if (!(x.answer == hot_uncached_[kind_index(x.slot)])) {
          errors_.push_back(where + ": cached answer differs from the uncached one");
        }
      } else if (x.cached) {
        errors_.push_back(where + ": distinct SOC answered from the cache");
      }
    }
  }

  Errors& errors() { return errors_; }

 private:
  /// In-process design_architecture result for the request of a round slot
  /// (the SOC name a round gives its misses is not a solve input).
  const DesignResult& reference(std::size_t slot) {
    auto it = reference_.find(slot);
    if (it != reference_.end()) return it->second;
    const std::size_t k = kind_index(slot);
    ServiceRequest r;
    Soc soc;
    switch (slot_kind(slot)) {
      case SlotKind::kHit: {
        r = hot_request(k);
        const Soc builtins[] = {builtin_soc1(), builtin_soc2(), builtin_soc3(), builtin_soc4()};
        soc = builtins[k];
        break;
      }
      case SlotKind::kRepeatMiss:
        soc = read_soc_string(repeat_text_[k]);
        miss_shape(r);
        break;
      case SlotKind::kNewMiss:
        soc = read_soc_string("soc check" + new_text_[k]);
        miss_shape(r);
        break;
    }
    DesignRequest d;
    d.bus_widths = r.widths;
    d.num_buses = r.buses;
    d.total_width = r.total_width;
    d.solver = r.solver;
    return reference_.emplace(slot, design_architecture(soc, d)).first->second;
  }

  /// Files one response line under its exchange; true when it was the
  /// final.
  bool answer_line(Exchange& x, const std::string& line) {
    const auto v = parse_json(line);
    if (!v) {
      errors_.push_back("serve: unparseable line " + line.substr(0, 120));
      return false;
    }
    const std::string id = v->string_or("id", "");
    if (id != x.id) {
      errors_.push_back("serve: answer for id " + id + " while " + x.id + " is open");
      return false;
    }
    if (v->string_or("schema", "") == kPartialSchema) {
      x.partial_t.push_back(static_cast<long long>(v->number_or("t_cycles", -1)));
      return false;
    }
    x.rtt_ms = ms_since(x.sent);
    ++x.finals;
    x.answer = answer_of(*v);
    x.final_line = line;
    const JsonValue* cached = v->find("cached");
    x.cached = cached && cached->is_bool() && cached->boolean;
    x.queue_ms = v->number_or("queue_ms", 0);
    x.wall_ms = v->number_or("wall_ms", 0);
    if (obs::enabled()) {
      const double end_us = obs::current_sink()->now_us();
      obs::emit_span("bench.service.rtt", end_us - x.rtt_ms * 1000.0,
                     x.rtt_ms * 1000.0, {{"id", id}});
    }
    return true;
  }

  /// The in-process variant of exchange(): each request goes through
  /// SolveService::submit of its shard's serial service, on this thread.
  void exchange_in_process(std::vector<Exchange>& xs, std::size_t first,
                           std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      Exchange& x = xs[i];
      SolveService& service = *services_[static_cast<std::size_t>(
          shard_for_line(x.line, kWorkers))];
      x.sent = Clock::now();
      service.submit(
          x.line, [&](std::string line) { answer_line(x, line); },
          [&](std::string line) { answer_line(x, line); });
    }
  }

  /// Sends exchanges [first, last) closed-loop: each connection carries one
  /// request at a time, in order, and sends its next once its final arrives.
  /// Connection c carries the requests of worker shard c, so a request
  /// never queues in a single-thread worker behind the other connection's.
  void exchange(std::vector<Exchange>& xs, std::size_t first, std::size_t last) {
    if (!fleet_) return exchange_in_process(xs, first, last);
    const std::vector<int>& conns = fleet_->conns();
    std::vector<long> busy(conns.size(), -1);
    std::vector<std::string> inbuf(conns.size());
    std::vector<std::vector<std::size_t>> queue(conns.size());
    for (std::size_t i = last; i-- > first;) {
      queue[static_cast<std::size_t>(xs[i].conn)].push_back(i);
    }
    std::size_t done = 0;
    const auto send = [&](std::size_t c) {
      if (queue[c].empty()) return;
      Exchange& x = xs[queue[c].back()];
      busy[c] = static_cast<long>(queue[c].back());
      queue[c].pop_back();
      x.sent = Clock::now();
      const std::string line = x.line + "\n";
      if (!net::write_all(conns[c], line.data(), line.size())) {
        throw std::runtime_error("serve: connection lost while sending");
      }
    };
    for (std::size_t c = 0; c < conns.size(); ++c) send(c);
    std::vector<pollfd> fds(conns.size());
    while (done < last - first) {
      for (std::size_t c = 0; c < conns.size(); ++c) fds[c] = {conns[c], POLLIN, 0};
      if (::poll(fds.data(), fds.size(), 60000) <= 0) {
        throw std::runtime_error("serve: no response within 60 s");
      }
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        char buf[65536];
        const ssize_t n = ::read(conns[c], buf, sizeof buf);
        if (n <= 0) throw std::runtime_error("serve: connection closed by the fleet");
        inbuf[c].append(buf, static_cast<std::size_t>(n));
        std::size_t eol;
        while ((eol = inbuf[c].find('\n')) != std::string::npos) {
          const std::string line = inbuf[c].substr(0, eol);
          inbuf[c].erase(0, eol + 1);
          if (busy[c] < 0) {
            errors_.push_back("serve: unexpected line " + line.substr(0, 120));
            continue;
          }
          if (!answer_line(xs[static_cast<std::size_t>(busy[c])], line)) continue;
          ++done;
          busy[c] = -1;
          send(c);
        }
      }
    }
  }

  Options options_;
  std::unique_ptr<Fleet> fleet_;  ///< null for the in-process variant
  std::vector<std::unique_ptr<SolveService>> services_;
  int fleets_ = 0;
  long long rounds_ = 0;
  double rss_mb_ = 0.0;
  std::vector<double> round_end_s_;
  std::vector<std::string> repeat_text_;  ///< full .soc texts, named
  std::vector<std::string> new_text_;     ///< without the "soc <name>" token
  std::map<std::size_t, Answer> hot_uncached_;
  std::map<std::size_t, DesignResult> reference_;
  Errors errors_;
};

PhaseStats stats_of(const std::vector<Exchange>& xs, double wall_s,
                    std::vector<double> block_per_s) {
  PhaseStats s;
  s.round_per_s = std::move(block_per_s);
  if (s.round_per_s.empty()) s.round_per_s.push_back(static_cast<double>(xs.size()) / wall_s);
  for (const Exchange& x : xs) {
    s.latency_ms.push_back(x.rtt_ms);
    s.makespans.push_back(x.answer.t_cycles);
    ++s.attempted;
  }
  s.busy_s = wall_s;
  return s;
}

/// Median duration of the front door's relay spans in a merged
/// Chrome-format trace; 0 when none.
double relay_median_ms(const std::string& merged_path) {
  std::ifstream in(merged_path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = parse_json(text.str());
  std::vector<double> relay;
  if (doc) {
    if (const JsonValue* events = doc->find("traceEvents")) {
      for (const auto& e : events->items) {
        if (e.string_or("name", "") == "frontdoor.relay") {
          relay.push_back(e.number_or("dur", 0) / 1000.0);
        }
      }
    }
  }
  return median(relay);
}

}  // namespace

RunResult run_serve(const Options& options) {
  RunResult result;
  Serve serve(options);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto start = Clock::now();
    serve.setup("");
    setup_s.push_back(ms_since(start) / 1000.0);
    if (rep + 1 < kSetupRepeats) serve.drain();
  }
  double wall_s = 0;
  if (!options.trace) {
    const auto xs = serve.phase(options.seconds, false, &wall_s);
    const double rss = serve.rss_mb();
    serve.drain();
    serve.check(xs);
    const PhaseStats stats = stats_of(xs, wall_s, serve.block_per_s());
    std::map<std::size_t, std::vector<double>> by_slot;
    for (const Exchange& x : xs) by_slot[x.slot].push_back(x.rtt_ms);
    for (const auto& [slot, rtt] : by_slot) {
      std::fprintf(stderr, "perfbench: slot %2zu %-5s %6zu requests %9.3f ms median\n",
                   slot, slot_kind(slot) == SlotKind::kHit ? "hit" : "miss", rtt.size(),
                   median(rtt));
    }
    result.metrics = end_to_end(setup_s, stats, rss);
    result.attempted = stats.attempted;
  } else {
    const auto plain = serve.phase(options.seconds / 2, false, &wall_s);
    const auto plain_e2e = end_to_end(setup_s, stats_of(plain, wall_s, serve.block_per_s()), 0.0);
    serve.drain();
    serve.check(plain);
    // The fleet writes per-process trace shards; the in-process variant has
    // no front door, so no relay spans.
    const bool fleet = options.workload == "serve";
    const std::string trace_dir =
        fleet ? options.work_dir + "/serve-trace-seed" + std::to_string(options.seed) : "";
    if (fleet) {
      ::mkdir(trace_dir.c_str(), 0755);
      // Shards of an earlier run in the same directory would merge in too.
      if (DIR* d = ::opendir(trace_dir.c_str())) {
        while (const dirent* e = ::readdir(d)) {
          if (std::string(e->d_name).find(".trace.json") != std::string::npos) {
            ::unlink((trace_dir + "/" + e->d_name).c_str());
          }
        }
        ::closedir(d);
      }
    }
    obs::TraceSink sink;
    std::map<std::string, double> layers;
    std::vector<Exchange> traced;
    double traced_wall_s = 0;
    {
      obs::TraceSession session(&sink);
      serve.setup(trace_dir);
      traced = serve.phase(options.seconds / 2, true, &traced_wall_s);
      // service.parse.ms: the same request stream replayed in-process.
      for (const Exchange& x : traced) {
        LayerSpan span("bench.service.parse", 0);
        if (!parse_request(x.line).ok()) serve.errors().push_back("serve: replay parse failed");
      }
      const obs::Profile profile = obs::build_profile(sink);
      layers["service.parse.ms"] = span_total_ms(profile, "bench.service.parse");
    }
    serve.drain();
    serve.check(traced);
    if (fleet) {
      const std::string merged = trace_dir + "/merged.json";
      const std::string cmd = options.bin_dir + "/soctest-perf trace-merge " +
                              trace_dir + " --out " + merged + " > /dev/null";
      if (std::system(cmd.c_str()) != 0) serve.errors().push_back("serve: trace-merge failed");
      layers["frontdoor.relay_ms"] = relay_median_ms(merged);
    }
    std::vector<double> rtt, queue, solve, overhead;
    double hits = 0, partials = 0, rtt_sum = 0;
    for (const Exchange& x : traced) {
      rtt.push_back(x.rtt_ms);
      queue.push_back(x.queue_ms);
      solve.push_back(x.wall_ms);
      overhead.push_back(x.rtt_ms - x.queue_ms - x.wall_ms);
      hits += x.cached ? 1 : 0;
      partials += static_cast<double>(x.partial_t.size());
      rtt_sum += x.rtt_ms;
    }
    // Medians over requests; counts and summed times per round.
    const double lookups = static_cast<double>(traced.size());
    const double rounds = lookups / kRound;
    layers["service.rtt_ms"] = median(rtt);
    layers["service.queue_ms"] = median(queue);
    layers["service.solve_ms"] = median(solve);
    layers["service.overhead_ms"] = median(overhead);
    layers["service.cache.hits"] = hits / rounds;
    layers["service.cache.misses"] = (lookups - hits) / rounds;
    layers["service.cache.lookups"] = kRound;
    layers["service.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    layers["service.partials"] = partials / rounds;
    layers["service.parse.ms"] /= rounds;
    // Client time between a final and the next send, on every connection
    // (the in-process variant has one caller).
    layers["root.self_ms"] =
        (traced_wall_s * 1000.0 * (fleet ? kConnections : 1) - rtt_sum) / rounds;
    add_overhead(plain_e2e, end_to_end(setup_s, stats_of(traced, traced_wall_s, serve.block_per_s()), 0.0),
                 layers);
    write_trace(sink, options);
    for (const auto& name : per_layer_names()) result.metrics[name] = layers[name];
    result.attempted = static_cast<long long>(plain.size() + traced.size());
  }
  for (std::size_t i = 0; i < serve.errors().size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", serve.errors()[i].c_str());
  }
  result.correct = serve.errors().empty();
  return result;
}

}  // namespace perfbench
