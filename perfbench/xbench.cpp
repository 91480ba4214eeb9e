// xbench: the end-to-end benchmark of the xtask runtime (see README.md).
//
//   xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--span-dir <dir>]
//   xbench --crash-check        one job per batch input on every bench
//                               config, and the core.spawn_ns probe, each
//                               in a forked child
//
// Workloads: fine-tasks, dag-blocked, serve-open.light, serve-open.busy,
// serve-ipc. A run times several cold constructions (setup_s), warms its
// runtimes or services up, then measures for --seconds. The last stdout
// line is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). An earlier line holds the host metadata.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bots/fib.hpp"
#include "bots/graph_workloads.hpp"
#include "bots/nqueens.hpp"
#include "bots/serial_ctx.hpp"
#include "bots/sparselu.hpp"
#include "core/runtime.hpp"
#include "core/task_graph.hpp"
#include "harness.hpp"
#include "registry/registry.hpp"
#include "serve/ipc/client.hpp"
#include "serve/ipc/server.hpp"
#include "serve/service.hpp"
#include "spans.hpp"

namespace {

using perfbench::Arrival;
using perfbench::LogHist;
using perfbench::quantile;
using perfbench::spans::now_ns;
using perfbench::spans::Scope;
namespace spans = perfbench::spans;
namespace bots = xtask::bots;
using xtask::Dep;
using xtask::Runtime;
using xtask::RuntimeRegistry;
using xtask::TaskContext;
using xtask::TaskGraph;

// --- fixed inputs -----------------------------------------------------------
// Sized so a warm iteration takes well under 100 ms on 4 cores: a 10 s run
// then holds >100 iterations, enough for ten samples beyond the p90.

constexpr int kFibN = 25;          // ~243 k tasks, no cutoff
constexpr int kQueensN = 11;       // cutoff 3
constexpr int kQueensCutoff = 3;
constexpr int kLuBlocks = 32;      // 32x32 blocks of 32x32 doubles
constexpr int kLuBlockSize = 32;

// Serve traffic: two fixed absolute rates below the open-loop knee, a
// three-tenant mix and a fixed-work body (~2 us on the reference host).
constexpr double kLightRps = 100'000;
constexpr double kBusyRps = 300'000;
constexpr int kWorkIters = 925;
constexpr std::uint64_t kSloLimitNs = 2'000'000;  // slo_rate_rps limit
struct TenantMix {
  const char* name;
  double share;
  int prio;
};
constexpr TenantMix kMix[] = {
    {"interactive", 0.5, 5}, {"standard", 0.3, 3}, {"bulk", 0.2, 0}};
constexpr int kTenants = 3;

const std::vector<double>& mix_shares() {
  static const std::vector<double> s = {kMix[0].share, kMix[1].share,
                                        kMix[2].share};
  return s;
}

// --- host -------------------------------------------------------------------

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpuset_string() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "?";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int e = c;
    while (e + 1 < CPU_SETSIZE && CPU_ISSET(e + 1, &set)) ++e;
    if (!out.empty()) out += ",";
    out += e == c ? std::to_string(c)
                  : std::to_string(c) + "-" + std::to_string(e);
    c = e;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) {
        std::string m = line.substr(p + 1);
        m.erase(0, m.find_first_not_of(' '));
        std::string esc;
        for (char ch : m)
          if (ch != '"' && ch != '\\') esc += ch;
        return esc;
      }
    }
  }
  return "unknown";
}

/// Peak resident set of this process, in MB.
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double cycles_per_ns() {
  const std::uint64_t c0 = xtask::rdtscp();
  const std::uint64_t t0 = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t c1 = xtask::rdtscp();
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0);
}

// --- result -----------------------------------------------------------------

void write_all(int fd, const std::string& s) {
  for (std::size_t done = 0; done < s.size();) {
    const ssize_t n = write(fd, s.data() + done, s.size() - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> values;
  std::vector<double> samples;  // batch workloads: iteration times in us
  /// In a child process: a pipe every change is also written to, one line
  /// each, so the parent keeps what was measured before a crash.
  int sink = -1;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 20) problems.push_back(what);
    }
    emit(ok ? "c 1" : "c 0 " + what);
  }
  void set(const std::string& name, double v) {
    values[name] = v;
    emit("v " + name + " " + num(v));
  }
  void add_samples(const std::vector<double>& v) {
    samples.insert(samples.end(), v.begin(), v.end());
    std::string lines;
    for (double x : v) lines += "s " + num(x) + "\n";
    if (sink >= 0) write_all(sink, lines);
  }
  /// Apply the lines a child's Result wrote to its sink.
  void absorb(const std::string& lines) {
    std::istringstream in(lines);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("c ", 0) == 0) {
        check(line.compare(0, 3, "c 1") == 0, line.size() > 4 ? line.substr(4) : "");
      } else if (line.rfind("v ", 0) == 0) {
        const std::size_t sp = line.find(' ', 2);
        if (sp != std::string::npos)
          set(line.substr(2, sp - 2), std::strtod(line.c_str() + sp + 1, nullptr));
      } else if (line.rfind("s ", 0) == 0) {
        add_samples({std::strtod(line.c_str() + 2, nullptr)});
      }
    }
  }

 private:
  void emit(const std::string& line) {
    if (sink >= 0) write_all(sink, line + "\n");
  }
};

// --- child processes ------------------------------------------------------------

/// How a child process ended.
struct ChildOutcome {
  enum Kind { kOk, kExit, kSignal, kTimeout, kNoChild } kind = kNoChild;
  int code = 0;     // kExit: the exit status; kSignal: the signal
  std::string out;  // everything the child wrote to its pipe

  std::string describe() const {
    switch (kind) {
      case kOk: return "ok";
      case kExit: return "exit status " + std::to_string(code);
      case kSignal: return std::string("SIGNAL ") + strsignal(code);
      case kTimeout: return "TIMEOUT";
      case kNoChild: return "could not fork";
    }
    return "?";
  }
};

/// fork(); the child calls `child(fd)`, which writes its report to the
/// pipe `fd`, and _exit()s with what it returns. The parent collects the
/// report until the child closes the pipe, SIGKILLs it after `timeout_s`,
/// and reaps it. The child runs only `child` after fork(): when this
/// process has other threads, `child` must be async-signal-safe (build
/// everything it needs before the call).
ChildOutcome run_child(const std::function<int(int)>& child, double timeout_s) {
  ChildOutcome out;
  int fds[2];
  if (pipe(fds) != 0) return out;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    _exit(child(fds[1]));
  }
  close(fds[1]);
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  bool timed_out = false;
  char buf[4096];
  for (;;) {
    if (now_ns() > end) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the child exited or died
    out.out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  if (timed_out) {
    out.kind = ChildOutcome::kTimeout;
  } else if (WIFSIGNALED(status)) {
    out.kind = ChildOutcome::kSignal;
    out.code = WTERMSIG(status);
  } else {
    out.code = WEXITSTATUS(status);
    out.kind = out.code == 0 ? ChildOutcome::kOk : ChildOutcome::kExit;
  }
  return out;
}

/// Run `fn(r)` in a forked child, on a Result that streams every change
/// into `into`: the benchmark survives a runtime that dies on a signal and
/// keeps what was measured before it. The child allocates and starts
/// threads, so call this only while this process runs no other threads
/// (no live runtime or service).
ChildOutcome in_child(const std::function<void(Result&)>& fn, double timeout_s, Result& into) {
  const ChildOutcome c = run_child(
      [&](int fd) {
        Result r;
        r.sink = fd;
        fn(r);
        std::fflush(stdout);
        std::fflush(stderr);
        return 0;
      },
      timeout_s);
  into.absorb(c.out);
  return c;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports every one (see README.md for
// what "one operation" is on each workload).
const MetricDef kEndToEnd[] = {
    {"lat_p50_us", "us"},
    {"lat_tail_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics. A workload that does not exercise a layer reports 0
// for it (no work was done there); README.md maps each one to the
// end-to-end metric and workload it should move.
const MetricDef kPerLayer[] = {
    {"core.spawn_ns", "ns"},
    {"core.region_us", "us"},
    {"core.steals_local_per_mtask", "count"},
    {"core.steals_remote_per_mtask", "count"},
    {"core.steals_direct_per_mtask", "count"},
    {"core.steal_success", "share"},
    {"core.steal_round_p50_kcycles", "kcycles"},
    {"core.idle_share", "share"},
    {"core.inline_share", "share"},
    {"core.remote_share", "share"},
    {"core.mode_switches_per_mtask", "count"},
    {"core.queue_fullscans_per_mtask", "count"},
    {"core.alloc_refills_per_mtask", "count"},
    {"core.alloc_refill_cycles", "cycles"},
    {"deps.edge_ns", "ns"},
    {"graph.replay_node_ns", "ns"},
    {"dag.body_share", "share"},
    {"serve.submit_ns.p50", "ns"},
    {"serve.submit_ns.p99", "ns"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.body_us", "us"},
    {"serve.stop_ms", "ms"},
    {"serve.accept_share", "share"},
    {"serve.shed_share", "share"},
    {"serve.reject_share", "share"},
    {"serve.throttle_share", "share"},
    {"serve.gen_lag_us.p99", "us"},
    {"serve.gen_lag_us.max", "us"},
    {"serve.lat_p99_us", "us"},
    {"serve.lat_p999_us", "us"},
    {"serve.slo_rate_rps", "1/s"},
    {"ipc.submit_ns.p50", "ns"},
    {"ipc.submit_ns.p99", "ns"},
    {"ipc.server_wait_us.p50", "us"},
    {"ipc.server_wait_us.p99", "us"},
    {"ipc.cmpl_poll_us", "us"},
    {"ipc.retries", "count"},
    {"ipc.torn", "count"},
    {"ipc.orphaned", "count"},
    {"ref.lomp_iter_ms", "ms"},
    {"ref.serial_iter_ms", "ms"},
    {"self.core_share", "share"},
    {"self.bench_share", "share"},
    {"self.serve_share", "share"},
    {"self.spawn_ns", "ns"},
    {"self.taskwait_ns", "ns"},
    {"trace.overhead_share", "share"},
};

void print_result(const Result& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    // Not measured (layer not exercised) reads 0; so does a non-finite
    // value, which JSON cannot carry.
    const auto it = r.values.find(m.name);
    const double v = it == r.values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::printf("  %-32s %16.6f %s\n", m.name, v, m.unit);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (trace)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  json += "}}";
  for (const std::string& p : r.problems)
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dir;
};

void print_host(const Args& a, int workers, const std::string& spec) {
  std::printf(
      "{\"host\": {\"nproc\": %u, \"cpus_allowed\": %d, \"cpuset\": \"%s\", "
      "\"cpu_model\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"trace\": %d, \"spec\": \"%s\", \"workers\": %d}}\n",
      std::thread::hardware_concurrency(), host_cpus(),
      cpuset_string().c_str(), cpu_model().c_str(),
      static_cast<unsigned long long>(a.seed), a.workload.c_str(),
      a.trace ? 1 : 0, spec.c_str(), workers);
}

/// The headline configuration, with the worker count resolved up front.
std::string xtask_spec(int threads) {
  return "xtask:dlb=adaptive,threads=" + std::to_string(threads);
}

// --- counters -> per-layer core metrics ---------------------------------------

/// `worker_cycles`: cycles the team existed over the counted interval
/// (workers x wall); 0 leaves core.idle_share out.
void core_metrics(Result& r, const xtask::Counters& c, double worker_cycles) {
  const double tasks = std::max<double>(1.0, static_cast<double>(c.ntasks_executed));
  const double per_m = 1e6 / tasks;
  r.set("core.steals_local_per_mtask", static_cast<double>(c.nsteal_local) * per_m);
  r.set("core.steals_remote_per_mtask", static_cast<double>(c.nsteal_remote) * per_m);
  r.set("core.steals_direct_per_mtask", static_cast<double>(c.nsteal_direct) * per_m);
  r.set("core.steal_success",
        c.nreq_sent == 0 ? 0.0
                         : static_cast<double>(c.nreq_has_steal) /
                               static_cast<double>(c.nreq_sent));
  std::uint64_t n = 0;
  for (auto v : c.steal_lat_hist) n += v;
  double p50 = 0;
  if (n > 0) {
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < c.steal_lat_hist.size(); ++b) {
      seen += c.steal_lat_hist[b];
      if (2 * seen >= n) {
        // Bucket b covers [2^(10+b), 2^(11+b)) cycles (bucket 0 from 0):
        // report its geometric midpoint.
        p50 = b == 0 ? 1024.0 : std::ldexp(std::sqrt(2.0), 10 + static_cast<int>(b));
        break;
      }
    }
  }
  r.set("core.steal_round_p50_kcycles", p50 / 1e3);
  if (worker_cycles > 0)
    r.set("core.idle_share", static_cast<double>(c.idle_cycles) / worker_cycles);
  r.set("core.inline_share", static_cast<double>(c.ntasks_imm_exec) / tasks);
  r.set("core.remote_share", static_cast<double>(c.ntasks_remote) / tasks);
  r.set("core.mode_switches_per_mtask", static_cast<double>(c.nmode_switches) * per_m);
  r.set("core.queue_fullscans_per_mtask", static_cast<double>(c.nqueue_fullscans) * per_m);
  r.set("core.alloc_refills_per_mtask", static_cast<double>(c.nalloc_refills) * per_m);
  r.set("core.alloc_refill_cycles",
        c.nalloc_refills == 0 ? 0.0
                              : static_cast<double>(c.alloc_refill_cycles) /
                                    static_cast<double>(c.nalloc_refills));
}

xtask::Counters counters_delta(const xtask::Counters& after,
                               const xtask::Counters& before) {
  xtask::Counters d = after;
  auto sub = [](std::uint64_t& a, std::uint64_t b) { a -= b; };
  sub(d.ntasks_executed, before.ntasks_executed);
  sub(d.ntasks_remote, before.ntasks_remote);
  sub(d.ntasks_imm_exec, before.ntasks_imm_exec);
  sub(d.nsteal_local, before.nsteal_local);
  sub(d.nsteal_remote, before.nsteal_remote);
  sub(d.nsteal_direct, before.nsteal_direct);
  sub(d.nreq_sent, before.nreq_sent);
  sub(d.nreq_has_steal, before.nreq_has_steal);
  sub(d.idle_cycles, before.idle_cycles);
  sub(d.nmode_switches, before.nmode_switches);
  sub(d.nqueue_fullscans, before.nqueue_fullscans);
  sub(d.nalloc_refills, before.nalloc_refills);
  sub(d.alloc_refill_cycles, before.alloc_refill_cycles);
  for (std::size_t b = 0; b < d.steal_lat_hist.size(); ++b)
    d.steal_lat_hist[b] -= before.steal_lat_hist[b];
  return d;
}

/// Span-derived per-layer metrics: each layer's share of all recorded self
/// time, and the mean self time of one spawn / taskwait call.
void self_metrics(Result& r) {
  spans::Tracer& t = spans::Tracer::get();
  double self[spans::kKinds];
  double total = 0;
  for (int k = 0; k < spans::kKinds; ++k) {
    self[k] = static_cast<double>(t.total(static_cast<spans::Kind>(k)).self_ns);
    total += self[k];
  }
  if (total <= 0) return;
  using namespace perfbench::spans;
  r.set("self.core_share",
        (self[kRun] + self[kSpawn] + self[kTaskwait] + self[kReplay]) / total);
  r.set("self.bench_share",
        (self[kIteration] + self[kTask] + self[kDagBody] + self[kBody]) / total);
  r.set("self.serve_share", (self[kSubmit] + self[kStop]) / total);
  const Agg sp = t.total(kSpawn);
  const Agg tw = t.total(kTaskwait);
  if (sp.dur.count() > 0)
    r.set("self.spawn_ns", static_cast<double>(sp.self_ns) / sp.dur.count());
  if (tw.dur.count() > 0)
    r.set("self.taskwait_ns", static_cast<double>(tw.self_ns) / tw.dur.count());
  std::printf("span self time by kind (traced phase):\n");
  for (int k = 0; k < kKinds; ++k) {
    const Agg a = t.total(static_cast<Kind>(k));
    if (a.dur.count() == 0) continue;
    std::printf("  %-16s n=%-10llu self=%10.3f ms  mean dur=%10.1f ns  p99 dur=%10.1f ns\n",
                name(static_cast<Kind>(k)),
                static_cast<unsigned long long>(a.dur.count()), self[k] / 1e6,
                a.dur.mean(), a.dur.percentile(0.99));
  }
}

// --- traced task context -----------------------------------------------------

/// Wraps TaskContext so the BOTS kernel templates (instantiated with this
/// type in the traced phase only) record a span around every spawn and
/// taskwait call and around every task body.
struct TracedCtx {
  TaskContext& c;
  int worker_id() const { return c.worker_id(); }
  template <typename F>
  void spawn(F&& f) {
    Scope s(spans::kSpawn);
    c.spawn([f = std::forward<F>(f), cause = s.id()](TaskContext& inner) mutable {
      TracedCtx t{inner};
      Scope body(spans::kTask, cause);
      f(t);
    });
  }
  void taskwait() {
    Scope s(spans::kTaskwait);
    c.taskwait();
  }
};

/// Run one job as a region: `body(ctx)` with the plain or the traced
/// context.
template <bool kTraced, typename Body>
void region(Runtime& rt, Body&& body) {
  if constexpr (kTraced) {
    Scope s(spans::kRun);
    rt.run([&](TaskContext& ctx) {
      TracedCtx t{ctx};
      Scope task(spans::kTask);
      body(t);
    });
  } else {
    rt.run([&](TaskContext& ctx) { body(ctx); });
  }
}

// --- setup ---------------------------------------------------------------------

/// setup_s: cold constructions are timed in several fresh processes,
/// kSetupReps in each, and setup_s is the interquartile mean (the mean of
/// the middle half, so one stalled process does not move it) of the
/// processes' medians. On a shared host every construction in a window of tens
/// of milliseconds to seconds sits at one of two levels (a runtime: ~140
/// or ~210 us on the reference host, whether pinned to one CPU or run
/// without ASLR), so the processes are spread over the run: each batch
/// runtime instance times its own constructions before it measures, and
/// serve-open times a group before each service instance (serve-ipc: all
/// before its one server). A construction builds the system cold, up to
/// its first finished empty region or served request; tearing it down is
/// not timed.
constexpr int kSetupReps = 5;

double iq_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return hi == lo ? 0.0 : sum / static_cast<double>(hi - lo);
}

/// Median of kSetupReps calls of `construct(r)`, which returns seconds.
double setup_median(Result& r, const std::function<double(Result&)>& construct) {
  std::vector<double> s;
  for (int i = 0; i < kSetupReps; ++i) s.push_back(construct(r));
  return quantile(s, 0.5);
}

/// setup_median() in each of `procs` child processes; appends their
/// medians to `out`.
void setup_in_children(Result& r, int procs, const std::function<double(Result&)>& construct,
                       std::vector<double>& out) {
  for (int k = 0; k < procs; ++k) {
    const ChildOutcome c = in_child(
        [&](Result& cr) { cr.set("process_setup_s", setup_median(cr, construct)); }, 60, r);
    r.check(c.kind == ChildOutcome::kOk, "set-up process: " + c.describe());
    if (c.kind == ChildOutcome::kOk) out.push_back(r.values["process_setup_s"]);
  }
}

/// One cold construction of a runtime, up to its first finished empty
/// region.
double runtime_setup_s(const xtask::Config& cfg) {
  const std::uint64_t t0 = now_ns();
  auto rt = RuntimeRegistry::make_xtask(cfg);
  rt->run([](TaskContext&) {});
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Time `fn()` `reps` times, return the median in ns.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    v.push_back(static_cast<double>(now_ns() - t0));
  }
  return quantile(v, 0.5);
}

/// core.spawn_ns probe: a flat fan-out of 100 k empty tasks from the root
/// task, then one taskwait; spawn + run + taskwait per task, median of 5.
/// It runs in a child process on its own runtime: this pattern trips the
/// runtime's known BQueue::push_batch null-slot abort (README.md, crashes)
/// often enough that a crash must be reported, not take the whole run down.
constexpr int kFanTasks = 100'000;

void spawn_probe(const xtask::Config& cfg, Result& r) {
  auto rt = RuntimeRegistry::make_xtask(cfg);
  r.set("core.spawn_ns", median_ns(5, [&] {
          rt->run([](TaskContext& ctx) {
            for (int i = 0; i < kFanTasks; ++i) ctx.spawn([](TaskContext&) {});
            ctx.taskwait();
          });
        }) / kFanTasks);
}

/// core.region_us probe: median of 2000 empty regions.
void region_probe(Runtime& rt, Result& r) {
  std::vector<double> reg;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t0 = now_ns();
    rt.run([](TaskContext&) {});
    reg.push_back(static_cast<double>(now_ns() - t0));
  }
  r.set("core.region_us", quantile(reg, 0.5) / 1e3);
}

/// Closed loop: warm up, then run `iter()` (returning wall ns) until
/// `seconds` passed. Returns iteration wall times in us.
template <typename Iter>
std::vector<double> closed_loop(double seconds, int warmup, Iter&& iter) {
  for (int i = 0; i < warmup; ++i) iter();
  std::vector<double> us;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < end) us.push_back(iter() / 1e3);
  return us;
}

/// The untraced batch measurement: kInstances runtimes, each in its own
/// child process, warmed up and measured for an equal share of `seconds`;
/// iteration times are pooled in `r.samples`. One runtime instance's level
/// differs from the next by up to ~15 % (placement and memory layout are
/// fixed at construction), so pooling several instances is what makes the
/// per-run median repeat. An instance that dies on a signal (see
/// README.md, crashes) counts as a failed operation; the others still
/// report. `make_iter(k)`, called in instance k's process, allocates that
/// instance's inputs and returns `iter(rt, r)`, which runs one iteration
/// and returns its wall ns. The children fork from a process that holds no
/// runtime and no inputs, so a child's peak RSS is one instance's own;
/// peak_rss_mb is their median. Each instance first times its set-up
/// constructions (see kSetupReps).
constexpr int kInstances = 20;

template <typename MakeIter>
void over_instances(const xtask::Config& cfg, double seconds, int warmup, Result& r,
                    MakeIter&& make_iter) {
  std::vector<double> rss, setup;
  for (int k = 0; k < kInstances; ++k) {
    const ChildOutcome c = in_child(
        [&](Result& cr) {
          cr.set("process_setup_s",
                 setup_median(cr, [&](Result&) { return runtime_setup_s(cfg); }));
          auto iter = make_iter(k);
          auto rt = RuntimeRegistry::make_xtask(cfg);
          cr.add_samples(
              closed_loop(seconds / kInstances, warmup, [&] { return iter(*rt, cr); }));
          cr.set("instance_rss_mb", peak_rss_mb());
        },
        seconds + 60, r);
    if (c.kind != ChildOutcome::kOk) {
      r.check(false, "runtime instance " + std::to_string(k) + ": " + c.describe());
    } else {
      setup.push_back(r.values["process_setup_s"]);
      rss.push_back(r.values["instance_rss_mb"]);
    }
  }
  r.set("setup_s", iq_mean(setup));
  r.set("peak_rss_mb", quantile(rss, 0.5));
}

void report_iterations(Result& r) {
  const std::vector<double>& us = r.samples;
  r.set("lat_p50_us", quantile(us, 0.5));
  r.set("lat_tail_us", quantile(us, 0.9));
  std::printf("iterations: %zu (p90 has %zu beyond)\n", us.size(),
              us.size() - static_cast<std::size_t>(std::ceil(0.9 * us.size())));
}

/// Run the traced measurement `fn(r)` in a child process: a runtime crash
/// then shows as a failed operation with the per-layer figures measured
/// before it intact.
void traced_in_child(const Args& a, const std::function<void(Result&)>& fn, Result& r) {
  const ChildOutcome c = in_child(fn, a.seconds + 90, r);
  r.check(c.kind == ChildOutcome::kOk, "traced measurement: " + c.describe());
}

// --- fine-tasks -------------------------------------------------------------------

/// One fine-tasks iteration: fib(25) without cutoff and nqueens(11) with
/// cutoff 3, in a seeded order. Returns wall ns (checks excluded).
const long kFibRef = bots::fib_serial(kFibN);
const long kQueensRef = bots::nqueens_serial(kQueensN);

template <bool kTraced>
double fine_iteration(Runtime& rt, bool fib_first, Result& r) {
  long fib = -1;
  std::atomic<long> queens{0};
  auto run_fib = [&] {
    region<kTraced>(rt, [&](auto& ctx) { bots::fib_task(ctx, kFibN, 0, &fib); });
  };
  auto run_queens = [&] {
    region<kTraced>(rt, [&](auto& ctx) {
      std::array<signed char, 20> cols{};
      bots::detail::nqueens_task(ctx, cols, kQueensN, 0, kQueensCutoff, &queens);
    });
  };
  const std::uint64_t t0 = now_ns();
  {
    Scope it(spans::kIteration);
    if (fib_first) {
      run_fib();
      run_queens();
    } else {
      run_queens();
      run_fib();
    }
  }
  const double ns = static_cast<double>(now_ns() - t0);
  r.check(fib == kFibRef, "fib(" + std::to_string(kFibN) + ") = " + std::to_string(fib));
  r.check(queens.load() == kQueensRef,
          "nqueens(" + std::to_string(kQueensN) + ") = " + std::to_string(queens.load()));
  return ns;
}

/// The traced fine-tasks measurement (in a child process).
void traced_fine_tasks(const Args& a, const xtask::Config& cfg, int n, Result& r) {
  auto rt = RuntimeRegistry::make_xtask(cfg);
  const double cyc = cycles_per_ns();
  const int workers = rt->topology().num_workers();
  perfbench::SplitMix order(a.seed);
  // Phase A (untraced): the reference for the tracing overhead, and the
  // counter deltas (counters are always on in the runtime).
  const xtask::Counters c0 = rt->profiler().total_counters();
  const std::uint64_t ta = now_ns();
  auto plain = closed_loop(a.seconds * 0.4, 5, [&] {
    return fine_iteration<false>(*rt, order.next() & 1, r);
  });
  const double wall_a = static_cast<double>(now_ns() - ta);
  core_metrics(r, counters_delta(rt->profiler().total_counters(), c0),
               cyc * wall_a * workers);
  // Phase B (traced).
  spans::Tracer::get().enable(true);
  auto traced = closed_loop(a.seconds * 0.4, 2, [&] {
    return fine_iteration<true>(*rt, order.next() & 1, r);
  });
  spans::Tracer::get().enable(false);
  self_metrics(r);
  const double p50_plain = quantile(plain, 0.5);
  r.set("trace.overhead_share", (quantile(traced, 0.5) - p50_plain) / p50_plain);
  region_probe(*rt, r);

  // References on the same inputs: the LOMP-like baseline and serial.
  {
    auto lomp = RuntimeRegistry::make_lomp(RuntimeRegistry::lomp_config(
        xtask::BackendSpec::parse("lomp:threads=" + std::to_string(n))));
    r.set("ref.lomp_iter_ms", median_ns(5, [&] {
            r.check(bots::fib_parallel(*lomp, kFibN, 0) == kFibRef, "lomp fib");
            r.check(bots::nqueens_parallel(*lomp, kQueensN, kQueensCutoff) == kQueensRef,
                    "lomp nqueens");
          }) / 1e6);
  }
  {
    bots::SerialRuntime sr;
    r.set("ref.serial_iter_ms", median_ns(5, [&] {
            r.check(bots::fib_parallel(sr, kFibN, 0) == kFibRef, "serial fib");
            r.check(bots::nqueens_parallel(sr, kQueensN, kQueensCutoff) == kQueensRef,
                    "serial nqueens");
          }) / 1e6);
  }
  std::printf("untraced p50 %.1f us (%zu iters), traced p50 %.1f us (%zu iters)\n",
              p50_plain, plain.size(), quantile(traced, 0.5), traced.size());
  if (!a.span_dir.empty())
    spans::Tracer::get().dump(a.span_dir + "/fine-tasks-seed" + std::to_string(a.seed) + ".jsonl");
}

int run_fine_tasks(const Args& a) {
  Result r;
  const int n = host_cpus();
  const std::string spec = xtask_spec(n);
  const xtask::Config cfg = RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(spec));
  // Child processes first, while this process holds no runtime.
  if (a.trace) {
    const ChildOutcome c = in_child([&](Result& cr) { spawn_probe(cfg, cr); }, 60, r);
    r.check(c.kind == ChildOutcome::kOk, "core.spawn_ns probe (flat fan-out of " +
                                             std::to_string(kFanTasks) +
                                             " empty tasks): " + c.describe());
    traced_in_child(a, [&](Result& cr) { traced_fine_tasks(a, cfg, n, cr); }, r);
  } else {
    over_instances(cfg, a.seconds, 1, r, [&](int k) {
      return [order = perfbench::SplitMix(a.seed * 1000 + static_cast<std::uint64_t>(k))](
                 Runtime& inst, Result& cr) mutable {
        return fine_iteration<false>(inst, order.next() & 1, cr);
      };
    });
    report_iterations(r);
  }
  print_host(a, RuntimeRegistry::make_xtask(cfg)->topology().num_workers(), spec);
  print_result(r, a.trace);
  return 0;
}

// --- dag-blocked -------------------------------------------------------------------

/// A sparselu block kernel as emitted by sparselu_dep_build, wrapped in a
/// dag.body span when traced.
template <bool kTraced, typename F>
auto lu_body(F&& f) {
  if constexpr (kTraced)
    return [f](TaskContext& c) {
      Scope s(spans::kDagBody);
      f(c);
    };
  else
    return std::forward<F>(f);
}

/// Spawn sparselu over the prefilled `m` with live dependences.
template <bool kTraced>
void spawn_lu(TaskContext& ctx, bots::SparseMatrix* m) {
  bots::sparselu_dep_build(m, [&ctx](auto&& f, std::initializer_list<Dep> deps) {
    ctx.spawn(lu_body<kTraced>(std::forward<decltype(f)>(f)), deps);
  });
}

/// Record sparselu over the prefilled `m` as a TaskGraph (not run).
template <bool kTraced>
TaskGraph record_lu(bots::SparseMatrix* m) {
  return TaskGraph::record([m](TaskGraph::Capture& cap) {
    bots::sparselu_dep_build(m, [&cap](auto&& f, std::initializer_list<Dep> deps) {
      cap.node(lu_body<kTraced>(std::forward<decltype(f)>(f)), deps);
    });
  });
}

/// sparselu input. The block pattern is the BOTS genmat shape (diagonal
/// plus ~35 % of off-diagonal blocks) drawn from a FIXED pattern seed, so
/// every run factorizes the same DAG; the run's seed draws the values.
/// Values are uniform in [-1, 1) with a dominant diagonal, so the
/// factorization needs no pivoting. Blocks outside the pattern that exist
/// (fill-in of an earlier factorization) are zeroed; block addresses do
/// not change, so a graph recorded over `m` stays valid across re-fills.
constexpr std::uint64_t kLuPatternSeed = 44;

void fill_lu(bots::SparseMatrix& m, std::uint64_t seed) {
  perfbench::SplitMix pattern(kLuPatternSeed);
  perfbench::SplitMix values(seed);
  const int n = m.blocks();
  const int bs = m.bs();
  const std::size_t elems = static_cast<std::size_t>(bs) * bs;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const bool live = pattern.next() % 100 < 35 || i == j;
      if (!live) {
        if (double* blk = m.block(i, j)) std::fill(blk, blk + elems, 0.0);
        continue;
      }
      double* blk = m.materialize(i, j);
      for (std::size_t e = 0; e < elems; ++e) blk[e] = values.uniform() * 2.0 - 1.0;
      if (i == j)
        for (int d = 0; d < bs; ++d) blk[d * bs + d] += static_cast<double>(2 * bs);
    }
}

/// Checksum of the serial (taskwait-structured) factorization of the
/// input drawn from `seed`.
double lu_reference(const bots::SparseLuParams& p, std::uint64_t seed) {
  bots::SparseMatrix m(p, false);
  fill_lu(m, seed);
  bots::SerialRuntime sr;
  sr.run([&](auto& ctx) { bots::detail::sparselu_task(ctx, &m); });
  return m.checksum();
}

struct DagState {
  bots::SparseMatrix live;   // factorized with live dependences
  bots::SparseMatrix graph;  // factorized by replaying a TaskGraph
  std::uint64_t seed;        // draws the input (fill_lu)
  double ref;                // lu_reference of the input

  DagState(const bots::SparseLuParams& p, std::uint64_t input_seed, double reference)
      : live(p, false), graph(p, false), seed(input_seed), ref(reference) {
    fill_lu(live, seed);
    fill_lu(graph, seed);
    bots::sparselu_prefill(&live);
    bots::sparselu_prefill(&graph);
  }
};

/// One dag-blocked iteration: sparselu once with live dependences and once
/// as a recorded TaskGraph replay, each on a re-filled matrix. Returns the
/// wall ns of the two regions (re-filling excluded).
template <bool kTraced>
double dag_iteration(Runtime& rt, DagState& s, const TaskGraph& g, Result& r) {
  fill_lu(s.live, s.seed);
  fill_lu(s.graph, s.seed);
  Scope it(spans::kIteration);
  const std::uint64_t t0 = now_ns();
  {
    Scope run(spans::kRun);
    rt.run([&](TaskContext& ctx) { spawn_lu<kTraced>(ctx, &s.live); });
  }
  {
    Scope rep(spans::kReplay);
    g.replay(rt, 1);
  }
  const std::uint64_t t2 = now_ns();
  r.check(s.live.checksum() == s.ref, "sparselu deps checksum");
  r.check(s.graph.checksum() == s.ref, "sparselu replay checksum");
  return static_cast<double>(t2 - t0);
}

/// The traced dag-blocked measurement (in a child process).
void traced_dag_blocked(const Args& a, const xtask::Config& cfg, const bots::SparseLuParams& p,
                        int n, Result& r) {
  DagState s(p, a.seed, lu_reference(p, a.seed));
  TaskGraph g = record_lu<false>(&s.graph);
  auto rt = RuntimeRegistry::make_xtask(cfg);
  const int workers = rt->topology().num_workers();
  std::printf("sparselu %dx%d blocks of %d: %u nodes, %u edges\n", p.blocks,
              p.blocks, p.block_size, g.num_nodes(), g.num_edges());
  const double cyc = cycles_per_ns();
  const xtask::Counters c0 = rt->profiler().total_counters();
  const std::uint64_t ta = now_ns();
  auto plain = closed_loop(a.seconds * 0.4, 3,
                                   [&] { return dag_iteration<false>(*rt, s, g, r); });
  const double wall_a = static_cast<double>(now_ns() - ta);
  core_metrics(r, counters_delta(rt->profiler().total_counters(), c0),
               cyc * wall_a * workers);

  TaskGraph g_traced = record_lu<true>(&s.graph);
  spans::Tracer::get().enable(true);
  double region_ns = 0;
  auto traced = closed_loop(a.seconds * 0.4, 0, [&] {
    const double ns = dag_iteration<true>(*rt, s, g_traced, r);
    region_ns += ns;
    return ns;
  });
  spans::Tracer::get().enable(false);
  self_metrics(r);
  const spans::Agg body = spans::Tracer::get().total(spans::kDagBody);
  r.set("dag.body_share",
        static_cast<double>(body.self_ns) / (region_ns * workers));
  const double p50_plain = quantile(plain, 0.5);
  r.set("trace.overhead_share", (quantile(traced, 0.5) - p50_plain) / p50_plain);

  // deps.edge_ns: the live-dependence build with empty bodies, minus a
  // flat fan-out of as many empty tasks, per dependence edge.
  const std::uint32_t nodes = g.num_nodes();
  const double deps_ns = median_ns(5, [&] {
    rt->run([&](TaskContext& ctx) {
      bots::sparselu_dep_build(&s.live, [&ctx](auto&&, std::initializer_list<Dep> deps) {
        ctx.spawn([](TaskContext&) {}, deps);
      });
    });
  });
  const double flat_ns = median_ns(5, [&] {
    rt->run([&](TaskContext& ctx) {
      for (std::uint32_t i = 0; i < nodes; ++i) ctx.spawn([](TaskContext&) {});
    });
  });
  r.set("deps.edge_ns", (deps_ns - flat_ns) / g.num_edges());
  // graph.replay_node_ns: replay of the same DAG with empty bodies.
  TaskGraph g_empty = TaskGraph::record([&](TaskGraph::Capture& cap) {
    bots::sparselu_dep_build(&s.graph, [&cap](auto&&, std::initializer_list<Dep> deps) {
      cap.node([](TaskContext&) {}, deps);
    });
  });
  r.set("graph.replay_node_ns", median_ns(5, [&] { g_empty.replay(*rt, 1); }) / nodes);

  {
    auto lomp = RuntimeRegistry::make_lomp(RuntimeRegistry::lomp_config(
        xtask::BackendSpec::parse("lomp:threads=" + std::to_string(n))));
    // Two taskwait-structured factorizations: LOMP has no dependences.
    r.set("ref.lomp_iter_ms", median_ns(3, [&] {
            for (int k = 0; k < 2; ++k) {
              fill_lu(s.live, s.seed);
              lomp->run([&](auto& ctx) { bots::detail::sparselu_task(ctx, &s.live); });
              r.check(s.live.checksum() == s.ref, "lomp sparselu");
            }
          }) / 1e6);
  }
  r.set("ref.serial_iter_ms", median_ns(3, [&] {
          for (int k = 0; k < 2; ++k) {
            fill_lu(s.live, s.seed);
            bots::SerialRuntime sr;
            sr.run([&](auto& ctx) { bots::detail::sparselu_task(ctx, &s.live); });
            r.check(s.live.checksum() == s.ref, "serial sparselu");
          }
        }) / 1e6);
  std::printf("untraced p50 %.1f us (%zu iters), traced p50 %.1f us (%zu iters)\n",
              p50_plain, plain.size(), quantile(traced, 0.5), traced.size());
  if (!a.span_dir.empty())
    spans::Tracer::get().dump(a.span_dir + "/dag-blocked-seed" + std::to_string(a.seed) + ".jsonl");
}

int run_dag_blocked(const Args& a) {
  Result r;
  const int n = host_cpus();
  const std::string spec = xtask_spec(n);
  const xtask::Config cfg = RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(spec));
  bots::SparseLuParams p;
  p.blocks = kLuBlocks;
  p.block_size = kLuBlockSize;
  // Child processes first, while this process holds no runtime and no
  // matrix: even the serial reference is computed in a child.
  if (a.trace) {
    traced_in_child(a, [&](Result& cr) { traced_dag_blocked(a, cfg, p, n, cr); }, r);
  } else {
    Result ref;
    const ChildOutcome c =
        in_child([&](Result& cr) { cr.set("ref", lu_reference(p, a.seed)); }, 60, ref);
    r.check(c.kind == ChildOutcome::kOk && ref.values.count("ref") == 1,
            "serial sparselu reference: " + c.describe());
    if (ref.values.count("ref") == 1)
      over_instances(cfg, a.seconds, 1, r, [&](int) {
        // Matrices allocated in the instance's own process: pages inherited
        // across fork() would be copied on first write into small pages.
        auto st = std::make_shared<DagState>(p, a.seed, ref.values["ref"]);
        auto gr = std::make_shared<TaskGraph>(record_lu<false>(&st->graph));
        return [st, gr](Runtime& inst, Result& cr) {
          return dag_iteration<false>(inst, *st, *gr, cr);
        };
      });
    report_iterations(r);
  }
  print_host(a, RuntimeRegistry::make_xtask(cfg)->topology().num_workers(), spec);
  print_result(r, a.trace);
  return 0;
}

// --- serve: shared request body ------------------------------------------------------

inline std::uint64_t spin_work(std::uint64_t x) {
  for (int i = 0; i < kWorkIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Per-thread body-side measurements. Each thread writes only its own;
/// the reader merges them after observing every request's done flag with
/// acquire ordering (the flag is released after the writes).
struct BodyStats {
  LogHist lat;    // due -> body end (in-process) / unused (ipc)
  LogHist wait;   // due -> body start (in-process) / client stamp -> start (ipc)
  LogHist body;   // body duration
  std::uint64_t over_limit = 0;  // lat > kSloLimitNs
};

struct BodyRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<BodyStats>> all;
  BodyStats& local() {
    thread_local BodyStats* tl = nullptr;
    if (tl == nullptr) {
      std::lock_guard<std::mutex> g(mu);
      all.push_back(std::make_unique<BodyStats>());
      tl = all.back().get();
    }
    return *tl;
  }
  BodyStats merged() {
    std::lock_guard<std::mutex> g(mu);
    BodyStats m;
    for (const auto& b : all) {
      m.lat.merge(b->lat);
      m.wait.merge(b->wait);
      m.body.merge(b->body);
      m.over_limit += b->over_limit;
    }
    return m;
  }
  void clear() {
    std::lock_guard<std::mutex> g(mu);
    for (auto& b : all) *b = BodyStats();
  }
};

BodyRegistry g_body;
perfbench::OnceSet g_once;  // which request ids ran
std::atomic<std::uint64_t> g_sink{0};

/// Request body: fixed work, then record due->start and due->end.
/// Request.a = request id, Request.b = due time (ns).
void serve_body(const xtask::serve::Request& req) {
  Scope s(spans::kBody);
  const std::uint64_t start = now_ns();
  const std::uint64_t x = spin_work(req.a + 1);
  const std::uint64_t end = now_ns();
  if (x == 0) g_sink.fetch_add(1, std::memory_order_relaxed);
  BodyStats& b = g_body.local();
  const std::uint64_t lat = end - req.b;
  b.lat.add(lat);
  b.wait.add(start - req.b);
  b.body.add(end - start);
  if (lat > kSloLimitNs) ++b.over_limit;
  g_once.mark(req.a);
}

xtask::serve::ServeConfig serve_config(int threads) {
  xtask::serve::ServeConfig cfg;
  cfg.runtime_spec = xtask_spec(threads);
  // Limits far above the offered rates: admission never binds, so the
  // latency measured is the request path, not the overload policy.
  for (const TenantMix& m : kMix) {
    xtask::TenantSpec t;
    t.name = m.name;
    t.rate = 5'000'000;
    t.quota = 65'536;
    t.burst = 1'000'000;
    t.priority = m.prio;
    cfg.tenants.push_back(t);
  }
  cfg.ring_capacity = 16'384;
  return cfg;
}

void idle_wait(std::uint64_t wait_ns) {
  if (wait_ns > 200'000)
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns - 100'000));
  else
    xtask::cpu_pause();
}

template <typename Pred>
bool wait_until(Pred&& pred, double seconds) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (!pred()) {
    if (now_ns() > end) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// --- serve-open -------------------------------------------------------------------------

struct PhaseOut {
  std::uint64_t sent = 0;
  std::uint64_t accepted = 0, shed = 0, rejected = 0;
  std::uint64_t throttled_polls = 0;
  LogHist lag;
  std::uint64_t backlog_mid = 0, backlog_end = 0;
};

std::uint64_t settled(const xtask::serve::TenantStats& t) {
  return t.executed + t.shed + t.rejected + t.orphaned;
}

/// Send the `n` arrivals of `sched` open-loop into `svc`, ids starting at
/// `base`.
template <bool kTraced>
PhaseOut open_phase(xtask::serve::TaskService& svc, const perfbench::Schedule& sched,
                    std::size_t n, std::uint64_t base) {
  PhaseOut o;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const std::size_t mid = n / 2;
  perfbench::run_open_loop(
      perfbench::ArrivalStream(sched), t0, now_ns,
      [&](std::size_t i, const Arrival& arr, std::uint64_t due, std::uint64_t now) {
        o.lag.add(now - due);
        xtask::serve::Request req;
        req.fn = serve_body;
        req.a = base + i;
        req.b = due;
        xtask::serve::Submit st;
        if constexpr (kTraced) {
          Scope s(spans::kSubmit);
          st = svc.submit(static_cast<int>(arr.tenant), req);
        } else {
          st = svc.submit(static_cast<int>(arr.tenant), req);
        }
        ++o.sent;
        if (st.status == xtask::serve::SubmitStatus::kAccepted) ++o.accepted;
        else if (st.status == xtask::serve::SubmitStatus::kShed) ++o.shed;
        else ++o.rejected;
        if (svc.state() != xtask::serve::ServiceState::kAccept) ++o.throttled_polls;
        if (i == mid) {
          const auto t = svc.totals();
          o.backlog_mid = t.submitted - settled(t);
        }
      },
      idle_wait);
  const auto t = svc.totals();
  o.backlog_end = t.submitted - settled(t);
  return o;
}

bool drained(xtask::serve::TaskService& svc) {
  const auto t = svc.totals();
  return t.submitted == settled(t) && t.in_flight == 0;
}

/// One cold construction of a service, up to its first served request.
double service_setup_s(const xtask::serve::ServeConfig& cfg) {
  static std::atomic<int> served{0};
  served.store(0);
  const std::uint64_t t0 = now_ns();
  xtask::serve::TaskService svc(cfg);
  xtask::serve::Request req;
  req.fn = [](const xtask::serve::Request&) { served.store(1, std::memory_order_release); };
  while (svc.submit(0, req).status != xtask::serve::SubmitStatus::kAccepted)
    std::this_thread::yield();
  while (served.load(std::memory_order_acquire) == 0) xtask::cpu_pause();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

struct ServePhase {
  std::size_t n = 0;  // arrivals in the schedule
  PhaseOut o;
  BodyStats m;
  std::uint64_t once = 0;  // ids of the phase that ran
  std::uint64_t more = 0;  // runs of an id that had already run
  bool drained = false;
};

/// One open-loop phase on `svc`: send `sched` (ids from `base`, which
/// advances), wait until the service drained, and count which requests
/// ran exactly once. Body-side stats cover this phase only.
template <bool kTraced>
ServePhase serve_phase(xtask::serve::TaskService& svc, const perfbench::Schedule& sched,
                       std::size_t& base) {
  ServePhase p;
  p.n = sched.size();
  g_body.clear();
  const std::uint64_t repeats = g_once.repeats();
  p.o = open_phase<kTraced>(svc, sched, p.n, base);
  p.drained = wait_until([&] { return drained(svc); }, 10);
  p.once = g_once.count(base, base + p.n);
  p.more = g_once.repeats() - repeats;
  p.m = g_body.merged();
  base += p.n;
  return p;
}

/// Every arrival of a measured phase must be accepted and run exactly once.
void check_phase(Result& r, const ServePhase& p, const char* what) {
  const std::size_t n = p.n;
  r.attempted += n;
  r.failed += n - std::min<std::uint64_t>(p.once, n);
  if (p.once < n)
    r.problems.push_back(std::string(what) + ": " + std::to_string(n - p.once) + " of " +
                         std::to_string(n) + " requests not executed exactly once (rejected " +
                         std::to_string(p.o.rejected) + ", shed " + std::to_string(p.o.shed) + ")");
  r.check(p.more == 0, std::string(what) + ": " + std::to_string(p.more) +
                           " requests ran more than once");
  r.check(p.drained, std::string(what) + ": did not drain within 10 s");
}

/// Stop the service (timed) and check its closed accounting.
double stop_service(xtask::serve::TaskService& svc, Result& r) {
  const std::uint64_t t0 = now_ns();
  {
    Scope s(spans::kStop);
    svc.stop();
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  const auto fin = svc.totals();
  r.check(fin.submitted == settled(fin) && fin.in_flight == 0,
          "serve accounting: submitted == executed + shed + rejected + orphaned");
  return ms;
}

perfbench::Schedule schedule(std::uint64_t seed, double rps, double seconds) {
  return perfbench::Schedule{seed, rps, static_cast<std::uint64_t>(seconds * 1e9), mix_shares()};
}

/// The tag-th schedule of a run seeded `seed`.
perfbench::Schedule schedule(std::uint64_t seed, std::uint64_t tag, double rps, double seconds) {
  return schedule(seed * 1000 + tag, rps, seconds);
}

/// Service instances per untraced serve-open run, pooled like the batch
/// workloads' runtime instances, and set-up processes timed before each.
constexpr int kServeInstances = 3;
constexpr int kSetupProcsPerService = 5;
constexpr double kServeWarmupS = 0.3;

int run_serve_open(const Args& a, double rps) {
  Result r;
  const int threads = std::max(1, host_cpus() - 1);
  const auto cfg = serve_config(threads);
  std::size_t base = 0;

  if (!a.trace) {
    std::vector<perfbench::Schedule> warm, meas;
    std::size_t ids = 0;
    for (int k = 0; k < kServeInstances; ++k) {
      warm.push_back(schedule(a.seed, 2 * k, rps, kServeWarmupS));
      meas.push_back(schedule(a.seed, 2 * k + 1, rps, a.seconds / kServeInstances));
      ids += warm.back().size() + meas.back().size();
    }
    g_once.reset(ids);
    LogHist lat;
    std::vector<double> setup;
    int workers = 0;
    for (int k = 0; k < kServeInstances; ++k) {
      // No service (and no thread) is live here, so this process can fork.
      setup_in_children(r, kSetupProcsPerService,
                        [&](Result&) { return service_setup_s(cfg); }, setup);
      auto svc = std::make_unique<xtask::serve::TaskService>(cfg);
      workers = svc->runtime().topology().num_workers();
      check_phase(r, serve_phase<false>(*svc, warm[k], base), "warm-up");
      const ServePhase p = serve_phase<false>(*svc, meas[k], base);
      check_phase(r, p, "measured phase");
      lat.merge(p.m.lat);
      stop_service(*svc, r);
    }
    r.set("setup_s", iq_mean(setup));
    r.set("lat_p50_us", lat.percentile(0.5) / 1e3);
    r.set("lat_tail_us", lat.percentile(0.9) / 1e3);
    // The services run in this process; the benchmark's own share is the
    // histograms and one bit per request id.
    r.set("peak_rss_mb", peak_rss_mb());
    print_host(a, workers, cfg.runtime_spec);
    std::printf("offered %.0f rps: %llu requests, p50 %.1f us, p90 %.1f us, p99 %.1f us\n", rps,
                static_cast<unsigned long long>(lat.count()), lat.percentile(0.5) / 1e3,
                lat.percentile(0.9) / 1e3, lat.percentile(0.99) / 1e3);
    print_result(r, false);
    return 0;
  }

  auto svc = std::make_unique<xtask::serve::TaskService>(cfg);
  print_host(a, svc->runtime().topology().num_workers(), cfg.runtime_spec);
  // Traced run, one service: an untraced phase (queue wait, tails,
  // generator lag, admission shares), a traced phase (submit() spans and
  // the tracing overhead), and on the busy workload the SLO ladder.
  const auto warm = schedule(a.seed, 0, rps, kServeWarmupS);
  const auto plain_s = schedule(a.seed, 1, rps, a.seconds * 0.35);
  const auto traced_s = schedule(a.seed, 2, rps, a.seconds * 0.35);
  std::vector<perfbench::Schedule> ladder;
  if (rps == kBusyRps) {
    // slo_rate_rps: ~10 % geometric steps upward from the busy rate.
    double rate = rps;
    for (int k = 0; k < 10; ++k, rate *= 1.1)
      ladder.push_back(schedule(a.seed, 10 + k, rate, 0.5));
  }
  std::size_t ids = warm.size() + plain_s.size() + traced_s.size();
  for (const auto& l : ladder) ids += l.size();
  g_once.reset(ids);

  check_phase(r, serve_phase<false>(*svc, warm, base), "warm-up");
  const ServePhase p = serve_phase<false>(*svc, plain_s, base);
  check_phase(r, p, "untraced phase");
  const double tot = std::max<double>(1.0, static_cast<double>(p.o.sent));
  r.set("serve.queue_wait_us.p50", p.m.wait.percentile(0.5) / 1e3);
  r.set("serve.queue_wait_us.p99", p.m.wait.percentile(0.99) / 1e3);
  r.set("serve.body_us", p.m.body.mean() / 1e3);
  r.set("serve.accept_share", static_cast<double>(p.o.accepted) / tot);
  r.set("serve.shed_share", static_cast<double>(p.o.shed) / tot);
  r.set("serve.reject_share", static_cast<double>(p.o.rejected) / tot);
  r.set("serve.throttle_share", static_cast<double>(p.o.throttled_polls) / tot);
  r.set("serve.gen_lag_us.p99", p.o.lag.percentile(0.99) / 1e3);
  r.set("serve.gen_lag_us.max", static_cast<double>(p.o.lag.max()) / 1e3);
  r.set("serve.lat_p99_us", p.m.lat.percentile(0.99) / 1e3);
  r.set("serve.lat_p999_us", p.m.lat.percentile(0.999) / 1e3);

  spans::Tracer::get().enable(true);
  const ServePhase t = serve_phase<true>(*svc, traced_s, base);
  spans::Tracer::get().enable(false);
  check_phase(r, t, "traced phase");
  const spans::Agg sub = spans::Tracer::get().total(spans::kSubmit);
  r.set("serve.submit_ns.p50", sub.dur.percentile(0.5));
  r.set("serve.submit_ns.p99", sub.dur.percentile(0.99));
  const double p50 = p.m.lat.percentile(0.5);
  r.set("trace.overhead_share", (t.m.lat.percentile(0.5) - p50) / p50);
  self_metrics(r);

  if (!ladder.empty()) {
    std::size_t k = 0;
    const auto res = perfbench::slo_ladder(
        rps, 1.1, static_cast<int>(ladder.size()), 0.01, [&](double rate) {
          const auto& sch = ladder[k++];
          const ServePhase lp = serve_phase<false>(*svc, sch, base);
          perfbench::LadderStep st;
          st.sent = lp.o.sent;
          st.missed = (lp.o.sent - lp.once) + lp.m.over_limit + lp.more;
          st.backlog_grew = static_cast<double>(lp.o.backlog_end) >
                            1.5 * static_cast<double>(lp.o.backlog_mid) + rate * 1e-3;
          std::printf("  slo rung %.0f rps: sent %llu missed %llu backlog %llu -> %llu\n", rate,
                      static_cast<unsigned long long>(st.sent),
                      static_cast<unsigned long long>(st.missed),
                      static_cast<unsigned long long>(lp.o.backlog_mid),
                      static_cast<unsigned long long>(lp.o.backlog_end));
          return st;
        });
    r.set("serve.slo_rate_rps", res.rate);
  }

  // The service region spans the whole run, so its counters are read once
  // stop() ended it. Idle share is left out: the drain loop keeps worker 0
  // busy polling for the service's whole lifetime.
  r.set("serve.stop_ms", stop_service(*svc, r));
  core_metrics(r, svc->runtime().profiler().total_counters(), 0.0);
  std::printf("offered %.0f rps: p50 %.1f us, p99 %.1f us, p999 %.1f us, gen lag max %.1f us\n",
              rps, p50 / 1e3, p.m.lat.percentile(0.99) / 1e3, p.m.lat.percentile(0.999) / 1e3,
              static_cast<double>(p.o.lag.max()) / 1e3);
  if (!a.span_dir.empty())
    spans::Tracer::get().dump(a.span_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                              ".jsonl");
  print_result(r, true);
  return 0;
}

// --- serve-ipc ------------------------------------------------------------------------------

// Op codes the ipc client sends: the setup probe, warm-up traffic, and the
// measured phases (only those are recorded server-side).
constexpr std::uint32_t kOpSetup = 0, kOpWarm = 1, kOpMeasure = 2;

std::uint64_t ipc_handler(std::uint32_t op, std::uint64_t arg, std::uint64_t t_submit) {
  if (op == kOpSetup) return now_ns();
  const std::uint64_t start = now_ns();
  const std::uint64_t x = spin_work(arg + 1);
  const std::uint64_t end = now_ns();
  if (x == 0) g_sink.fetch_add(1, std::memory_order_relaxed);
  if (op == kOpMeasure) {
    BodyStats& b = g_body.local();
    b.wait.add(start - t_submit);
    b.body.add(end - start);
  }
  g_once.mark(arg);
  return end;  // the client derives completion-poll delay from it
}

/// The schedules both sides of serve-ipc derive from the seed: warm-up,
/// then one measured phase (untraced run) or an untraced + a traced phase.
std::vector<perfbench::Schedule> ipc_schedules(std::uint64_t seed, double seconds, bool trace) {
  std::vector<perfbench::Schedule> out;
  out.push_back(schedule(seed * 7 + 1, kLightRps, 0.5));
  const double s = trace ? seconds * 0.4 : seconds;
  out.push_back(schedule(seed, kLightRps, s));
  if (trace) out.push_back(schedule(seed * 7 + 2, kLightRps, s));
  return out;
}

/// Arrivals per schedule, and their sum.
std::vector<std::size_t> sizes(const std::vector<perfbench::Schedule>& phases, std::size_t& total) {
  std::vector<std::size_t> n;
  total = 0;
  for (const auto& p : phases) {
    n.push_back(p.size());
    total += n.back();
  }
  return n;
}

std::string hist_line(const char* name, const LogHist& h) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "hist %s n=%llu p50=%.1f p90=%.1f p99=%.1f p999=%.1f max=%llu mean=%.1f",
                name, static_cast<unsigned long long>(h.count()), h.percentile(0.5),
                h.percentile(0.9), h.percentile(0.99), h.percentile(0.999),
                static_cast<unsigned long long>(h.max()), h.mean());
  return buf;
}

/// The external load generator of serve-ipc: one process, one session per
/// tenant, one generator thread (plus each session's heartbeat thread).
/// Latency is measured here, from an arrival's due time to the moment its
/// completion is polled. Prints "key value" lines for the parent.
int run_ipc_client(const std::string& spec_str, std::uint64_t seed, double seconds, bool trace) {
  const xtask::TransportSpec tspec = xtask::TransportSpec::parse(spec_str);
  std::vector<std::unique_ptr<xtask::ipc::Client>> cl;
  for (int t = 0; t < kTenants; ++t) {
    cl.push_back(std::make_unique<xtask::ipc::Client>());
    xtask::ipc::Client::Options opt;
    opt.backoff_seed = seed * 31 + static_cast<std::uint64_t>(t);
    if (cl.back()->connect(tspec, static_cast<std::uint32_t>(t), opt) !=
        xtask::ipc::ClientStatus::kOk) {
      std::fprintf(stderr, "ipc client: connect failed\n");
      return 3;
    }
  }
  const auto phases = ipc_schedules(seed, seconds, trace);
  std::size_t total = 0;
  const std::vector<std::size_t> phase_n = sizes(phases, total);
  std::vector<std::uint64_t> due(total, 0);
  std::vector<std::uint8_t> got(total, 0);
  std::uint64_t bad_status = 0, bad_result = 0, dup = 0, retries = 0, submit_fail = 0;
  LogHist lat, cmpl_poll;
  std::size_t base = 0;
  xtask::ipc::CmplPayload cmpl[64];
  std::uint64_t phase_first = 0;  // first id of the phase being recorded
  bool record = false;

  auto poll_all = [&] {
    for (auto& c : cl) {
      std::size_t k;
      for (;;) {
        if (trace && record) {
          Scope s(spans::kIpcPoll);
          k = c->poll(cmpl, 64);
        } else {
          k = c->poll(cmpl, 64);
        }
        if (k == 0) break;
        const std::uint64_t now = now_ns();
        for (std::size_t j = 0; j < k; ++j) {
          const std::uint64_t id = cmpl[j].id;
          if (id >= total || cmpl[j].status != xtask::ipc::kCmplDone) {
            ++bad_status;
            continue;
          }
          if (got[id]++ != 0) {
            ++dup;
            continue;
          }
          // result = server body end: causality check and poll delay.
          if (cmpl[j].result < due[id] || cmpl[j].result > now) ++bad_result;
          if (id >= phase_first) {
            lat.add(now - due[id]);
            cmpl_poll.add(now - std::min(now, cmpl[j].result));
          }
        }
      }
    }
  };

  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    const std::size_t n = phase_n[ph];
    const bool traced_phase = trace && ph == 2;
    record = ph >= 1;
    phase_first = base;
    lat.clear();
    cmpl_poll.clear();
    LogHist lag;
    spans::Tracer::get().enable(traced_phase);
    const std::uint64_t t0 = now_ns() + 1'000'000;
    const std::uint32_t op = ph == 0 ? kOpWarm : kOpMeasure;
    perfbench::run_open_loop(
        perfbench::ArrivalStream(phases[ph]), t0, now_ns,
        [&](std::size_t i, const Arrival& arr, std::uint64_t d, std::uint64_t now) {
          lag.add(now - d);
          const std::uint64_t id = base + i;
          due[id] = d;
          auto& c = *cl[arr.tenant];
          for (;;) {
            xtask::ipc::ClientStatus st;
            if (traced_phase) {
              Scope s(spans::kIpcSubmit);
              st = c.submit(op, id, id, 0);
            } else {
              st = c.submit(op, id, id, 0);
            }
            if (st == xtask::ipc::ClientStatus::kOk) break;
            if (st != xtask::ipc::ClientStatus::kTimeout || now_ns() > d + 50'000'000) {
              ++submit_fail;
              break;
            }
            ++retries;
            poll_all();
          }
        },
        [&](std::uint64_t) { poll_all(); });
    // Collect the phase's completions.
    const std::uint64_t end = now_ns() + 5'000'000'000ull;
    auto outstanding = [&] {
      std::size_t left = 0;
      for (std::size_t i = base; i < base + n; ++i) left += got[i] == 0;
      return left;
    };
    while (outstanding() > submit_fail && now_ns() < end) poll_all();
    spans::Tracer::get().enable(false);
    if (ph >= 1) {
      std::size_t once = 0;
      for (std::size_t i = base; i < base + n; ++i) once += got[i] == 1;
      std::printf("phase %zu sent %zu once %zu\n", ph, n, once);
      std::printf("lat %zu %s\n", ph, hist_line("lat", lat).c_str());
      std::printf("cmpl %zu %s\n", ph, hist_line("cmpl", cmpl_poll).c_str());
      std::printf("lag %zu %s\n", ph, hist_line("lag", lag).c_str());
    }
    base += n;
  }
  if (trace)
    std::printf("submit %s\n",
                hist_line("submit", spans::Tracer::get().total(spans::kIpcSubmit).dur).c_str());
  std::printf("errors bad_status %llu bad_result %llu dup %llu submit_fail %llu retries %llu\n",
              static_cast<unsigned long long>(bad_status),
              static_cast<unsigned long long>(bad_result),
              static_cast<unsigned long long>(dup),
              static_cast<unsigned long long>(submit_fail),
              static_cast<unsigned long long>(retries));
  for (auto& c : cl) c->disconnect();
  std::fflush(stdout);
  return 0;
}

/// Parse "key=value" tokens of a client line.
double field(const std::string& line, const std::string& key) {
  const auto p = line.find(" " + key + "=");
  if (p == std::string::npos) return 0.0;
  return std::atof(line.c_str() + p + key.size() + 2);
}

int run_serve_ipc(const Args& a) {
  Result r;
  const int n = host_cpus();
  const int threads = std::max(1, n - 1);
  const auto cfg = serve_config(threads);
  const auto phases = ipc_schedules(a.seed, a.seconds, a.trace);
  std::size_t total = 0;
  const std::vector<std::size_t> phase_n = sizes(phases, total);
  g_once.reset(total);

  // setup_s: cold construction of the server (shm segment + service)
  // until a request submitted through an in-process session completes.
  auto segment = [](int i) {
    return xtask::TransportSpec::parse("ipc=shm,seg=xbench_" + std::to_string(getpid()) + "_" +
                                       std::to_string(i) + ",sessions=8,ring=4096,lease_ms=500");
  };
  int built = 0;
  std::vector<double> setup;
  setup_in_children(r, kServeInstances * kSetupProcsPerService, [&](Result& cr) {
    const xtask::TransportSpec spec = segment(built++);
    const std::uint64_t t0 = now_ns();
    xtask::ipc::IpcServer server(cfg, spec, &ipc_handler);
    xtask::ipc::Client c;
    bool ok = c.connect(spec, 0) == xtask::ipc::ClientStatus::kOk &&
              c.submit(kOpSetup, 0, 0, now_ns() + 1'000'000'000ull) ==
                  xtask::ipc::ClientStatus::kOk;
    xtask::ipc::CmplPayload cp;
    const std::uint64_t end = now_ns() + 2'000'000'000ull;
    while (ok && c.poll(&cp, 1) == 0) {
      if (now_ns() > end) ok = false;
      xtask::cpu_pause();
    }
    const double t = static_cast<double>(now_ns() - t0) / 1e9;
    cr.check(ok && cp.status == xtask::ipc::kCmplDone, "ipc setup request");
    c.disconnect();
    server.stop();
    return t;
  }, setup);
  r.set("setup_s", iq_mean(setup));
  const xtask::TransportSpec tspec = segment(-1);
  auto server = std::make_unique<xtask::ipc::IpcServer>(cfg, tspec, &ipc_handler);
  const int workers = server->service().runtime().topology().num_workers();
  print_host(a, workers, cfg.runtime_spec + " " + tspec.describe());

  // The client is this binary, exec'd. The server's threads are live, so
  // the forked child may only dup2, close and exec: its argv is built here.
  const std::vector<std::string> argv = {"xbench",         "--ipc-client",
                                         "--ipc-spec",     tspec.describe(),
                                         "--seed",         std::to_string(a.seed),
                                         "--seconds",      std::to_string(a.seconds),
                                         "--trace",        a.trace ? "1" : "0"};
  std::vector<char*> av;
  for (const auto& arg : argv) av.push_back(const_cast<char*>(arg.c_str()));
  av.push_back(nullptr);
  const ChildOutcome client = run_child(
      [&av](int fd) {
        dup2(fd, 1);
        close(fd);
        execv("/proc/self/exe", av.data());
        return 127;
      },
      a.seconds + 60);
  r.check(client.kind == ChildOutcome::kOk, "ipc client: " + client.describe());
  const std::string& out = client.out;
  r.check(wait_until([&] { return server->live_sessions() == 0; }, 5), "client sessions closed");
  r.check(wait_until([&] { return drained(server->service()); }, 10), "ipc service drained");

  // Exactly-once on the server side for every measured arrival; the
  // client reports exactly-once completion polls per phase.
  std::istringstream in(out);
  std::string line;
  std::map<std::string, std::string> lines;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key, ph;
    ls >> key >> ph;
    lines[key + " " + ph] = line;
    lines[key] = line;
  }
  std::size_t base = phase_n[0];
  const std::size_t measured_phase = 1;
  for (std::size_t ph = 1; ph < phases.size(); ++ph) {
    const std::size_t n_ph = phase_n[ph];
    const std::size_t once = g_once.count(base, base + n_ph);
    const std::string pl = lines["phase " + std::to_string(ph)];
    std::uint64_t sent = 0, c_once = 0;
    std::sscanf(pl.c_str(), "phase %*s sent %llu once %llu",
                reinterpret_cast<unsigned long long*>(&sent),
                reinterpret_cast<unsigned long long*>(&c_once));
    r.attempted += n_ph;
    const std::uint64_t good = std::min<std::uint64_t>(once, c_once);
    r.failed += n_ph - std::min<std::uint64_t>(good, n_ph);
    if (good < n_ph)
      r.problems.push_back("ipc phase " + std::to_string(ph) + ": " + std::to_string(once) +
                           " ran server-side, " + std::to_string(c_once) +
                           " polled once client-side, of " + std::to_string(n_ph));
    base += n_ph;
  }
  r.check(g_once.repeats() == 0, "ipc requests ran more than once: " +
                                     std::to_string(g_once.repeats()));
  const std::string err = lines["errors"];
  unsigned long long bad_status = 0, bad_result = 0, dup = 0, submit_fail = 0, retries = 0;
  std::sscanf(err.c_str(), "errors bad_status %llu bad_result %llu dup %llu submit_fail %llu retries %llu",
              &bad_status, &bad_result, &dup, &submit_fail, &retries);
  r.check(!err.empty() && bad_status == 0 && bad_result == 0 && dup == 0 && submit_fail == 0,
          "ipc client errors: " + err);

  const std::string lat = lines["lat " + std::to_string(measured_phase)];
  const BodyStats m = g_body.merged();
  const auto ts = server->stats();
  const std::uint64_t t_stop = now_ns();
  {
    Scope s(spans::kStop);
    server->stop();
  }
  const double stop_ms = static_cast<double>(now_ns() - t_stop) / 1e6;
  // Read once stop() ended the service region (churn counters sync there).
  const xtask::Counters c = server->service().runtime().profiler().total_counters();
  const auto fin = server->service().totals();
  r.check(fin.submitted == settled(fin) && fin.in_flight == 0,
          "serve accounting: submitted == executed + shed + rejected + orphaned");
  r.check(ts.slots_torn == 0 && ts.orphaned == 0, "no torn slots or orphans");
  std::printf("client: %s\n", lat.c_str());
  std::printf("server: wait p50 %.1f us, p99 %.1f us; torn %llu, orphaned %llu\n",
              m.wait.percentile(0.5) / 1e3, m.wait.percentile(0.99) / 1e3,
              static_cast<unsigned long long>(ts.slots_torn),
              static_cast<unsigned long long>(ts.orphaned));

  if (!a.trace) {
    r.set("lat_p50_us", field(lat, "p50") / 1e3);
    r.set("lat_tail_us", field(lat, "p90") / 1e3);
    // The server process: the client is a child and is not counted.
    r.set("peak_rss_mb", peak_rss_mb());
  } else {
    const std::string lat_t = lines["lat 2"];
    const std::string sub = lines["submit"];
    const double p50 = field(lat, "p50");
    r.set("trace.overhead_share", (field(lat_t, "p50") - p50) / p50);
    r.set("ipc.submit_ns.p50", field(sub, "p50"));
    r.set("ipc.submit_ns.p99", field(sub, "p99"));
    r.set("ipc.server_wait_us.p50", m.wait.percentile(0.5) / 1e3);
    r.set("ipc.server_wait_us.p99", m.wait.percentile(0.99) / 1e3);
    r.set("ipc.cmpl_poll_us", field(lines["cmpl " + std::to_string(measured_phase)], "mean") / 1e3);
    r.set("ipc.retries", static_cast<double>(retries));
    r.set("ipc.torn", static_cast<double>(ts.slots_torn));
    r.set("ipc.orphaned", static_cast<double>(ts.orphaned));
    r.set("serve.body_us", m.body.mean() / 1e3);
    r.set("serve.stop_ms", stop_ms);
    const std::string lag = lines["lag " + std::to_string(measured_phase)];
    r.set("serve.gen_lag_us.p99", field(lag, "p99") / 1e3);
    r.set("serve.gen_lag_us.max", field(lag, "max") / 1e3);
    r.set("serve.lat_p99_us", field(lat, "p99") / 1e3);
    r.set("serve.lat_p999_us", field(lat, "p999") / 1e3);
    const double tot = std::max<double>(1.0, static_cast<double>(fin.submitted));
    r.set("serve.accept_share", static_cast<double>(fin.admitted) / tot);
    r.set("serve.shed_share", static_cast<double>(fin.shed) / tot);
    r.set("serve.reject_share", static_cast<double>(fin.rejected) / tot);
    core_metrics(r, c, 0.0);
  }
  print_result(r, a.trace);
  return 0;
}

// --- crash check --------------------------------------------------------------------------

/// One job of each batch input on every bench config (plus the default
/// xtask, xlomp, and adaptive with one worker), each in a forked child, so
/// a config that dies on a signal is listed instead of killing the check.
int run_crash_check() {
  std::vector<std::string> specs;
  for (const auto& c : RuntimeRegistry::bench_configs()) specs.push_back(c.spec);
  specs.push_back("xtask");
  specs.push_back("xlomp");
  specs.push_back("xtask:dlb=adaptive,threads=1");
  bots::SparseLuParams p;
  p.blocks = kLuBlocks;
  p.block_size = kLuBlockSize;
  DagState lu(p, 1, lu_reference(p, 1));
  const std::vector<std::pair<const char*, std::function<bool(xtask::AnyRuntime&)>>> jobs = {
      {"fib", [](xtask::AnyRuntime& rt) { return bots::fib_parallel(rt, kFibN, 0) == kFibRef; }},
      {"nqueens",
       [](xtask::AnyRuntime& rt) {
         return bots::nqueens_parallel(rt, kQueensN, kQueensCutoff) == kQueensRef;
       }},
      {"sparselu", [&](xtask::AnyRuntime& rt) {
         fill_lu(lu.live, lu.seed);
         rt.run([&](xtask::AnyContext& ctx) { bots::detail::sparselu_task(ctx, &lu.live); });
         return lu.live.checksum() == lu.ref;
       }}};
  std::vector<std::string> crashed;
  int wrong = 0;
  std::printf("crash check: fib(%d), nqueens(%d, cutoff %d), sparselu %dx%d blocks of %d, "
              "each job in its own child process\n",
              kFibN, kQueensN, kQueensCutoff, kLuBlocks, kLuBlocks, kLuBlockSize);
  for (const std::string& spec : specs) {
    for (const auto& [job, run] : jobs) {
      const ChildOutcome c = run_child(
          [&](int) {
            xtask::AnyRuntime rt = RuntimeRegistry::make(spec);
            return run(rt) ? 0 : 1;
          },
          60);
      if (c.kind == ChildOutcome::kExit) ++wrong;
      if (c.kind == ChildOutcome::kSignal || c.kind == ChildOutcome::kTimeout)
        crashed.push_back(spec + " " + job + ": " + c.describe());
      std::printf("  %-34s %-9s %s\n", spec.c_str(), job,
                  c.kind == ChildOutcome::kExit ? "WRONG RESULT" : c.describe().c_str());
      std::fflush(stdout);
    }
  }
  // The traced run's core.spawn_ns probe on the headline config.
  const std::string spec = xtask_spec(host_cpus());
  const xtask::Config cfg = RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(spec));
  constexpr int kProbeRuns = 20;
  int probe_crashes = 0;
  for (int i = 0; i < kProbeRuns; ++i) {
    Result probe;
    const ChildOutcome c = in_child([&](Result& cr) { spawn_probe(cfg, cr); }, 60, probe);
    if (c.kind != ChildOutcome::kOk) {
      ++probe_crashes;
      if (probe_crashes == 1)
        crashed.push_back(spec + " core.spawn_ns probe: " + c.describe());
    }
  }
  std::printf("  %-34s %-9s %d of %d probe runs died\n", spec.c_str(), "fan-out", probe_crashes,
              kProbeRuns);
  std::printf("configs that died on a signal: %zu\n", crashed.size());
  for (const auto& c : crashed) std::printf("  CRASH %s\n", c.c_str());
  std::printf("wrong results: %d\n", wrong);
  std::fflush(stdout);
  return wrong == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool crash_check = false, ipc_client = false;
  std::string ipc_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(next().c_str());
    else if (k == "--trace") a.trace = next() == "1";
    else if (k == "--span-dir") a.span_dir = next();
    else if (k == "--crash-check") crash_check = true;
    else if (k == "--ipc-client") ipc_client = true;
    else if (k == "--ipc-spec") ipc_spec = next();
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.seconds <= 0 || a.seconds > 60) {
    std::fprintf(stderr, "--seconds must be in (0, 60]\n");
    return 2;
  }
  if (crash_check) return run_crash_check();
  if (ipc_client) return run_ipc_client(ipc_spec, a.seed, a.seconds, a.trace);
  if (a.workload == "fine-tasks") return run_fine_tasks(a);
  if (a.workload == "dag-blocked") return run_dag_blocked(a);
  if (a.workload == "serve-open.light") return run_serve_open(a, kLightRps);
  if (a.workload == "serve-open.busy") return run_serve_open(a, kBusyRps);
  if (a.workload == "serve-ipc") return run_serve_ipc(a);
  std::fprintf(stderr,
               "unknown --workload '%s' (fine-tasks, dag-blocked, serve-open.light, "
               "serve-open.busy, serve-ipc)\n",
               a.workload.c_str());
  return 2;
}
