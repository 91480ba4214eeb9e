// In-memory span tracer for the traced (--trace 1) run. Spans are recorded
// by the benchmark's own code around its calls into the runtime's public
// API (Runtime::run, TaskContext::spawn/taskwait, TaskGraph::replay,
// TaskService::submit/stop, ipc::Client::submit/poll), never inside the
// runtime. Each thread owns its buffer, so recording takes no lock.
//
// Per span kind and thread the tracer keeps a count, a duration histogram
// and the kind's SELF time: the span's duration minus the part covered by
// spans nested inside it on the same thread. The first kKeep spans of each
// thread are also kept raw (id, parent, cause, thread, kind, start, end)
// and written as JSON lines at exit by dump().
//
// Tracing is off unless enable(true); with it off a Scope costs one
// relaxed load. The per-task spans (spawn, taskwait, task bodies) exist
// only in the traced kernel instantiations.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench::spans {

enum Kind : std::uint8_t {
  kIteration = 0,  // bench: one timed iteration of a batch workload
  kRun,            // core: Runtime::run (one region)
  kSpawn,          // core: TaskContext::spawn
  kTaskwait,       // core: TaskContext::taskwait
  kTask,           // bench: one task body (kernel code between calls)
  kReplay,         // core/task_graph: TaskGraph::replay
  kDagBody,        // bench: one sparselu block kernel (Emit wrapper)
  kSubmit,         // serve: TaskService::submit
  kBody,           // bench: one serve request body
  kStop,           // serve: TaskService::stop
  kIpcSubmit,      // serve/ipc: ipc::Client::submit
  kIpcPoll,        // serve/ipc: ipc::Client::poll that returned work
  kKinds,
};

inline const char* name(Kind k) {
  static const char* const kNames[kKinds] = {
      "bench.iteration", "core.run",     "core.spawn",  "core.taskwait",
      "bench.task",      "graph.replay", "dag.body",    "serve.submit",
      "bench.request",   "serve.stop",   "ipc.submit",  "ipc.poll"};
  return kNames[k];
}

inline std::uint64_t now_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Raw {
  std::uint64_t id, parent, cause, t0, t1;
  std::uint32_t tid;
  Kind kind;
};

struct Agg {
  std::uint64_t self_ns = 0;
  LogHist dur;  // span durations, ns
};

struct ThreadBuf {
  static constexpr std::size_t kKeep = 20000;
  std::uint32_t tid = 0;
  std::uint64_t next_id = 0;
  std::array<Agg, kKinds> agg{};
  std::vector<Raw> kept;
  std::vector<std::uint64_t> child_ns;  // open-span stack: nested time
  std::vector<std::uint64_t> open_ids;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  ThreadBuf& local() {
    thread_local ThreadBuf* tl = nullptr;
    if (tl == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      tl = bufs_.back().get();
      tl->tid = static_cast<std::uint32_t>(bufs_.size() - 1);
      tl->kept.reserve(1024);
    }
    return *tl;
  }

  /// Merged aggregate of one kind over all threads. Call only while no
  /// thread is recording (after the regions/services being traced ended).
  Agg total(Kind k) {
    std::lock_guard<std::mutex> g(mu_);
    Agg a;
    for (const auto& b : bufs_) {
      a.self_ns += b->agg[k].self_ns;
      a.dur.merge(b->agg[k].dur);
    }
    return a;
  }

  /// Write the kept raw spans as JSON lines. Returns false on I/O error.
  bool dump(const std::string& path) {
    std::lock_guard<std::mutex> g(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& b : bufs_)
      for (const Raw& r : b->kept)
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"cause\":%llu,"
                     "\"tid\":%u,\"name\":\"%s\",\"t0\":%llu,\"t1\":%llu}\n",
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.cause), r.tid,
                     name(r.kind), static_cast<unsigned long long>(r.t0),
                     static_cast<unsigned long long>(r.t1));
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// One span: opened at construction, closed at destruction. Its parent is
/// the span open around it on the same thread; `cause` is the span that
/// caused it (the spawn whose task body this is), possibly on another
/// thread.
class Scope {
 public:
  explicit Scope(Kind k, std::uint64_t cause = 0) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    buf_ = &t.local();
    kind_ = k;
    cause_ = cause;
    id_ = (static_cast<std::uint64_t>(buf_->tid + 1) << 40) | ++buf_->next_id;
    buf_->child_ns.push_back(0);
    buf_->open_ids.push_back(id_);
    t0_ = now_ns();
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    const std::uint64_t t1 = now_ns();
    const std::uint64_t dur = t1 - t0_;
    const std::uint64_t nested = buf_->child_ns.back();
    buf_->child_ns.pop_back();
    buf_->open_ids.pop_back();
    if (!buf_->child_ns.empty()) buf_->child_ns.back() += dur;
    Agg& a = buf_->agg[kind_];
    a.self_ns += dur > nested ? dur - nested : 0;
    a.dur.add(dur);
    if (buf_->kept.size() < ThreadBuf::kKeep) {
      const std::uint64_t parent =
          buf_->open_ids.empty() ? 0 : buf_->open_ids.back();
      buf_->kept.push_back(Raw{id_, parent, cause_, t0_, t1, buf_->tid, kind_});
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  ThreadBuf* buf_ = nullptr;
  Kind kind_ = kIteration;
  std::uint64_t cause_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t t0_ = 0;
};

}  // namespace perfbench::spans
