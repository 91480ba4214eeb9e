// The benchmark's own measurement code, free of any runtime dependency so
// selftest.cpp can pin it on known inputs:
//
//   * LogHist      log-linear latency histogram (16 sub-buckets per octave,
//                  percentiles interpolated inside a bucket) plus exact
//                  count/sum/max;
//   * quantile()   exact nearest-rank quantile of a small sample;
//   * Schedule / ArrivalStream / run_open_loop
//                  seeded Poisson arrival schedule with a tenant mix,
//                  generated on the fly, and the open-loop generator that
//                  sends each arrival when it is due whatever the system
//                  under test is doing, so latency is measured from the
//                  DUE time (a stall of the generator or the service shows
//                  on every later request);
//   * OnceSet      one bit per request id: which requests ran, and how
//                  many ran again;
//   * slo_ladder() the highest rate on a geometric ladder at which the SLO
//                  holds and the backlog does not grow.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace perfbench {

// --- histogram ------------------------------------------------------------

class LogHist {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kBuckets = 64 << kSubBits;

  static int bucket_of(std::uint64_t v) noexcept {
    if (v < (1u << kSubBits)) return static_cast<int>(v);
    const int exp = 63 - __builtin_clzll(v);
    const int sub =
        static_cast<int>((v >> (exp - kSubBits)) & ((1u << kSubBits) - 1));
    return ((exp - kSubBits + 1) << kSubBits) | sub;
  }
  /// Lower bound and width of bucket b (width 1 in the linear region).
  static double bucket_lo(int b) noexcept {
    if (b < (1 << kSubBits)) return b;
    const int exp = (b >> kSubBits) + kSubBits - 1;
    const int sub = b & ((1 << kSubBits) - 1);
    return std::ldexp(1.0 + static_cast<double>(sub) / (1 << kSubBits), exp);
  }
  static double bucket_width(int b) noexcept {
    if (b < (1 << kSubBits)) return 1;
    return std::ldexp(1.0, (b >> kSubBits) - 1);
  }

  void add(std::uint64_t v) noexcept {
    ++h_[static_cast<std::size_t>(bucket_of(v))];
    ++n_;
    sum_ += static_cast<double>(v);
    if (v > max_) max_ = v;
  }
  void merge(const LogHist& o) noexcept {
    for (std::size_t i = 0; i < h_.size(); ++i) h_[i] += o.h_[i];
    n_ += o.n_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }
  void clear() noexcept { *this = LogHist(); }

  std::uint64_t count() const noexcept { return n_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : sum_ / n_; }

  /// Nearest-rank percentile: the value of the ceil(p*count)-th smallest
  /// sample, located to its bucket and interpolated linearly inside it
  /// (exact below 16), clamped to the exact maximum. 0 when empty.
  double percentile(double p) const noexcept {
    if (n_ == 0) return 0.0;
    const double rank = std::ceil(p * static_cast<double>(n_));
    const std::uint64_t target =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rank));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t in = h_[static_cast<std::size_t>(b)];
      if (seen + in >= target) {
        if (b < (1 << kSubBits)) return b;
        const double f = (static_cast<double>(target - seen) - 0.5) /
                         static_cast<double>(in);
        return std::min(bucket_lo(b) + f * bucket_width(b),
                        static_cast<double>(max_));
      }
      seen += in;
    }
    return static_cast<double>(max_);
  }

 private:
  std::array<std::uint64_t, kBuckets> h_{};
  std::uint64_t n_ = 0;
  double sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Nearest-rank quantile of an unsorted sample (copied). 0 when empty.
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// --- open-loop schedule ---------------------------------------------------

/// SplitMix64: the schedule's only randomness source, so a seed fixes the
/// arrival times and tenants bit for bit on every host.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

struct Arrival {
  std::uint64_t due_ns;  // offset from the start of the phase
  std::uint32_t tenant;  // index into the tenant shares
};

/// Poisson arrivals at `rate_per_s` for `duration_ns` from `seed`, each
/// assigned a tenant by `shares` (summing to 1). A schedule is generated
/// on the fly by an ArrivalStream, so it holds no per-arrival memory.
struct Schedule {
  std::uint64_t seed = 0;
  double rate_per_s = 0;
  std::uint64_t duration_ns = 0;
  std::vector<double> shares;

  /// Number of arrivals (one pass over the stream).
  std::size_t size() const;
};

/// The arrivals of a Schedule in due-time order.
class ArrivalStream {
 public:
  explicit ArrivalStream(const Schedule& s) noexcept : s_(s), rng_(s.seed) {}

  /// The next arrival; false once the schedule's duration is over.
  bool next(Arrival& a) noexcept {
    t_ += -std::log(1.0 - rng_.uniform()) / s_.rate_per_s * 1e9;
    if (t_ >= static_cast<double>(s_.duration_ns)) {
      t_ = static_cast<double>(s_.duration_ns);  // stays over
      return false;
    }
    const double u = rng_.uniform();
    std::uint32_t tenant = static_cast<std::uint32_t>(s_.shares.size() - 1);
    double acc = 0;
    for (std::size_t i = 0; i < s_.shares.size(); ++i) {
      acc += s_.shares[i];
      if (u < acc) {
        tenant = static_cast<std::uint32_t>(i);
        break;
      }
    }
    a = Arrival{static_cast<std::uint64_t>(t_), tenant};
    return true;
  }

 private:
  const Schedule& s_;
  SplitMix rng_;
  double t_ = 0;
};

inline std::size_t Schedule::size() const {
  ArrivalStream in(*this);
  Arrival a;
  std::size_t n = 0;
  while (in.next(a)) ++n;
  return n;
}

/// Send every arrival `source.next()` yields at its due time t0 + due_ns.
/// `now()` returns the clock; `send(i, arrival, due_abs_ns, now_ns)` sends
/// the i-th arrival and returns nothing; `idle(wait_ns)` is called while
/// nothing is due (sleep or poll completions). Arrivals that became due
/// while the generator was busy are sent back to back, late: the lateness
/// (now - due) is the generator lag, and latency measured from the due
/// time includes it. Returns the largest lag seen.
template <typename Source, typename Now, typename Send, typename Idle>
std::uint64_t run_open_loop(Source&& source, std::uint64_t t0, Now&& now,
                            Send&& send, Idle&& idle) {
  std::uint64_t max_lag = 0;
  Arrival a;
  for (std::size_t i = 0; source.next(a); ++i) {
    const std::uint64_t due = t0 + a.due_ns;
    std::uint64_t t = now();
    while (t < due) {
      idle(due - t);
      t = now();
    }
    max_lag = std::max(max_lag, t - due);
    send(i, a, due, t);
  }
  return max_lag;
}

// --- exactly-once check -----------------------------------------------------

/// Which of the ids [0, n) ran: one bit per id, set by mark() from any
/// thread; marking an id that is already set counts a repeat. mark()
/// releases and count() acquires, so a reader that counted an id also
/// sees what its runner wrote before marking it.
class OnceSet {
 public:
  void reset(std::size_t n) {
    words_.reset(new std::atomic<std::uint64_t>[(n + 63) / 64]());
    n_ = n;
    repeats_.store(0);
  }
  std::size_t size() const noexcept { return n_; }

  /// Returns false (and records nothing) for an id out of range.
  bool mark(std::size_t id) noexcept {
    if (id >= n_) return false;
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if (words_[id / 64].fetch_or(bit, std::memory_order_release) & bit)
      repeats_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  /// Ids in [lo, hi) marked at least once.
  std::size_t count(std::size_t lo, std::size_t hi) const noexcept {
    std::size_t n = 0;
    for (std::size_t i = lo; i < std::min(hi, n_); ++i)
      n += (words_[i / 64].load(std::memory_order_acquire) >> (i % 64)) & 1;
    return n;
  }
  /// Marks of an id that had already been marked, over all ids.
  std::uint64_t repeats() const noexcept {
    return repeats_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::size_t n_ = 0;
  std::atomic<std::uint64_t> repeats_{0};
};

// --- SLO ladder -----------------------------------------------------------

struct LadderStep {
  std::uint64_t sent = 0;    // requests offered at this rung
  std::uint64_t missed = 0;  // over the latency limit, failed or refused
  bool backlog_grew = false;
};

struct LadderResult {
  double rate = 0;            // highest passing rung (0: none)
  std::vector<double> rungs;  // every rung tried, in order
};

/// Climb rates start, start*step, start*step^2, ... (at most `max_rungs`)
/// while `eval(rate)` passes: at most `miss_limit` of sent requests missed
/// and the backlog did not grow. Stops at the first failing rung.
inline LadderResult slo_ladder(double start, double step, int max_rungs,
                               double miss_limit,
                               const std::function<LadderStep(double)>& eval) {
  LadderResult r;
  double rate = start;
  for (int k = 0; k < max_rungs; ++k, rate *= step) {
    const LadderStep s = eval(rate);
    r.rungs.push_back(rate);
    const bool ok = s.sent > 0 && !s.backlog_grew &&
                    static_cast<double>(s.missed) <=
                        miss_limit * static_cast<double>(s.sent);
    if (!ok) break;
    r.rate = rate;
  }
  return r;
}

}  // namespace perfbench
