// Self-tests for the benchmark's own measurement code (harness.hpp):
// histogram percentiles on known distributions, the open-loop schedule
// and generator, the exactly-once set, and the SLO ladder on a synthetic
// latency curve.
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::fabs(want);
}

void test_hist_uniform() {
  perfbench::LogHist h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.add(v);
  CHECK(h.count() == 100'000);
  CHECK(h.max() == 100'000);
  CHECK(near(h.mean(), 50'000.5, 1e-9));
  // Uniform samples: interpolation inside a bucket is near exact.
  CHECK(near(h.percentile(0.50), 50'000, 1e-3));
  CHECK(near(h.percentile(0.99), 99'000, 0.02));  // top bucket half full
  CHECK(near(h.percentile(0.10), 10'000, 1e-3));
  CHECK(h.percentile(1.0) == 100'000);  // clamped to the exact max
}

void test_hist_small_and_exact() {
  perfbench::LogHist h;
  CHECK(h.percentile(0.5) == 0.0);
  for (std::uint64_t v : {3, 3, 3, 7}) h.add(v);  // the linear region
  CHECK(h.percentile(0.5) == 3);
  CHECK(h.percentile(0.75) == 3);
  CHECK(h.percentile(0.76) == 7);
  perfbench::LogHist g;
  g.add(1'000'000);
  h.merge(g);
  CHECK(h.count() == 5);
  CHECK(h.max() == 1'000'000);
  CHECK(near(h.percentile(1.0), 1'000'000, 1.0 / 16));
  // A single sample inside a bucket reads as the bucket's middle.
  perfbench::LogHist one;
  one.add(1000);
  CHECK(one.percentile(0.5) >= perfbench::LogHist::bucket_lo(perfbench::LogHist::bucket_of(1000)));
  CHECK(one.percentile(0.5) <= 1000);  // clamped to the max
}

void test_hist_exponential() {
  // Exponential with mean 1000: p50 = 1000 ln 2, p99 = 1000 ln 100.
  perfbench::SplitMix rng(7);
  perfbench::LogHist h;
  for (int i = 0; i < 400'000; ++i)
    h.add(static_cast<std::uint64_t>(-1000.0 * std::log(1.0 - rng.uniform())));
  CHECK(near(h.percentile(0.50), 1000 * std::log(2.0), 0.01));
  CHECK(near(h.percentile(0.99), 1000 * std::log(100.0), 0.01));
}

void test_quantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(perfbench::quantile(v, 0.5) == 50);  // nearest rank
  CHECK(perfbench::quantile(v, 0.9) == 90);
  CHECK(perfbench::quantile(v, 0.0) == 1);
  CHECK(perfbench::quantile(v, 1.0) == 100);
  CHECK(perfbench::quantile({}, 0.5) == 0);
}

std::vector<perfbench::Arrival> arrivals(const perfbench::Schedule& s) {
  std::vector<perfbench::Arrival> out;
  perfbench::ArrivalStream in(s);
  perfbench::Arrival a;
  while (in.next(a)) out.push_back(a);
  CHECK(!in.next(a));  // stays over
  return out;
}

void test_schedule() {
  const std::vector<double> shares = {0.5, 0.3, 0.2};
  const perfbench::Schedule s{42, 100'000, 1'000'000'000, shares};
  const auto a = arrivals(s);
  const auto b = arrivals(s);
  const auto c = arrivals(perfbench::Schedule{43, 100'000, 1'000'000'000, shares});
  CHECK(s.size() == a.size());
  CHECK(a.size() == b.size());
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due_ns == b[i].due_ns && a[i].tenant == b[i].tenant;
  CHECK(same);  // same seed -> same arrival times and tenants
  CHECK(c.size() != a.size() || c[0].due_ns != a[0].due_ns);
  // Poisson count over 1 s at 100 k/s: sd ~316.
  CHECK(std::fabs(static_cast<double>(a.size()) - 100'000) < 2'000);
  std::size_t per[3] = {0, 0, 0};
  bool sorted = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++per[a[i].tenant];
    if (i > 0 && a[i].due_ns < a[i - 1].due_ns) sorted = false;
    if (a[i].due_ns >= 1'000'000'000) sorted = false;
  }
  CHECK(sorted);
  for (int t = 0; t < 3; ++t)
    CHECK(near(static_cast<double>(per[t]) / a.size(), shares[t], 0.05));
}

/// Arrivals due every 10 ns, tenant 0.
struct Every10ns {
  int i = 0;
  bool next(perfbench::Arrival& a) {
    if (i == 10) return false;
    a = {static_cast<std::uint64_t>(10 * i++), 0};
    return true;
  }
};

void test_open_loop_lateness() {
  // The fake clock advances 1 ns per read, but sending arrival 3 stalls
  // it by 100 ns: every later arrival is sent late, and the lag is counted
  // from its due time, not from when the generator got to it.
  std::uint64_t clock = 1000;
  std::vector<std::uint64_t> due, sent;
  const std::uint64_t max_lag = perfbench::run_open_loop(
      Every10ns{}, 1000, [&] { return clock++; },
      [&](std::size_t i, const perfbench::Arrival& a, std::uint64_t d, std::uint64_t now) {
        CHECK(d == 1000 + a.due_ns);
        due.push_back(d);
        sent.push_back(now);
        if (i == 3) clock += 100;
      },
      [&](std::uint64_t wait) { clock += wait; });
  CHECK(due.size() == 10);
  for (std::size_t i = 0; i < due.size(); ++i) {
    CHECK(due[i] == 1000 + 10 * i);
    CHECK(sent[i] >= due[i]);  // never early
  }
  CHECK(sent[2] - due[2] <= 1);       // on time before the stall
  CHECK(sent[4] - due[4] >= 90);      // late after it, from the due time
  CHECK(max_lag >= 90 && max_lag <= 100);
  // Once the backlog is worked off (sent back to back), lag shrinks.
  CHECK(sent[9] - due[9] < sent[4] - due[4]);
}

void test_once_set() {
  perfbench::OnceSet s;
  s.reset(200);
  CHECK(s.count(0, 200) == 0);
  for (std::size_t id : {0, 63, 64, 65, 199}) CHECK(s.mark(id));
  CHECK(!s.mark(200));  // out of range: not recorded
  CHECK(s.count(0, 200) == 5);
  CHECK(s.count(63, 65) == 2);  // across a word boundary
  CHECK(s.count(100, 300) == 1);  // clamped to the size
  CHECK(s.repeats() == 0);
  CHECK(s.mark(64));
  CHECK(s.mark(64));
  CHECK(s.repeats() == 2);
  CHECK(s.count(0, 200) == 5);
  s.reset(10);
  CHECK(s.count(0, 10) == 0 && s.repeats() == 0);
}

void test_slo_ladder() {
  // Synthetic service: no misses up to a knee at 450 k/s, then 30 %.
  auto eval = [](double rate) {
    perfbench::LadderStep s;
    s.sent = 10'000;
    s.missed = rate <= 450'000 ? 50 : 3'000;  // 0.5 % vs 30 %
    return s;
  };
  const auto r = perfbench::slo_ladder(300'000, 1.1, 10, 0.01, eval);
  // Rungs 300k, 330k, 363k, 399.3k, 439.2k pass; 483.2k fails.
  CHECK(near(r.rate, 300'000 * std::pow(1.1, 4), 1e-9));
  CHECK(r.rungs.size() == 6);
  // A growing backlog fails a rung even with no misses.
  const auto g = perfbench::slo_ladder(100, 2, 5, 0.01, [](double rate) {
    perfbench::LadderStep s;
    s.sent = 100;
    s.backlog_grew = rate > 300;
    return s;
  });
  CHECK(g.rate == 200);
  // First rung failing gives 0; never failing gives the top rung.
  CHECK(perfbench::slo_ladder(100, 2, 3, 0.01, [](double) {
          return perfbench::LadderStep{100, 50, false};
        }).rate == 0);
  CHECK(perfbench::slo_ladder(100, 2, 3, 0.01, [](double) {
          return perfbench::LadderStep{100, 1, false};
        }).rate == 400);
}

}  // namespace

int main() {
  test_hist_uniform();
  test_hist_small_and_exact();
  test_hist_exponential();
  test_quantile();
  test_schedule();
  test_open_loop_lateness();
  test_once_set();
  test_slo_ladder();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
