// Self-tests of the benchmark's measurement harness: the tail rule, self-time
// subtraction on a hand-built span tree, and due-time latency against a fake
// wire that stalls. Run with `python3 perfbench/run.py --selftest`; exits
// nonzero on the first failed check.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Clock;
using std::chrono::milliseconds;

int failures = 0;

void Check(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

bool Near(double a, double b, double tolerance) {
  return std::fabs(a - b) <= tolerance;
}

void TestTailRule() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  perfbench::Tail tail = perfbench::TailQuantile(samples);
  Check(Near(tail.q, 0.99, 1e-12) && tail.samples == 1000,
        "tail rule: 1000 samples support p99");
  Check(Near(tail.value, perfbench::Quantile(samples, 0.99), 1e-9),
        "tail rule: value is the p99 quantile");

  samples.resize(100);
  tail = perfbench::TailQuantile(samples);
  Check(Near(tail.q, 0.90, 1e-12) && tail.samples == 100,
        "tail rule: 100 samples support only p90");
  size_t beyond = 0;
  for (double s : samples) beyond += s > tail.value ? 1 : 0;
  Check(beyond >= 10, "tail rule: at least ten samples lie beyond the tail");

  samples.resize(19);
  tail = perfbench::TailQuantile(samples);
  Check(Near(tail.q, 0.5, 1e-12) && Near(tail.value, 10, 1e-9),
        "tail rule: under 20 samples the median is reported");
  Check(perfbench::TailQuantile({}).samples == 0 &&
            perfbench::TailQuantile({}).value == 0,
        "tail rule: empty sample reports 0 with count 0");
}

void TestSelfTimes() {
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](int ms) { return t0 + milliseconds(ms); };
  std::vector<perfbench::Span> spans;
  const auto add = [&spans](uint64_t id, uint64_t parent, Clock::time_point a,
                            Clock::time_point b, bool replayed) {
    perfbench::Span span;
    span.id = id;
    span.parent = parent;
    span.trace = 1;
    span.name = "s" + std::to_string(id);
    span.start = a;
    span.end = b;
    span.replayed = replayed;
    spans.push_back(span);
  };
  // request [0, 100): queue [0, 10), two overlapping live wires [10, 50) and
  // [40, 90) (union 80 ms), a live child poking past the end [95, 120)
  // (clipped to 5 ms).
  add(1, 0, at(0), at(100), false);
  add(2, 1, at(0), at(10), false);
  add(3, 1, at(10), at(50), false);
  add(4, 1, at(40), at(90), false);
  add(5, 1, at(95), at(120), false);
  // wire 3 is replayed in process after the fact: session 30 ms, whose
  // replayed child system takes 35 ms (5 ms longer than its parent).
  add(6, 3, at(200), at(230), true);
  add(7, 6, at(240), at(275), true);
  const perfbench::SelfTimes self = perfbench::ComputeSelfTimes(spans);
  Check(Near(self.self_ms.at(1), 100 - 10 - 80 - 5, 1e-6),
        "self time: live children count once where they overlap");
  Check(Near(self.self_ms.at(3), 40 - 30, 1e-6),
        "self time: a replayed child counts its whole duration");
  Check(Near(self.self_ms.at(6), 0, 1e-6) && Near(self.slack_ms, 5, 1e-6),
        "self time: a negative residue clamps to 0 and becomes slack");
  Check(Near(self.self_ms.at(7), 35, 1e-6), "self time: a leaf is all self");
}

void TestDueTimeLatency() {
  // Ten requests due every 10 ms on one connection; the fake wire answers in
  // 1 ms except request 2, which stalls for 100 ms.
  std::vector<perfbench::Arrival> arrivals;
  for (size_t i = 0; i < 10; ++i) {
    arrivals.push_back({milliseconds(10 * static_cast<int>(i)), i});
  }
  const Clock::time_point start = Clock::now() + milliseconds(5);
  const std::vector<perfbench::RequestTiming> timings =
      perfbench::RunOpenLoop(arrivals, start, [](size_t op) {
        std::this_thread::sleep_for(milliseconds(op == 2 ? 100 : 1));
        return true;
      });
  Check(timings.size() == 10, "open loop: every request is sent");
  // Request 3 was due at 30 ms but could leave only when request 2 returned
  // near 120 ms: ~90 ms of latency although its own service took ~1 ms.
  Check(timings[3].latency_ms() > 80 && perfbench::Ms(timings[3].end -
                                                      timings[3].start) < 20,
        "open loop: a stall is charged to the request queued behind it");
  Check(timings[4].latency_ms() > 70,
        "open loop: ... and to every later request still in the backlog");
  Check(timings[0].latency_ms() < 20, "open loop: an unqueued request is fast");
  double max_lag = 0;
  for (const auto& t : timings) max_lag = std::max(max_lag, t.lag_ms);
  Check(max_lag < 20, "open loop: backlog waiting is not counted as lag");
  Check(std::all_of(timings.begin(), timings.end(),
                    [](const perfbench::RequestTiming& t) { return t.ok; }),
        "open loop: send results are recorded");
}

void TestArrivals() {
  const auto a = perfbench::PoissonArrivals(7, 50, 10, 3);
  const auto b = perfbench::PoissonArrivals(7, 50, 10, 3);
  const auto c = perfbench::PoissonArrivals(8, 50, 10, 3);
  size_t total = 0;
  bool same = a.size() == b.size();
  for (size_t i = 0; i < a.size() && same; ++i) {
    total += a[i].size();
    same = a[i].size() == b[i].size();
    for (size_t j = 0; same && j < a[i].size(); ++j) {
      same = a[i][j].due == b[i][j].due && a[i][j].op == b[i][j].op;
    }
  }
  Check(same, "arrivals: the same seed gives the same schedule");
  Check(a[0].size() != c[0].size() || a[0][0].due != c[0][0].due,
        "arrivals: another seed gives another schedule");
  Check(total == 500, "arrivals: exactly rate x seconds requests");
}

}  // namespace

int main() {
  TestTailRule();
  TestSelfTimes();
  TestDueTimeLatency();
  TestArrivals();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
