#ifndef SYSTOLIC_PERFBENCH_HARNESS_H_
#define SYSTOLIC_PERFBENCH_HARNESS_H_

// Workload-independent measurement machinery of the serving benchmark:
// percentiles under the tail rule, seeded open-loop arrivals, the due-time
// open-loop sender, and in-memory spans with self-time subtraction. Nothing
// here knows about the database; tests/harness_test.cc covers all of it.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d);

/// The q-quantile (q in [0, 1]) of `samples`, interpolating linearly between
/// closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// A tail percentile chosen by the tail rule: the highest quantile, capped at
/// `cap`, that leaves at least ten samples beyond it. Below 20 samples no
/// quantile above the median qualifies, so the median is reported.
struct Tail {
  double q = 0.5;
  double value = 0;
  size_t samples = 0;
};
Tail TailQuantile(const std::vector<double>& samples, double cap = 0.99);

/// One request of an open-loop schedule: due `due` after the phase starts;
/// `op` indexes the workload's generated request list.
struct Arrival {
  Clock::duration due{};
  size_t op = 0;
};

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// their count (exactly rate x seconds of them), dealt round-robin to
/// `connections` connections (as a balancing proxy would), deterministic in
/// `seed`. Requests are numbered in global due order.
std::vector<std::vector<Arrival>> PoissonArrivals(uint64_t seed, double rate,
                                                  double seconds,
                                                  size_t connections);

/// What one open-loop request saw.
struct RequestTiming {
  Clock::time_point due;
  Clock::time_point start;
  Clock::time_point end;
  bool ok = false;
  /// How late the sender itself started the request: start minus the later
  /// of its due time and the previous request's completion. Waiting for an
  /// earlier request on the connection is the system's backlog, not lag.
  double lag_ms = 0;
  double latency_ms() const { return Ms(end - due); }
};

/// Sends `arrivals` (in due order) one at a time on one connection: each
/// request is sent at its due time, or as soon as the request before it
/// completes if that is later. Latency is timed from the due time, so a
/// stall is charged to every request queued behind it. `send(op)` performs
/// the request and returns whether it succeeded; `after(op)`, when given,
/// runs once the request's end is recorded (the traced run's replays), and
/// the time it takes delays later requests like any other backlog.
std::vector<RequestTiming> RunOpenLoop(
    const std::vector<Arrival>& arrivals, Clock::time_point phase_start,
    const std::function<bool(size_t op)>& send,
    const std::function<void(size_t op)>& after = nullptr);

/// A timed call into one layer. Spans of one request share `trace`; `parent`
/// is the span that caused it (0 for a root). A `replayed` span re-executes
/// part of its parent's work after the parent ended, so its whole duration
/// counts against the parent rather than an interval inside it.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  bool replayed = false;
  double ms() const { return Ms(end - start); }
};

/// Per-thread span recorder; spans stay in memory until the run ends.
class Tracer {
 public:
  /// Span ids are `id_base` + 1, + 2, ...; give each thread a disjoint base.
  explicit Tracer(uint64_t id_base) : id_base_(id_base) {}

  uint64_t Open(std::string name, uint64_t parent, uint64_t trace,
                bool replayed = false, Clock::time_point start = Clock::now());
  void Close(uint64_t id, Clock::time_point end = Clock::now());
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t id_base_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, uint64_t parent, uint64_t trace,
            bool replayed)
      : tracer_(tracer),
        id_(tracer->Open(std::move(name), parent, trace, replayed)) {}
  ~SpanScope() { tracer_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Self times of a set of spans: each span's duration minus what its
/// children cover — the union of its live children's intervals clipped to
/// the span, plus the whole duration of each replayed child. A replayed
/// child measured longer than its parent leaves a negative residue; it is
/// clamped to 0 and added to `slack_ms`, so the self times of a tree sum to
/// its root's duration plus `slack_ms`.
struct SelfTimes {
  std::map<uint64_t, double> self_ms;
  double slack_ms = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // SYSTOLIC_PERFBENCH_HARNESS_H_
