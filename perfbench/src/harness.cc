#include "harness.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <utility>

namespace perfbench {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tail TailQuantile(const std::vector<double>& samples, double cap) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.size() >= 20) {
    tail.q = std::min(cap, 1.0 - 10.0 / static_cast<double>(samples.size()));
  }
  tail.value = Quantile(samples, tail.q);
  return tail;
}

std::vector<std::vector<Arrival>> PoissonArrivals(uint64_t seed, double rate,
                                                  double seconds,
                                                  size_t connections) {
  std::mt19937_64 rng(seed);
  // Uniform in [0, 1) from the top 53 bits: portable, unlike the standard
  // distributions, whose algorithms are left to the library.
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  // A Poisson process conditioned on its count: exactly rate x seconds
  // arrivals at exponentially spaced times rescaled onto the window, so
  // every run of a workload carries the same number of samples.
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<double> at(count + 1);
  double t = 0;
  for (double& x : at) {
    t += -std::log(1.0 - uniform());
    x = t;
  }
  std::vector<std::vector<Arrival>> out(connections);
  for (size_t op = 0; op < count; ++op) {
    out[op % connections].push_back(
        {std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(seconds * at[op] / at[count])),
         op});
  }
  return out;
}

std::vector<RequestTiming> RunOpenLoop(
    const std::vector<Arrival>& arrivals, Clock::time_point phase_start,
    const std::function<bool(size_t op)>& send,
    const std::function<void(size_t op)>& after) {
  std::vector<RequestTiming> timings;
  timings.reserve(arrivals.size());
  Clock::time_point free_at = phase_start;
  for (const Arrival& arrival : arrivals) {
    RequestTiming timing;
    timing.due = phase_start + arrival.due;
    std::this_thread::sleep_until(timing.due);
    timing.start = Clock::now();
    timing.lag_ms = Ms(timing.start - std::max(timing.due, free_at));
    timing.ok = send(arrival.op);
    timing.end = Clock::now();
    timings.push_back(timing);
    if (after != nullptr) after(arrival.op);
    free_at = Clock::now();
  }
  return timings;
}

uint64_t Tracer::Open(std::string name, uint64_t parent, uint64_t trace,
                      bool replayed, Clock::time_point start) {
  Span span;
  span.id = id_base_ + spans_.size() + 1;
  span.parent = parent;
  span.trace = trace;
  span.name = std::move(name);
  span.start = start;
  span.end = start;
  span.replayed = replayed;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Close(uint64_t id, Clock::time_point end) {
  spans_.at(id - id_base_ - 1).end = end;
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, const Span*> by_id;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) by_id[span.id] = &span;
  for (const Span& span : spans) {
    if (span.parent != 0 && by_id.count(span.parent) != 0) {
      children[span.parent].push_back(&span);
    }
  }
  SelfTimes out;
  for (const Span& span : spans) {
    double covered = 0;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> live;
    for (const Span* child : children[span.id]) {
      if (child->replayed) {
        covered += child->ms();
        continue;
      }
      const Clock::time_point from = std::max(child->start, span.start);
      const Clock::time_point to = std::min(child->end, span.end);
      if (from < to) live.emplace_back(from, to);
    }
    // Union of the live intervals: overlapping children count once.
    std::sort(live.begin(), live.end());
    Clock::time_point reach = span.start;
    for (const auto& [from, to] : live) {
      const Clock::time_point begin = std::max(from, reach);
      if (to > begin) {
        covered += Ms(to - begin);
        reach = to;
      }
    }
    const double self = span.ms() - covered;
    if (self < 0) out.slack_ms += -self;
    out.self_ms[span.id] = std::max(0.0, self);
  }
  return out;
}

}  // namespace perfbench
