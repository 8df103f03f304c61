// Client-side serving benchmark: one process embeds the real server
// (Server::Create -> Listen/Serve) over a durable directory and drives it
// through the loopback socket with ReliableClient, one sender thread per
// connection. METRICS.md describes every workload and metric.
//
//   serving_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir>
//
// --trace 0 measures the end-to-end metrics: setup (median of three), an
// open-loop phase at the workload's offered rate (70% of the run) and a
// closed-loop capacity phase (30%). --trace 1 measures the per-layer
// metrics: an untraced open-loop phase (40%), then a traced one (60%) whose
// requests are replayed through each layer (replay.h). Every reply is checked
// against the reference operators, and after a durable run the directory is
// reopened to check that every acknowledged write is present and identical.
// The human summary goes to stderr; the last stdout line is the JSON result.
// Exits 1 on any failed request, mismatch or invalid run.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "durability/durable_catalog.h"
#include "harness.h"
#include "replay.h"
#include "server/reliable_client.h"
#include "server/server.h"
#include "system/scratchpad/memory.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace db = systolic::db;
namespace durability = systolic::durability;
namespace fs = std::filesystem;
namespace server = systolic::server;
using systolic::Result;
using systolic::Status;

/// Setups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;
constexpr size_t kWarmupPerConnection = 2;
/// Share of an untraced run spent in the open-loop phase; the closed-loop
/// capacity phase takes the rest.
constexpr double kOpenShare = 0.7;
/// peak_rss_mb is the median over the measured phases of each window's
/// peak resident set: one run's single peak depends on whether two large
/// queries happened to overlap, the typical window peak does not.
constexpr auto kRssWindow = std::chrono::seconds(1);
/// A run whose sender started requests later than this (p99) is invalid.
constexpr double kMaxLagMs = 50;
/// The traced run's stated bound on self-time slack: per replayed request,
/// |sum of self times - request span| over the request span.
constexpr double kSlackBound = 0.05;
/// Request-index ranges, so each phase draws its own requests (multiples of
/// the deck size keep every deck's class mix exact).
constexpr uint64_t kWarmupBase = 1'000'000'000;
constexpr uint64_t kClosedBase = 2'000'000'000;
constexpr uint64_t kClosedStride = 10'000'000;
constexpr uint64_t kBaselineBase = 3'000'000'000;
constexpr uint64_t kTracedBase = 4'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Status::InvalidArgument("bad --seed " + value);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) {
        return Status::InvalidArgument("bad --seconds " + value);
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
      have_workdir = true;
    } else {
      return Status::InvalidArgument("unknown flag " + key);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_workdir) {
    return Status::InvalidArgument(
        "usage: serving_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir>");
  }
  return args;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The integer just before the first `marker` in `text`; -1 if none.
int64_t NumberBefore(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return -1;
  size_t begin = at;
  while (begin > 0 && std::isdigit(static_cast<unsigned char>(text[begin - 1]))) {
    --begin;
  }
  return begin == at ? -1 : std::stoll(text.substr(begin, at - begin));
}

/// The integer just after the first `marker` in `text`; -1 if none.
int64_t NumberAfter(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return -1;
  size_t end = at + marker.size();
  while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  const size_t begin = at + marker.size();
  return end == begin ? -1 : std::stoll(text.substr(begin, end - begin));
}

/// Checks one reply against the frame's expectations; an empty string when
/// it matches. Adds the pulses the reply reports to `pulses`.
std::string CheckReply(const Frame& frame, const std::string& output,
                       double* pulses) {
  if (frame.expect_tuples >= 0) {
    const int64_t reported = NumberBefore(output, " tuples");
    if (reported != frame.expect_tuples) {
      return "reply reports " + std::to_string(reported) +
             " tuples, the reference operator " +
             std::to_string(frame.expect_tuples);
    }
  }
  if (frame.expect_rows != nullptr) {
    const size_t newline = output.find('\n');
    const std::string rows =
        newline == std::string::npos ? "" : output.substr(newline + 1);
    if (rows != *frame.expect_rows) {
      return "printed tuples differ from the reference";
    }
  }
  if (frame.reports_pulses) {
    const int64_t reported = frame.commit_verb
                                 ? NumberAfter(output, "measured ")
                                 : NumberBefore(output, " pulses");
    if (reported < 0) return "reply reports no pulse count";
    *pulses += static_cast<double>(reported);
  }
  return "";
}

/// What one connection saw during one phase.
struct PhaseLog {
  std::vector<double> latency_ms;
  std::vector<double> commit_ms;
  std::vector<double> lag_ms;
  /// Open-loop latency by request family, for the human summary.
  std::map<std::string, std::vector<double>> family_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t completed = 0;
  double pulses = 0;
  size_t queries = 0;
  double acked_bytes = 0;
  Clock::time_point last_end;
};

struct Conn {
  size_t index = 0;
  server::ReliableClient client;
  Tracer tracer{0};
  std::unique_ptr<ReplayStack> replay;
  LayerStats layers;
  /// Durable writes the server acknowledged over the socket.
  std::vector<std::pair<std::string, const rel::Relation*>> acked;
  std::vector<std::string> errors;
  std::vector<std::string> mismatches;
};

/// Sends every frame of `request` back to back and checks each reply.
/// `root` != 0 records a live wire span per frame under it.
bool SendRequest(Conn& conn, const Request& request, PhaseLog* log,
                 uint64_t root, uint64_t trace,
                 std::vector<uint64_t>* wire_spans) {
  ++log->attempted;
  double pulses = 0;
  for (const Frame& frame : request.frames) {
    const uint64_t wire =
        root != 0 ? conn.tracer.Open("wire", root, trace) : 0;
    const Clock::time_point sent = Clock::now();
    Result<server::Client::Reply> reply = conn.client.Execute(frame.line);
    // Commit latency is the committing frame's own round trip (a STORE, or
    // a transaction's COMMIT, which is due when the frame before it is
    // answered): the durable-commit path without the connection's backlog,
    // which latency_* already carry.
    if (frame.commit_verb || !frame.puts.empty()) {
      log->commit_ms.push_back(Ms(Clock::now() - sent));
    }
    if (root != 0) {
      conn.tracer.Close(wire);
      wire_spans->push_back(wire);
    }
    if (!reply.ok() || !reply->ok) {
      ++log->failed;
      if (conn.errors.size() < 8) {
        conn.errors.push_back(frame.line + ": " +
                              (reply.ok() ? reply->error
                                          : reply.status().ToString()));
      }
      return false;
    }
    const std::string problem = CheckReply(frame, reply->output, &pulses);
    if (!problem.empty()) {
      ++log->failed;
      conn.mismatches.push_back(frame.line + ": " + problem);
      return false;
    }
    for (const auto& put : frame.puts) {
      conn.acked.push_back(put);
      log->acked_bytes += machine::RelationBytes(*put.second);
    }
  }
  if (request.shape != nullptr) {
    log->pulses += pulses;
    ++log->queries;
  }
  return true;
}

/// The embedded server and its client connections.
class Stack {
 public:
  Stack() = default;
  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Copies the golden directory to `dir`, starts the server on it (which
  /// recovers the base relations), seeds the shared relations, listens,
  /// connects every session and runs its set-up commands and warm-up.
  Status Start(const Workload& workload, const std::string& golden,
               const std::string& dir) {
    dir_ = dir;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::copy(golden, dir, fs::copy_options::recursive, ec);
    if (ec) return Status::IOError("copy " + golden + ": " + ec.message());
    const Clock::time_point start = Clock::now();

    const WorkloadSpec& spec = workload.spec();
    server::ServerConfig config;
    config.machine.num_memories = workload.base().size() + 8;
    config.machine.device.rows = spec.rows;
    config.num_chips = spec.chips;
    config.max_concurrent_plans = spec.admission;
    config.max_queued_plans = 64;
    config.durable_dir = dir;
    SYSTOLIC_ASSIGN_OR_RETURN(server_, server::Server::Create(config));
    for (const auto& [name, relation] : workload.shared()) {
      SYSTOLIC_RETURN_NOT_OK(server_->catalog().Seed(name, *relation));
    }
    SYSTOLIC_RETURN_NOT_OK(server_->Listen(0));
    serve_ = std::thread([this] { serve_status_ = server_->Serve(); });
    const uint16_t port = server_->port();

    std::vector<Status> statuses(spec.connections, Status::OK());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < spec.connections; ++c) {
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->index = c;
    }
    for (size_t c = 0; c < spec.connections; ++c) {
      threads.emplace_back([&, c] {
        statuses[c] = Connect(workload, *conns_[c], port);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Status& status : statuses) SYSTOLIC_RETURN_NOT_OK(status);
    setup_seconds_ =
        std::chrono::duration<double>(Clock::now() - start).count();
    return Status::OK();
  }

  /// Builds and initialises every connection's replay stack (traced runs).
  Status StartReplays(const Workload& workload, const std::string& workdir) {
    const size_t chips = workload.spec().chips;
    if (chips > 1) replay_pool_ = std::make_shared<db::ChipPool>(chips);
    for (auto& conn : conns_) {
      conn->tracer = Tracer((conn->index + 1) << 40);
      conn->replay = std::make_unique<ReplayStack>(
          workload, server_.get(), replay_pool_,
          workdir + "/replay-c" + std::to_string(conn->index), conn->index);
      SYSTOLIC_RETURN_NOT_OK(conn->replay->Init());
    }
    return Status::OK();
  }

  /// Says goodbye on every connection, drains the server (every
  /// acknowledged commit flushed), joins its thread and destroys it.
  void Stop() {
    for (auto& conn : conns_) {
      conn->replay.reset();
      conn->client.Close();
    }
    if (server_ != nullptr) server_->RequestDrain();
    if (serve_.joinable()) serve_.join();
    server_.reset();
  }

  server::Server& server() { return *server_; }
  std::vector<std::unique_ptr<Conn>>& conns() { return conns_; }
  double setup_seconds() const { return setup_seconds_; }
  const std::string& dir() const { return dir_; }

 private:
  static Status Connect(const Workload& workload, Conn& conn, uint16_t port) {
    server::ReliableClientOptions options;
    options.port = port;
    options.io_timeout_ms = 60'000;
    options.backoff_seed = conn.index + 1;
    SYSTOLIC_ASSIGN_OR_RETURN(conn.client,
                              server::ReliableClient::Connect(options));
    for (const std::string& line : workload.setup_lines()) {
      SYSTOLIC_ASSIGN_OR_RETURN(const server::Client::Reply reply,
                                conn.client.Execute(line));
      if (!reply.ok) return Status::Internal(line + ": " + reply.error);
    }
    PhaseLog warmup;
    for (size_t i = 0; i < kWarmupPerConnection; ++i) {
      const Request request = workload.Generate(
          kWarmupBase + conn.index * 10 + i, conn.index);
      if (!SendRequest(conn, request, &warmup, 0, 0, nullptr)) {
        return Status::Internal("warm-up request failed on connection " +
                                std::to_string(conn.index));
      }
    }
    return Status::OK();
  }

  std::string dir_;
  std::unique_ptr<server::Server> server_;
  Status serve_status_ = Status::OK();
  std::vector<std::unique_ptr<Conn>> conns_;
  std::shared_ptr<db::ChipPool> replay_pool_;
  double setup_seconds_ = 0;
  std::thread serve_;
};

/// The process's peak resident set (VmHWM) in MB; ru_maxrss when /proc is
/// not readable.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      unsigned long kb = 0;
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
        std::fclose(status);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(status);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Restarts the peak-RSS count from the current resident set, so the
/// benchmark's own input generation and reference results do not set it.
void ResetPeakRss() {
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return;
  std::fputs("5", clear);
  std::fclose(clear);
}

/// Merged result of one phase.
struct Phase {
  PhaseLog total;
  double seconds = 0;
  std::vector<double> queue_depth;
  /// Peak resident set of each whole kRssWindow of the phase, in MB.
  std::vector<double> window_rss_mb;
  bool replay_failed = false;
};

void MergeLog(const PhaseLog& log, PhaseLog* total) {
  const auto append = [](const std::vector<double>& from,
                         std::vector<double>* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(log.latency_ms, &total->latency_ms);
  append(log.commit_ms, &total->commit_ms);
  append(log.lag_ms, &total->lag_ms);
  for (const auto& [family, samples] : log.family_ms) {
    append(samples, &total->family_ms[family]);
  }
  total->attempted += log.attempted;
  total->failed += log.failed;
  total->completed += log.completed;
  total->pulses += log.pulses;
  total->queries += log.queries;
  total->acked_bytes += log.acked_bytes;
  total->last_end = std::max(total->last_end, log.last_end);
}

/// Waits for `threads` (one per connection) while the calling thread samples
/// the admission queue depth every 2 ms and, once per kRssWindow, the peak
/// resident set of the window just ended.
void RunSampling(Stack& stack, std::vector<std::thread>* threads,
                 std::atomic<size_t>* running, Phase* phase) {
  Clock::time_point window_start = Clock::now();
  while (running->load() > 0) {
    phase->queue_depth.push_back(
        static_cast<double>(stack.server().scheduler().queue_depth()));
    if (Clock::now() - window_start >= kRssWindow) {
      phase->window_rss_mb.push_back(PeakRssMb());
      ResetPeakRss();
      window_start = Clock::now();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& thread : *threads) thread.join();
}

/// Open loop: seeded Poisson arrivals at the workload's rate, each sent on
/// its connection at its due time (or when the connection frees up) and
/// timed from the due time. Traced phases record spans and replay every
/// `replay_every`-th request through the layers after it completes.
Phase RunOpenPhase(Stack& stack, const Workload& workload, uint64_t seed,
                   double seconds, uint64_t index_base, bool traced) {
  const WorkloadSpec& spec = workload.spec();
  const size_t connections = spec.connections;
  const auto arrivals = PoissonArrivals(Mix(seed, index_base), spec.rate,
                                        seconds, connections);
  std::vector<std::vector<Request>> requests(connections);
  std::vector<std::vector<Arrival>> local(connections);
  for (size_t c = 0; c < connections; ++c) {
    for (size_t j = 0; j < arrivals[c].size(); ++j) {
      requests[c].push_back(
          workload.Generate(index_base + arrivals[c][j].op, c));
      local[c].push_back({arrivals[c][j].due, j});
    }
  }
  Phase phase;
  std::vector<PhaseLog> logs(connections);
  std::atomic<size_t> running(connections);
  std::atomic<bool> replay_failed(false);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *stack.conns()[c];
      PhaseLog& log = logs[c];
      std::vector<uint64_t> wires;
      bool last_ok = false;
      const auto trace_of = [&](size_t j) {
        return index_base + arrivals[c][j].op + 1;
      };
      const auto send = [&](size_t j) {
        wires.clear();
        uint64_t root = 0;
        const uint64_t trace = trace_of(j);
        if (traced) {
          const Clock::time_point due = start + local[c][j].due;
          root = conn.tracer.Open("request", 0, trace, false, due);
          const uint64_t queue =
              conn.tracer.Open("loadgen.queue", root, trace, false, due);
          conn.tracer.Close(queue);
        }
        last_ok = SendRequest(conn, requests[c][j], &log, root, trace, &wires);
        if (traced) conn.tracer.Close(root);
        return last_ok;
      };
      const auto after = [&](size_t j) {
        if (!traced || !last_ok) return;
        if ((index_base + arrivals[c][j].op) % spec.replay_every != 0) return;
        const Status replayed = conn.replay->Replay(
            requests[c][j], wires, trace_of(j), &conn.tracer, &conn.layers);
        if (!replayed.ok()) {
          replay_failed = true;
          if (conn.errors.size() < 8) {
            conn.errors.push_back("replay: " + replayed.ToString());
          }
        }
      };
      const std::vector<RequestTiming> timings = RunOpenLoop(
          local[c], start, send,
          traced ? std::function<void(size_t)>(after) : nullptr);
      for (size_t j = 0; j < timings.size(); ++j) {
        log.latency_ms.push_back(timings[j].latency_ms());
        log.lag_ms.push_back(timings[j].lag_ms);
        log.family_ms[requests[c][j].family].push_back(
            timings[j].latency_ms());
        log.completed += timings[j].ok ? 1 : 0;
        log.last_end = std::max(log.last_end, timings[j].end);
      }
      --running;
    });
  }
  RunSampling(stack, &threads, &running, &phase);
  for (const PhaseLog& log : logs) MergeLog(log, &phase.total);
  phase.seconds = seconds;
  phase.replay_failed = replay_failed.load();
  return phase;
}

/// Closed loop: every connection sends its next request as soon as the last
/// one completes, for `seconds`; capacity is completed requests per second.
Phase RunClosedPhase(Stack& stack, const Workload& workload, double seconds) {
  const size_t connections = workload.spec().connections;
  Phase phase;
  std::vector<PhaseLog> logs(connections);
  std::atomic<size_t> running(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *stack.conns()[c];
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const Request request =
            workload.Generate(kClosedBase + c * kClosedStride + i, c);
        if (SendRequest(conn, request, &logs[c], 0, 0, nullptr)) {
          ++logs[c].completed;
        }
        logs[c].last_end = Clock::now();
      }
      --running;
    });
  }
  RunSampling(stack, &threads, &running, &phase);
  for (const PhaseLog& log : logs) MergeLog(log, &phase.total);
  phase.seconds =
      std::chrono::duration<double>(phase.total.last_end - start).count();
  return phase;
}

/// Writes the base relations into a fresh durable directory and
/// checkpoints it; every setup starts the server on a copy.
Status WriteGolden(const Workload& workload, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<durability::DurableCatalog> golden,
                            durability::DurableCatalog::Open(dir));
  for (const auto& [name, relation] : workload.base()) {
    SYSTOLIC_RETURN_NOT_OK(golden->Put(name, relation));
  }
  return golden->Checkpoint();
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<double>(size);
}

/// Reopens the durable directory and checks that every acknowledged write
/// is present with exactly the acknowledged contents (acked ⊆ applied).
std::vector<std::string> CheckDurable(
    const std::string& dir,
    const std::vector<std::pair<std::string, const rel::Relation*>>& acked) {
  std::vector<std::string> problems;
  Result<std::unique_ptr<durability::DurableCatalog>> reopened =
      durability::DurableCatalog::Open(dir);
  if (!reopened.ok()) {
    return {"reopen " + dir + ": " + reopened.status().ToString()};
  }
  std::map<std::string, const rel::Relation*> last;
  for (const auto& [name, relation] : acked) last[name] = relation;
  for (const auto& [name, relation] : last) {
    const Result<const rel::Relation*> got =
        (*reopened)->catalog().GetRelation(name);
    if (!got.ok()) {
      problems.push_back("acknowledged '" + name + "' is missing after reopen");
    } else if (Workload::TupleLines(**got) != Workload::TupleLines(*relation)) {
      problems.push_back("acknowledged '" + name + "' differs after reopen");
    }
  }
  return problems;
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Server-side counters at one instant, for phase deltas.
struct Counters {
  server::GroupCommitStats group;
  server::FairScheduler::Stats scheduler;
  durability::DurabilityStats wal;
  double wal_bytes = 0;
  size_t client_retries = 0;
};

Counters Snapshot(Stack& stack) {
  Counters counters;
  const server::ServerStats stats = stack.server().stats();
  counters.group = stats.group_commit;
  counters.scheduler = stats.scheduler;
  counters.wal = stack.server().catalog().durability_stats();
  counters.wal_bytes = FileBytes(stack.dir() + "/WAL");
  for (const auto& conn : stack.conns()) {
    counters.client_retries += conn->client.stats().retries;
  }
  return counters;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer metrics of a traced phase (see METRICS.md for each one).
std::vector<Metric> LayerMetrics(Stack& stack, const Phase& baseline,
                                 const Phase& traced, const Counters& before,
                                 const Counters& after, double* slack_frac) {
  std::vector<Span> spans;
  LayerStats layers;
  for (const auto& conn : stack.conns()) {
    spans.insert(spans.end(), conn->tracer.spans().begin(),
                 conn->tracer.spans().end());
    layers.Merge(conn->layers);
  }
  const SelfTimes self = ComputeSelfTimes(spans);
  std::map<std::string, std::vector<double>> durations;
  std::map<uint64_t, std::map<std::string, double>> self_by_trace;
  std::map<uint64_t, double> root_ms;
  for (const Span& span : spans) {
    durations[span.name].push_back(span.ms());
    if (span.name == "request") root_ms[span.trace] = span.ms();
    if (span.name != "verify") {
      self_by_trace[span.trace][span.name] += self.self_ms.at(span.id);
      self_by_trace[span.trace]["*"] += self.self_ms.at(span.id);
    }
  }
  std::map<std::string, std::vector<double>> per_request;
  double slack = 0;
  double roots = 0;
  for (const auto& [trace, by_name] : self_by_trace) {
    if (by_name.count("session") == 0) continue;  // not replayed
    for (const char* layer : {"wire", "session", "system"}) {
      const auto it = by_name.find(layer);
      per_request[layer].push_back(it == by_name.end() ? 0 : it->second);
    }
    slack += std::abs(by_name.at("*") - root_ms[trace]);
    roots += root_ms[trace];
  }
  *slack_frac = Ratio(slack, roots);

  const auto p50 = [&](const char* name) { return Median(durations[name]); };
  const auto tail = [&](const char* name) {
    return TailQuantile(durations[name]).value;
  };
  const double commits = static_cast<double>(after.group.commits -
                                             before.group.commits);
  const double batches = static_cast<double>(after.group.batches -
                                             before.group.batches);
  const double conflicts = static_cast<double>(after.group.conflicts -
                                               before.group.conflicts);
  const double admitted = static_cast<double>(after.scheduler.admitted -
                                              before.scheduler.admitted);
  const double rejected = static_cast<double>(after.scheduler.rejected -
                                              before.scheduler.rejected);
  const double queries = static_cast<double>(layers.queries);
  std::vector<double> lag = baseline.total.lag_ms;
  lag.insert(lag.end(), traced.total.lag_ms.begin(), traced.total.lag_ms.end());

  std::vector<Metric> metrics = {
      {"server.wire_self_ms", Median(per_request["wire"]), "ms"},
      {"server.client_retries_per_req",
       Ratio(static_cast<double>(after.client_retries - before.client_retries),
             static_cast<double>(traced.total.attempted)),
       "retries/req"},
      {"server.session_self_ms", Median(per_request["session"]), "ms"},
      {"server.load_ms", Median(layers.load_ms), "ms"},
      {"server.admit_queue_depth",
       traced.queue_depth.empty()
           ? 0
           : std::accumulate(traced.queue_depth.begin(),
                             traced.queue_depth.end(), 0.0) /
                 static_cast<double>(traced.queue_depth.size()),
       "count"},
      {"server.admit_rejected_frac", Ratio(rejected, admitted + rejected),
       "ratio"},
      {"server.group_commit_batch", Ratio(commits, batches), "commits/batch"},
      {"server.commit_group_ms.p50", p50("shared_catalog"), "ms"},
      {"server.commit_group_ms.p99", tail("shared_catalog"), "ms"},
      {"server.conflict_frac", Ratio(conflicts, commits + conflicts), "ratio"},
      {"durability.commit_ms", p50("durability"), "ms"},
      {"durability.wal_records_per_commit",
       Ratio(static_cast<double>(after.wal.wal_records -
                                 before.wal.wal_records),
             commits),
       "records/commit"},
      {"durability.wal_bytes_per_user_byte",
       Ratio(after.wal_bytes - before.wal_bytes,
             traced.total.acked_bytes + layers.put_bytes),
       "B/B"},
      {"system.command_self_ms", Median(per_request["system"]), "ms"},
      {"system.crossbar_bytes_per_query", Ratio(layers.crossbar_bytes, queries),
       "B/query"},
      {"planner.plan_ms", p50("planner"), "ms"},
      {"planner.pulse_saving_frac",
       layers.est_pulses_before == 0
           ? 0
           : 1 - layers.est_pulses / layers.est_pulses_before,
       "ratio"},
      {"verify.verify_ms", p50("verify"), "ms"},
  };
  for (const char* family : {"intersect", "join", "dedup", "divide", "select"}) {
    const std::vector<double>& samples = layers.engine_ms[family];
    metrics.push_back({std::string("core.engine_ms.") + family + ".p50",
                       Median(samples), "ms"});
    metrics.push_back({std::string("core.engine_ms.") + family + ".p99",
                       TailQuantile(samples).value, "ms"});
  }
  const std::vector<Metric> rest = {
      {"core.tiles_per_query", Ratio(static_cast<double>(layers.passes), queries),
       "tiles/query"},
      {"core.us_per_tile",
       Ratio(layers.engine_wall_s * 1e6, static_cast<double>(layers.passes)),
       "us/tile"},
      {"core.cpu_per_wall", Ratio(layers.engine_cpu_s, layers.engine_wall_s),
       "ratio"},
      {"fastpath.ns_per_cell", Ratio(layers.fast_ns, layers.fast_cells),
       "ns/cell"},
      {"spad.overlap_frac", Ratio(layers.overlap_cycles, layers.dma_cycles),
       "ratio"},
      {"spad.dma_pulses_per_query", Ratio(layers.dma_cycles, queries),
       "pulses/query"},
      {"rtl.pulses_per_s", Ratio(layers.rtl_cycles, layers.rtl_wall_s),
       "pulses/s"},
      {"rtl.cell_utilization",
       Ratio(layers.rtl_busy_cell_cycles, layers.rtl_offered_cell_cycles),
       "ratio"},
      {"loadgen.lag_p99_ms", TailQuantile(lag).value, "ms"},
      {"trace.overhead_frac",
       Ratio(Median(traced.total.latency_ms), Median(baseline.total.latency_ms)),
       "ratio"},
      {"trace.self_slack_frac", *slack_frac, "ratio"},
      {"trace.replayed_requests",
       static_cast<double>(per_request["wire"].size()), "count"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  return metrics;
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Run(const Args& args) {
  Result<std::unique_ptr<Workload>> made = Workload::Make(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "serving_bench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& workload = **made;
  const WorkloadSpec& spec = workload.spec();
  fs::create_directories(args.workdir);
  const std::string golden = args.workdir + "/golden";
  const std::string dir = args.workdir + "/server";
  Status status = WriteGolden(workload, golden);
  if (!status.ok()) {
    std::fprintf(stderr, "serving_bench: golden: %s\n", status.ToString().c_str());
    return 2;
  }
  double base_bytes = 0;
  for (const auto& [name, relation] : workload.base()) {
    base_bytes += machine::RelationBytes(relation);
  }

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  const size_t setups = args.trace ? 1 : kSetups;
  for (size_t i = 0; i < setups; ++i) {
    if (stack != nullptr) stack->Stop();
    stack = std::make_unique<Stack>();
    status = stack->Start(workload, golden, dir);
    if (!status.ok()) {
      std::fprintf(stderr, "serving_bench: setup: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    setup_s.push_back(stack->setup_seconds());
  }

  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;
  std::fprintf(stderr, "%s seed %llu: %zu connections, %s backend, %zu chip(s) "
               "of %zu rows, admission %zu, offered %.1f req/s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               spec.connections, spec.backend.c_str(), spec.chips, spec.rows,
               spec.admission, spec.rate);

  double slack_frac = 0;
  std::vector<double> lag;
  if (!args.trace) {
    const Phase open = RunOpenPhase(*stack, workload, args.seed,
                                    kOpenShare * args.seconds, 0, false);
    const Phase closed = RunClosedPhase(*stack, workload,
                                       (1 - kOpenShare) * args.seconds);
    std::vector<double> rss_windows = open.window_rss_mb;
    rss_windows.insert(rss_windows.end(), closed.window_rss_mb.begin(),
                       closed.window_rss_mb.end());
    attempted = open.total.attempted + closed.total.attempted;
    failed = open.total.failed + closed.total.failed;
    lag = open.total.lag_ms;
    const Tail latency_tail = TailQuantile(open.total.latency_ms);
    const Tail commit_tail = TailQuantile(open.total.commit_ms);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", Median(open.total.latency_ms), "ms"},
        {"latency_p99_ms", latency_tail.value, "ms"},
        {"commit_mean_ms",
         open.total.commit_ms.empty()
             ? 0
             : std::accumulate(open.total.commit_ms.begin(),
                               open.total.commit_ms.end(), 0.0) /
                   static_cast<double>(open.total.commit_ms.size()),
         "ms"},
        {"commit_p99_ms", commit_tail.value, "ms"},
        {"capacity_rps", Ratio(static_cast<double>(closed.total.completed),
                               closed.seconds),
         "1/s"},
        {"ok_frac",
         1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
        {"device_pulses_per_query",
         Ratio(open.total.pulses, static_cast<double>(open.total.queries)),
         "pulses"},
        {"peak_rss_mb", Median(rss_windows), "MB"},
    };
    std::fprintf(stderr,
                 "  open loop: %zu requests (tail p%.1f), %zu commits (tail "
                 "p%.1f); closed loop: %zu requests in %.2f s\n",
                 latency_tail.samples, 100 * latency_tail.q,
                 commit_tail.samples, 100 * commit_tail.q,
                 closed.total.completed, closed.seconds);
    for (const auto& [family, samples] : open.total.family_ms) {
      std::fprintf(stderr, "    %-10s %4zu requests, latency p50 %8.2f ms, max %8.2f ms\n",
                   family.c_str(), samples.size(), Median(samples),
                   Quantile(samples, 1.0));
    }
  } else {
    status = stack->StartReplays(workload, args.workdir);
    if (!status.ok()) {
      std::fprintf(stderr, "serving_bench: replay setup: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    const Phase baseline = RunOpenPhase(*stack, workload, args.seed,
                                        0.4 * args.seconds, kBaselineBase, false);
    const Counters before = Snapshot(*stack);
    const Phase traced = RunOpenPhase(*stack, workload, args.seed,
                                      0.6 * args.seconds, kTracedBase, true);
    const Counters after = Snapshot(*stack);
    if (traced.replay_failed) problems.push_back("a layer replay failed");
    attempted = baseline.total.attempted + traced.total.attempted;
    failed = baseline.total.failed + traced.total.failed;
    lag = baseline.total.lag_ms;
    lag.insert(lag.end(), traced.total.lag_ms.begin(), traced.total.lag_ms.end());
    metrics = LayerMetrics(*stack, baseline, traced, before, after, &slack_frac);
    std::fprintf(stderr,
                 "  traced: latency_p50_ms %.3f (untraced %.3f) over %zu "
                 "requests | server.wire_self_ms %.3f | core.us_per_tile %.3f "
                 "| self-time slack %.4f (stated bound %.2f)\n",
                 Median(traced.total.latency_ms),
                 Median(baseline.total.latency_ms),
                 traced.total.latency_ms.size(), metrics[0].value,
                 std::find_if(metrics.begin(), metrics.end(),
                              [](const Metric& m) {
                                return m.name == "core.us_per_tile";
                              })->value,
                 slack_frac, kSlackBound);
  }

  std::vector<std::pair<std::string, const rel::Relation*>> acked;
  for (const auto& conn : stack->conns()) {
    acked.insert(acked.end(), conn->acked.begin(), conn->acked.end());
    for (const std::string& e : conn->errors) problems.push_back(e);
    for (const std::string& m : conn->mismatches) {
      problems.push_back("mismatch: " + m);
    }
  }
  stack->Stop();
  if (!args.trace) {
    double user_bytes = base_bytes;
    for (const auto& put : acked) {
      user_bytes += machine::RelationBytes(*put.second);
    }
    metrics.push_back({"disk_bytes_per_user_byte",
                       Ratio(DirectoryBytes(dir), user_bytes), "B/B"});
  }
  if (spec.durable_writes) {
    for (const std::string& p : CheckDurable(dir, acked)) problems.push_back(p);
  }
  const double lag_p99 = TailQuantile(lag).value;
  if (args.trace && slack_frac > kSlackBound) {
    problems.push_back("self times miss the request spans by " +
                       std::to_string(slack_frac) + ", above the stated " +
                       std::to_string(kSlackBound));
  }
  if (lag_p99 > kMaxLagMs) {
    problems.push_back("invalid run: sender lag p99 " + std::to_string(lag_p99) +
                       " ms exceeds " + std::to_string(kMaxLagMs) + " ms");
  }

  PrintMetrics(metrics);
  std::fprintf(stderr,
               "  failed_frac %.6f (%zu of %zu requests), loadgen.lag_p99_ms "
               "%.3f, %zu acknowledged durable writes checked\n",
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               failed, attempted, lag_p99,
               spec.durable_writes ? acked.size() : size_t{0});
  for (const std::string& p : problems) {
    std::fprintf(stderr, "  PROBLEM: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const systolic::Result<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "serving_bench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
