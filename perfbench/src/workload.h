#ifndef SYSTOLIC_PERFBENCH_WORKLOAD_H_
#define SYSTOLIC_PERFBENCH_WORKLOAD_H_

// The benchmark's three workloads: generated relations, the request mix, and
// every reply's expected contents. Everything here is a pure function of the
// workload name and the seed; the server only ever sees the rendered command
// lines and the relations.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "system/transaction.h"
#include "util/result.h"

namespace perfbench {

namespace rel = systolic::rel;
namespace machine = systolic::machine;

/// Server and client shape of one workload.
struct WorkloadSpec {
  std::string name;
  /// Client connections, one sender thread each (never above nproc).
  size_t connections = 4;
  /// The sessions' `SET BACKEND` value.
  std::string backend = "fast";
  /// Chips in the server's shared pool and their grid rows (the §8 tile).
  size_t chips = 1;
  size_t rows = 63;
  /// Plans admitted at once (ServerConfig::max_concurrent_plans).
  size_t admission = 1;
  /// Whether sessions keep durability on: STOREs and COMMIT sinks go
  /// through group commit and the WAL. Off, the durable directory only
  /// holds the recovered base relations.
  bool durable_writes = false;
  /// Open-loop offered rate, requests per second.
  double rate = 1;
  /// The traced run replays every n-th request through the layers.
  size_t replay_every = 1;
};

/// One relational step with everything needed to render, plan, replay and
/// check it. Outputs are named "o<i>"; the renderer maps them to per-session
/// buffer names.
struct StepDesc {
  machine::OpKind op = machine::OpKind::kIntersect;
  std::string left;
  std::string right;
  std::string out;
  /// SELECT constant (column c0 equals this value).
  int64_t value = 0;
};

/// A relational request shape: one step, or a BEGIN..COMMIT transaction.
struct Shape {
  size_t id = 0;
  std::string family;  ///< "intersect", "join", "dedup", "divide", "select", "txn".
  bool transaction = false;
  std::vector<StepDesc> steps;
  machine::Transaction txn;  ///< The steps, for the planner and engine replays.
  /// Expected contents of every step output, by output name.
  std::map<std::string, const rel::Relation*> expected;
  /// The transaction's sinks, and the buffers a planned COMMIT leaves behind
  /// (sinks plus surviving intermediates), which the request releases.
  std::vector<std::string> sinks;
  std::vector<std::string> remaining;
  /// Tuple lines of the first sink, which a transaction PRINTs.
  const std::string* print_rows = nullptr;
};

/// One protocol frame and what its reply must show.
struct Frame {
  std::string line;
  /// "<n> tuples" the reply must report (-1: not checked).
  int64_t expect_tuples = -1;
  /// PRINT: the tuple lines the reply must contain, exactly and in order.
  const std::string* expect_rows = nullptr;
  /// Durable writes an OK reply acknowledges: (disk name, contents).
  std::vector<std::pair<std::string, const rel::Relation*>> puts;
  /// Relational command or COMMIT: the reply reports device pulses.
  bool reports_pulses = false;
  /// LOAD of a relation another session keeps rewriting.
  bool shared_load = false;
  /// The relational step a single-command frame runs (null otherwise).
  const StepDesc* step = nullptr;
  /// COMMIT of a planned transaction.
  bool commit_verb = false;
};

/// One client request: the frames sent back to back on one connection.
struct Request {
  /// Engine op family, or "txn", "print", "load", "store".
  std::string family;
  std::vector<Frame> frames;
  /// The same request under "m"-prefixed names, for the traced run's
  /// in-process mirror session (so replayed writes never touch live names).
  std::vector<Frame> mirror_frames;
  /// Relational shape for the layer replays; null for PRINT/LOAD/STORE.
  const Shape* shape = nullptr;
};

class Workload {
 public:
  /// The workload named `name` ("oltp-commit", "analytic-tiled", "rtl-sim")
  /// with relations generated from `seed`.
  static systolic::Result<std::unique_ptr<Workload>> Make(
      const std::string& name, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  /// Base relations: written to the durable directory, recovered by the
  /// server at start-up, LOADed by every session.
  const std::map<std::string, rel::Relation>& base() const { return base_; }
  /// Per-session relations other sessions LOAD, seeded into the server's
  /// shared catalog; STOREs rewrite them with identical contents.
  const std::map<std::string, const rel::Relation*>& shared() const {
    return shared_;
  }
  /// Commands every session runs once after connecting.
  const std::vector<std::string>& setup_lines() const { return setup_lines_; }

  /// Request number `index` as sent on connection `conn`. Deterministic in
  /// (seed, index, conn); the request-class mix is exact within each deck of
  /// ten consecutive indices.
  Request Generate(uint64_t index, size_t conn) const;

  /// Tuple lines of `relation` as PRINT shows them (header line dropped).
  static std::string TupleLines(const rel::Relation& relation);

 private:
  Workload(WorkloadSpec spec, uint64_t seed);
  systolic::Status Build();
  systolic::Status AddShape(std::string family, std::vector<StepDesc> steps,
                            bool transaction, bool heavy);
  const rel::Relation* Keep(rel::Relation relation);
  const std::string* Rows(const rel::Relation* relation);
  Request RenderShape(const Shape& shape, size_t conn) const;
  std::vector<Frame> ShapeFrames(const Shape& shape, size_t conn,
                                 const std::string& prefix) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  rel::Schema schema_;
  std::map<std::string, rel::Relation> base_;
  std::vector<std::string> base_names_;
  std::map<std::string, const rel::Relation*> shared_;
  std::vector<std::string> setup_lines_;
  std::deque<rel::Relation> kept_;
  std::map<const rel::Relation*, std::string> rows_;
  std::vector<std::unique_ptr<Shape>> shapes_;
  /// family -> shape indices (light sizes, in size order); heavy shapes
  /// separately.
  std::map<std::string, std::vector<size_t>> light_;
  std::vector<size_t> heavy_;
  /// The ten request classes of one deck, before the per-deck shuffle.
  std::vector<char> deck_;
};

}  // namespace perfbench

#endif  // SYSTOLIC_PERFBENCH_WORKLOAD_H_
