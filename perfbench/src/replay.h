#ifndef SYSTOLIC_PERFBENCH_REPLAY_H_
#define SYSTOLIC_PERFBENCH_REPLAY_H_

// The traced run's layer replays. After a request completes over the socket,
// its frames are replayed through each layer's public entry points, each
// call wrapped in a span below the frame's wire span:
//
//   wire (socket round trip, live)
//     session          Session::ExecuteRequest on an in-process mirror
//       shared_catalog SharedCatalog::CommitGroup (durable frames)
//         durability   DurableCatalog LogPut + Commit (private directory)
//       system         CommandInterpreter::Execute (private machine)
//         planner      planner::PlanTransaction (COMMIT)
//         core         db::Engine, one span per step
//   verify             verify::VerifyPlannedTransaction (its own root: the
//                      release build never runs it on the request path)
//
// A layer's self time is its span minus its children (harness.h).

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/chip_pool.h"
#include "core/engine.h"
#include "durability/durable_catalog.h"
#include "harness.h"
#include "planner/physical.h"
#include "server/server.h"
#include "server/session.h"
#include "system/command.h"
#include "system/machine.h"
#include "workload.h"

namespace perfbench {

/// Counters the replays gather on one thread; merged at the end.
struct LayerStats {
  /// Engine wall time per op family ("intersect", "join", ...), in ms.
  std::map<std::string, std::vector<double>> engine_ms;
  /// In-process LOADs of relations another session keeps rewriting, in ms.
  std::vector<double> load_ms;
  double engine_wall_s = 0;
  double engine_cpu_s = 0;
  size_t passes = 0;
  /// Relational requests replayed (the denominator of per-query counts).
  size_t queries = 0;
  double fast_ns = 0;
  double fast_cells = 0;
  double rtl_cycles = 0;
  double rtl_wall_s = 0;
  double rtl_busy_cell_cycles = 0;
  double rtl_offered_cell_cycles = 0;
  double dma_cycles = 0;
  double overlap_cycles = 0;
  double crossbar_bytes = 0;
  double est_pulses = 0;
  double est_pulses_before = 0;
  /// Bytes of the relations the replays committed through the server's WAL.
  double put_bytes = 0;

  void Merge(const LayerStats& other);
};

class ReplayStack {
 public:
  /// `server` and `pool` must outlive the stack. `durable_dir` hosts the
  /// private durability replays (unused without durable writes).
  ReplayStack(const Workload& workload, systolic::server::Server* server,
              std::shared_ptr<systolic::db::ChipPool> pool,
              std::string durable_dir, size_t conn);
  ReplayStack(const ReplayStack&) = delete;
  ReplayStack& operator=(const ReplayStack&) = delete;

  /// Connects the mirror session and loads the private machine.
  systolic::Status Init();

  /// Replays `request`; `wire_spans[i]` is frame i's live wire span.
  systolic::Status Replay(const Request& request,
                          const std::vector<uint64_t>& wire_spans,
                          uint64_t trace, Tracer* tracer, LayerStats* stats);

 private:
  systolic::Status MirrorExecute(const std::string& line);
  systolic::Status RunCore(const systolic::machine::PlanStep& step,
                           std::map<std::string, rel::Relation>* produced,
                           uint64_t parent, uint64_t trace, Tracer* tracer,
                           LayerStats* stats);

  const Workload& workload_;
  systolic::server::Server* server_;
  std::shared_ptr<systolic::db::ChipPool> pool_;
  std::string durable_dir_;
  size_t conn_;
  systolic::db::DeviceConfig device_;
  systolic::db::Engine engine_;
  std::map<std::string, systolic::planner::InputInfo> catalog_;
  std::shared_ptr<systolic::server::Session> mirror_;
  uint64_t mirror_next_id_ = 1;
  std::unique_ptr<systolic::machine::Machine> machine_;
  std::ostringstream out_;
  std::unique_ptr<systolic::machine::CommandInterpreter> interpreter_;
  std::unique_ptr<systolic::durability::DurableCatalog> durable_;
};

}  // namespace perfbench

#endif  // SYSTOLIC_PERFBENCH_REPLAY_H_
