#ifndef SYSTOLIC_SERVER_SCHEDULER_H_
#define SYSTOLIC_SERVER_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace systolic {
namespace server {

class FairScheduler;

/// RAII admission ticket: holding one means the session may run a plan on
/// the shared device pool right now. Releasing (destruction) hands the slot
/// to the next queued session in round-robin order.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  ~AdmissionTicket();
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : scheduler_(other.scheduler_) {
    other.scheduler_ = nullptr;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept;
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

 private:
  friend class FairScheduler;
  explicit AdmissionTicket(FairScheduler* scheduler)
      : scheduler_(scheduler) {}
  FairScheduler* scheduler_ = nullptr;
};

/// Fair-share admission control over the shared ChipPool (DESIGN S24).
///
/// At most `max_concurrent` plans run at once; further Admit calls wait in
/// PER-SESSION FIFO queues served ROUND-ROBIN across sessions, so a chatty
/// session queues behind its own backlog while a quiet one is admitted on
/// its first try — fair share at plan granularity, complementing the
/// ChipPool's fair interleave at tile granularity. The total wait queue is
/// bounded: when `max_queued` sessions are already waiting, Admit fails
/// immediately with Capacity (admission control, not buffering).
class FairScheduler {
 public:
  struct Stats {
    /// Plans admitted (immediately or after queueing).
    size_t admitted = 0;
    /// Plans bounced off the full queue with Capacity.
    size_t rejected = 0;
  };

  FairScheduler(size_t max_concurrent, size_t max_queued);
  ~FairScheduler() = default;
  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Blocks until this session holds a run slot; Capacity when the bounded
  /// wait queue is full.
  Result<AdmissionTicket> Admit(uint64_t session_id) EXCLUDES(mutex_);

  /// Waiters currently queued.
  size_t queue_depth() const EXCLUDES(mutex_);

  Stats stats() const EXCLUDES(mutex_);

 private:
  friend class AdmissionTicket;
  void Release() EXCLUDES(mutex_);

  struct Waiter {
    uint64_t session_id = 0;
    bool admitted = false;
  };

  /// Pops the next waiter round-robin across sessions; null when none wait.
  Waiter* NextWaiterLocked() REQUIRES(mutex_);

  const size_t max_concurrent_;
  const size_t max_queued_;

  mutable util::Mutex mutex_{util::LockRank::kScheduler, "scheduler"};
  util::CondVar cv_;
  size_t running_ GUARDED_BY(mutex_) = 0;
  size_t queued_ GUARDED_BY(mutex_) = 0;
  /// Per-session FIFO backlogs; served round-robin by rr_order_.
  std::map<uint64_t, std::deque<Waiter*>> backlogs_ GUARDED_BY(mutex_);
  /// Sessions with a non-empty backlog, in round-robin service order.
  std::deque<uint64_t> rr_order_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace server
}  // namespace systolic

#endif  // SYSTOLIC_SERVER_SCHEDULER_H_
