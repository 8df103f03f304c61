#ifndef SYSTOLIC_SERVER_SHARED_CATALOG_H_
#define SYSTOLIC_SERVER_SHARED_CATALOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/durable_catalog.h"
#include "relational/relation.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace systolic {
namespace server {

/// One relation inside a snapshot image, tagged with the commit version that
/// last wrote it. First-committer-wins conflict detection compares this tag
/// against the committer's pinned snapshot version: a newer writer means the
/// committer raced someone on that relation name and must Abort.
struct ImageEntry {
  std::shared_ptr<const rel::Relation> relation;
  uint64_t writer_version = 0;
};

/// An immutable catalog image. Sessions pin one (a shared_ptr copy — O(1),
/// no data copied) and read it lock-free until they pin a newer one; commits
/// never mutate a published image, they publish a successor.
struct CatalogImage {
  uint64_t version = 0;
  std::map<std::string, ImageEntry> relations;
};

/// Identifies the request a commit group belongs to (DESIGN S26): when
/// present, the group-commit leader stages a WAL `ack` record into the same
/// sealed group, so the (token, request id) pair becomes durable atomically
/// with the commit and a post-crash retry can be answered from recovery
/// instead of re-executed. An empty token = untagged (embedded paths).
struct CommitTag {
  std::string token;
  uint64_t request_id = 0;
};

/// Server-wide group-commit counters (satellite of DESIGN S24): how well the
/// cross-session batching amortizes fsyncs.
struct GroupCommitStats {
  /// Session commit groups acknowledged.
  size_t commits = 0;
  /// Fsync batches those groups rode in (commits / batches = amortization).
  size_t batches = 0;
  /// Groups rejected by first-committer-wins conflict detection.
  size_t conflicts = 0;
  /// batch size (groups per fsync) -> number of batches of that size.
  std::map<size_t, size_t> batch_size_histogram;

  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(commits) /
                              static_cast<double>(batches);
  }
};

/// The S24 server's shared truth: an immutable-image catalog with
/// cross-session group commit.
///
/// Readers: Snapshot() hands out the newest published image; a session reads
/// it without locks for as long as it stays pinned (snapshot isolation).
///
/// Writers: CommitGroup blocks until a LEADER processes it. The first
/// waiting committer becomes leader, drains the whole queue, runs
/// first-committer-wins conflict detection group by group (against the image
/// being built, so two same-batch groups writing one name conflict too),
/// seals every surviving group into the durable catalog, and commits them
/// all with ONE WAL append + ONE fsync (DurableCatalog::CommitSealedGroups).
/// Followers just wake up with their verdict. That is the paper-era group
/// commit trick: N concurrent COMMITs, one disk synchronization.
///
/// Without a durable directory the same protocol runs against the in-memory
/// image only (batching still measured, nothing fsync'd).
class SharedCatalog {
 public:
  /// What one acknowledged commit group learned.
  struct CommitResult {
    /// Records (relation puts) acknowledged for this group.
    size_t records = 0;
    /// The version the batch committed at.
    uint64_t version = 0;
  };

  /// An in-memory catalog (no durability).
  SharedCatalog();

  /// Opens (creating or crash-recovering) `directory`; recovered relations
  /// form image version 1 with writer_version 0 (visible to every snapshot,
  /// conflicting with nobody).
  static Result<std::unique_ptr<SharedCatalog>> Open(
      const std::string& directory, durability::Io io = durability::Io());

  ~SharedCatalog() = default;
  SharedCatalog(const SharedCatalog&) = delete;
  SharedCatalog& operator=(const SharedCatalog&) = delete;

  /// The newest published image.
  std::shared_ptr<const CatalogImage> Snapshot() const EXCLUDES(mutex_);

  /// Seeds `name` into the current image with writer_version 0 (pre-history:
  /// conflicts with nobody). For server start-up data; fails once any
  /// commit has been processed.
  Status Seed(const std::string& name, rel::Relation relation)
      EXCLUDES(mutex_);

  /// Commits one session's write set atomically, batched with whatever other
  /// sessions are committing right now (see class comment). Blocks until the
  /// verdict. Aborted = lost first-committer-wins on a relation name written
  /// after `snapshot_version`; any other error = the whole batch's durable
  /// append failed (nothing acknowledged).
  Result<CommitResult> CommitGroup(
      uint64_t snapshot_version,
      const std::vector<std::pair<std::string, const rel::Relation*>>& puts,
      CommitTag tag = CommitTag{}) EXCLUDES(mutex_);

  /// The highest request id `token` committed before the last crash
  /// (recovered from WAL ack records); false when the token has none.
  /// Callable under the server mutex: kServer is ACQUIRED_BEFORE
  /// kSharedCatalog in the lock hierarchy (DESIGN §2.10).
  bool RecoveredAckFor(const std::string& token, uint64_t* request_id,
                       uint64_t* records) const EXCLUDES(mutex_);

  /// Blocks until no group-commit leader is active and the commit queue is
  /// empty — the DRAIN barrier: after it, every acknowledged commit has been
  /// fsync'd and published.
  void Quiesce() EXCLUDES(mutex_);

  /// Rewrites the durable checkpoint (rename-swap) and resets the WAL;
  /// no-op (OK) without a durable directory. Excludes itself from running
  /// group commits.
  Status Checkpoint() EXCLUDES(mutex_);

  bool durable() const { return durable_ != nullptr; }

  /// The durable catalog behind the images; null when in-memory. Read it
  /// only while no commit or checkpoint runs: the group-commit leader
  /// writes it without mutex_.
  const durability::DurableCatalog* durable_catalog() const {
    return durable_.get();
  }

  GroupCommitStats stats() const EXCLUDES(mutex_);

  /// Counters of the underlying durable catalog (server-wide, cached under
  /// the catalog lock so readers never race the leader's IO); zeros when
  /// in-memory.
  durability::DurabilityStats durability_stats() const EXCLUDES(mutex_);

 private:
  struct CommitRequest {
    uint64_t snapshot_version = 0;
    std::vector<std::pair<std::string, std::shared_ptr<const rel::Relation>>>
        puts;
    CommitTag tag;
    bool done = false;
    Status status = Status::OK();
    CommitResult result;
  };

  /// Leader body: drains `batch`, publishes the successor image. Called
  /// WITHOUT mutex_ held; leader_active_ gives exclusive access to durable_
  /// and to image publication.
  void ProcessBatch(const std::vector<CommitRequest*>& batch)
      EXCLUDES(mutex_);

  mutable util::Mutex mutex_{util::LockRank::kSharedCatalog,
                             "shared-catalog"};
  util::CondVar cv_;
  std::deque<CommitRequest*> queue_ GUARDED_BY(mutex_);
  bool leader_active_ GUARDED_BY(mutex_) = false;
  std::shared_ptr<const CatalogImage> image_ GUARDED_BY(mutex_);
  /// NOT guarded by mutex_: exclusive to the active leader/checkpointer
  /// (leader_active_ hands it off), which calls into it with mutex_
  /// RELEASED — the pointee's own kWal-rank mutex is the hierarchy's sink.
  /// The pointer itself is const after Open.
  std::unique_ptr<durability::DurableCatalog> durable_;
  std::map<std::string, durability::RecoveredAck> recovered_acks_
      GUARDED_BY(mutex_);
  GroupCommitStats stats_ GUARDED_BY(mutex_);
  durability::DurabilityStats durability_stats_ GUARDED_BY(mutex_);
};

}  // namespace server
}  // namespace systolic

#endif  // SYSTOLIC_SERVER_SHARED_CATALOG_H_
