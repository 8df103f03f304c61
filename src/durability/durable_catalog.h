#ifndef SYSTOLIC_DURABILITY_DURABLE_CATALOG_H_
#define SYSTOLIC_DURABILITY_DURABLE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/io.h"
#include "durability/wal.h"
#include "relational/catalog.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace systolic {
namespace durability {

/// The highest request id a session token committed through the WAL before
/// the last crash, recovered from `ack` records (DESIGN S26): the server's
/// retry dedup consults this so a client whose COMMIT reply was lost to a
/// crash is answered "already committed" instead of re-executed.
struct RecoveredAck {
  uint64_t request_id = 0;
  uint64_t records = 0;
};

/// Session counters surfaced through the command layer and ExecStats.
struct DurabilityStats {
  size_t wal_records = 0;        ///< Mutation records fsync'd this session.
  size_t checkpoints = 0;        ///< Checkpoints completed this session.
  size_t recovered_records = 0;  ///< Records replayed by Open's recovery.
};

/// A catalog that survives crashes (DESIGN S21): every committed mutation is
/// a WAL record fsync'd before the caller is acknowledged, checkpoints are
/// rename-swapped atomically, and Open recovers by loading the last durable
/// checkpoint and replaying the sealed WAL tail.
///
/// Directory layout:
///   CURRENT     one line naming the live checkpoint ("chk-<n>"); absent
///               until the first checkpoint. Rename-swapped, never edited.
///   chk-<n>/    a SaveCatalog-format directory (MANIFEST + .tup files).
///   WAL         header "SYSWAL2 <n>" + framed records (see wal.h).
///
/// A directory of another format (a checkpoint MANIFEST without its
/// `format 2` entry, a WAL header that does not parse) fails Open with
/// DataCorruption, and recovery leaves every file as it found it.
///
/// Invariant: after a crash at ANY point of the write path, Open yields a
/// catalog bit-identical (under rel::SerializeCatalog) to the state after
/// some prefix of the acknowledged commits — never a hybrid. The crash
/// fuzzer (tests/crash_recovery_fuzz_test.cc) enumerates every IO unit of
/// the write path to hold this to account.
///
/// Mutations are grouped: Log* stages records, Commit appends the group plus
/// a sealing `commit` marker in ONE file append, fsyncs, and only then
/// applies the group to the in-memory catalog. Recovery replays only sealed
/// groups, so a multi-relation transaction commit is all-or-nothing.
///
/// Thread safety: every public method locks the internal kWal-rank mutex —
/// the SINK of the lock hierarchy (DESIGN §2.10). The group-commit leader
/// calls in with no other lock held (SharedCatalog releases its own mutex
/// around ProcessBatch), so the ordering holds trivially; callers must
/// still serialize logically conflicting operations themselves (the
/// leader_active_ handoff, or a single session driving the embedded path).
class DurableCatalog {
 public:
  /// Opens (creating if absent) the durable directory and recovers.
  static Result<std::unique_ptr<DurableCatalog>> Open(std::string directory,
                                                      Io io = Io());

  const std::string& directory() const { return directory_; }
  /// The recovered in-memory catalog. The reference stays valid for the
  /// DurableCatalog's lifetime (the pointer is set once, at Open); the
  /// POINTEE is mutated by the commit path, so concurrent readers need the
  /// caller-level exclusivity described in the class comment.
  const rel::Catalog& catalog() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return *catalog_;
  }
  DurabilityStats stats() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return stats_;
  }
  uint64_t checkpoint_id() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return checkpoint_id_;
  }
  /// Sealed records currently in the WAL (replayed on next Open).
  size_t wal_live_records() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return wal_live_records_;
  }
  size_t staged_records() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return staged_.size();
  }

  /// Stages one mutation into the open group. Validation happens here, so a
  /// staged record is guaranteed to apply cleanly at Commit / recovery.
  Status LogCreateDomain(const std::string& name, rel::ValueType type)
      EXCLUDES(mutex_);
  Status LogPut(const std::string& name, const rel::Relation& relation)
      EXCLUDES(mutex_);
  Status LogAppend(const std::string& name, const rel::Relation& batch)
      EXCLUDES(mutex_);
  Status LogDrop(const std::string& name) EXCLUDES(mutex_);
  /// Stages a request-dedup ack into the open group, making the (token,
  /// request id) pair durable atomically with the group's mutations.
  Status LogAck(const std::string& token, uint64_t request_id,
                uint64_t records) EXCLUDES(mutex_);

  /// Acks recovered by Open from the live WAL, token -> highest acked
  /// request. The dedup window is the live WAL: Checkpoint resets it (by
  /// then every acked reply has long been delivered or abandoned).
  std::map<std::string, RecoveredAck> recovered_acks() const
      EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return recovered_acks_;
  }

  /// Seals and fsyncs the staged group, then applies it to the in-memory
  /// catalog. No-op for an empty group. On an IO error nothing was
  /// acknowledged: the group stays staged (retry or Abort), and any torn
  /// frames a partial append left behind are truncated away so a retry
  /// cannot append the group after them (recovery would then discard or
  /// refuse acknowledged groups). If even that truncation fails the WAL is
  /// poisoned: every further Commit fails without touching the file until a
  /// successful Checkpoint rebuilds the log.
  Status Commit() EXCLUDES(mutex_);

  /// Discards the staged group.
  void Abort() EXCLUDES(mutex_);

  /// Cross-session group commit (DESIGN S24). SealStagedGroup moves the
  /// staged group — validated exactly as Commit would — into the pending
  /// commit batch without touching the file; no-op for an empty group.
  /// CommitSealedGroups then appends EVERY sealed group, each closed by its
  /// own `commit` marker, in ONE file append followed by ONE fsync, and
  /// applies them to the in-memory catalog in seal order. This is what lets
  /// a server amortise a single fsync over N concurrent sessions' COMMITs:
  /// the on-disk format is unchanged (recovery already replays any number of
  /// sealed groups), and a crash inside the batched append leaves some
  /// group-boundary prefix of the batch — never a hybrid within a group, and
  /// never touching previously acknowledged groups. Error handling matches
  /// Commit: nothing was acknowledged, the sealed batch stays pending (retry
  /// or AbortSealedGroups), torn frames are truncated away, and an
  /// untruncatable tail poisons the WAL until a Checkpoint rebuilds it.
  Status SealStagedGroup() EXCLUDES(mutex_);
  Status CommitSealedGroups() EXCLUDES(mutex_);
  /// Discards every sealed-but-uncommitted group.
  void AbortSealedGroups() EXCLUDES(mutex_);
  size_t sealed_groups() const EXCLUDES(mutex_) {
    util::MutexLock lock(&mutex_);
    return sealed_.size();
  }

  /// Single-mutation conveniences; fail if a group is open.
  Status Put(const std::string& name, const rel::Relation& relation)
      EXCLUDES(mutex_);
  Status Append(const std::string& name, const rel::Relation& batch)
      EXCLUDES(mutex_);
  Status Drop(const std::string& name) EXCLUDES(mutex_);

  /// Writes chk-<n+1> with the rename-swap protocol, flips CURRENT, resets
  /// the WAL and garbage-collects the old checkpoint. Fails (without
  /// touching disk) while a mutation group is open.
  Status Checkpoint() EXCLUDES(mutex_);

 private:
  DurableCatalog(std::string directory, Io io)
      : directory_(std::move(directory)), io_(io) {}

  using MutationGroup = std::vector<std::pair<WalRecord, std::string>>;

  std::string Path(const std::string& name) const;
  std::string WalPath() const { return Path(kWalFileName); }
  /// Locked bodies of the public staging/commit entry points, shared by the
  /// single-mutation conveniences (Put = LogPutLocked + CommitLocked).
  Status LogPutLocked(const std::string& name, const rel::Relation& relation)
      REQUIRES(mutex_);
  Status LogAppendLocked(const std::string& name, const rel::Relation& batch)
      REQUIRES(mutex_);
  Status LogDropLocked(const std::string& name) REQUIRES(mutex_);
  Status CommitLocked() REQUIRES(mutex_);
  /// The shared durable tail of Commit / CommitSealedGroups: frames every
  /// group with its sealing marker, appends them all in one write, fsyncs
  /// once, then applies every record in order. On failure nothing was
  /// acknowledged and the torn tail is truncated (or the WAL poisoned).
  Status AppendGroupsLocked(const std::vector<const MutationGroup*>& groups)
      REQUIRES(mutex_);
  Status RecoverLocked() REQUIRES(mutex_);
  Status ReplayWalLocked(const std::string& bytes, size_t header_end)
      REQUIRES(mutex_);
  /// Rewrites the WAL to an empty log for the current checkpoint id.
  Status ResetWalLocked() REQUIRES(mutex_);
  Status CollectGarbageLocked(const std::string& live_checkpoint)
      REQUIRES(mutex_);
  Status StageLocked(WalRecord record, std::string payload) REQUIRES(mutex_);
  /// The columns `name` would have after the staged group, or NotFound if it
  /// would not exist; `from_catalog` receives the live relation if any.
  Result<std::vector<WalRecord::ColumnSpec>> StagedColumnsLocked(
      const std::string& name) const REQUIRES(mutex_);
  /// The type domain `name` would have after the staged group — fixed by a
  /// staged create-domain, a domain a staged put/append implicitly creates,
  /// or the live catalog — or NotFound if it would not exist.
  Result<rel::ValueType> StagedDomainTypeLocked(const std::string& name) const
      REQUIRES(mutex_);

  std::string directory_;
  Io io_;
  /// kWal: the hierarchy's innermost rank — nothing else is ever acquired
  /// while this is held (the commit path does IO under it instead).
  mutable util::Mutex mutex_{util::LockRank::kWal, "wal"};
  /// Set once by RecoverLocked (Open); the pointer is stable afterwards,
  /// the pointee is mutated only under mutex_ by the commit path.
  std::unique_ptr<rel::Catalog> catalog_ GUARDED_BY(mutex_);
  uint64_t checkpoint_id_ GUARDED_BY(mutex_) = 0;
  size_t wal_live_records_ GUARDED_BY(mutex_) = 0;
  /// True after a failed commit whose torn tail could not be truncated; the
  /// commit path stays closed until a Checkpoint rebuilds the WAL.
  bool wal_poisoned_ GUARDED_BY(mutex_) = false;
  MutationGroup staged_ GUARDED_BY(mutex_);
  /// Groups sealed for the next cross-session batch commit, in seal order.
  std::vector<MutationGroup> sealed_ GUARDED_BY(mutex_);
  std::map<std::string, RecoveredAck> recovered_acks_ GUARDED_BY(mutex_);
  DurabilityStats stats_ GUARDED_BY(mutex_);
};

}  // namespace durability
}  // namespace systolic

#endif  // SYSTOLIC_DURABILITY_DURABLE_CATALOG_H_
