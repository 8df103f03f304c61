#include "durability/durable_catalog.h"

#include <algorithm>
#include <optional>

#include "relational/storage.h"
#include "util/strings.h"

namespace systolic {
namespace durability {

namespace {

constexpr char kCurrentFileName[] = "CURRENT";
constexpr char kCheckpointPrefix[] = "chk-";

std::string CheckpointName(uint64_t id) {
  return kCheckpointPrefix + std::to_string(id);
}

Result<uint64_t> ParseCheckpointName(std::string_view token) {
  const std::string_view prefix(kCheckpointPrefix);
  int64_t id = 0;
  if (token.substr(0, prefix.size()) != prefix ||
      !ParseInt64(token.substr(prefix.size()), &id) || id <= 0) {
    return Status::DataCorruption("malformed checkpoint name '" +
                                  std::string(token) + "'");
  }
  return static_cast<uint64_t>(id);
}

std::vector<WalRecord::ColumnSpec> SpecsOf(const rel::Schema& schema) {
  std::vector<WalRecord::ColumnSpec> specs;
  for (const rel::Column& column : schema.columns()) {
    specs.push_back(WalRecord::ColumnSpec{column.name, column.domain->name(),
                                          column.domain->type()});
  }
  return specs;
}

}  // namespace

Result<std::unique_ptr<DurableCatalog>> DurableCatalog::Open(
    std::string directory, Io io) {
  std::unique_ptr<DurableCatalog> durable(
      new DurableCatalog(std::move(directory), io));
  // Not shared yet, but recovery initializes guarded fields: Open is held
  // to the same proof obligations as every other non-constructor.
  util::MutexLock lock(&durable->mutex_);
  SYSTOLIC_RETURN_NOT_OK(durable->RecoverLocked());
  return durable;
}

std::string DurableCatalog::Path(const std::string& name) const {
  return directory_ + "/" + name;
}

Status DurableCatalog::RecoverLocked() {
  SYSTOLIC_RETURN_NOT_OK(io_.Mkdirs(directory_));
  catalog_ = std::make_unique<rel::Catalog>();
  checkpoint_id_ = 0;
  wal_live_records_ = 0;

  // The literal CURRENT token, not CheckpointName(checkpoint_id_): a
  // non-canonical spelling ("chk-007") must still protect the directory
  // CURRENT points at from garbage collection below.
  std::string live_checkpoint = CheckpointName(checkpoint_id_);
  const std::string current_path = Path(kCurrentFileName);
  if (Io::Exists(current_path)) {
    SYSTOLIC_ASSIGN_OR_RETURN(std::string current, Io::ReadFile(current_path));
    const std::string token(Trim(current));
    SYSTOLIC_ASSIGN_OR_RETURN(checkpoint_id_, ParseCheckpointName(token));
    SYSTOLIC_ASSIGN_OR_RETURN(catalog_,
                              rel::LoadCatalog(Path(token)));
    live_checkpoint = token;
  }

  if (Io::Exists(WalPath())) {
    SYSTOLIC_ASSIGN_OR_RETURN(std::string bytes, Io::ReadFile(WalPath()));
    // ResetWalLocked installs every header through tmp + fsync + rename, so
    // no crash leaves one torn. A header that does not parse is a log of
    // another format, or damage: refuse it, and leave it for an operator,
    // rather than reset away the commits it holds.
    SYSTOLIC_ASSIGN_OR_RETURN(const auto header, ParseWalHeader(bytes));
    if (header.first != checkpoint_id_) {
      // A log that predates the live checkpoint (the crash landed between
      // the CURRENT flip and the WAL reset): every record it could hold is
      // already inside the checkpoint. Discard it.
      SYSTOLIC_RETURN_NOT_OK(ResetWalLocked());
    } else {
      SYSTOLIC_RETURN_NOT_OK(ReplayWalLocked(bytes, header.second));
    }
  } else {
    SYSTOLIC_RETURN_NOT_OK(ResetWalLocked());
  }

  return CollectGarbageLocked(live_checkpoint);
}

Status DurableCatalog::ReplayWalLocked(const std::string& bytes,
                                       size_t header_end) {
  size_t offset = header_end;
  size_t durable_end = header_end;
  std::vector<WalRecord> group;
  size_t applied = 0;
  bool torn = false;
  while (offset < bytes.size()) {
    const WalFrame frame = ParseFrame(bytes, offset);
    if (!frame.complete) {
      torn = true;  // short frame or CRC mismatch: the crash's torn tail
      break;
    }
    // A CRC-valid frame that does not decode is real corruption, not a torn
    // write; fail loudly rather than silently dropping acknowledged data.
    SYSTOLIC_ASSIGN_OR_RETURN(WalRecord record,
                              DecodeWalRecord(frame.payload));
    if (record.kind == WalRecord::Kind::kCommit) {
      if (record.group_size != group.size()) {
        return Status::DataCorruption(
            "WAL commit marker seals " + std::to_string(record.group_size) +
            " records but " + std::to_string(group.size()) + " are pending");
      }
      for (const WalRecord& r : group) {
        if (r.kind == WalRecord::Kind::kAck) {
          RecoveredAck& ack = recovered_acks_[r.name];
          if (r.request_id >= ack.request_id) {
            ack = RecoveredAck{r.request_id, r.ack_records};
          }
          continue;
        }
        SYSTOLIC_RETURN_NOT_OK(ApplyWalRecord(r, catalog_.get()));
      }
      applied += group.size();
      group.clear();
      durable_end = frame.end;
    } else {
      group.push_back(std::move(record));
    }
    offset = frame.end;
  }
  if (torn || !group.empty() || offset != bytes.size()) {
    SYSTOLIC_RETURN_NOT_OK(io_.Truncate(WalPath(), durable_end));
  }
  wal_live_records_ = applied;
  stats_.recovered_records += applied;
  return Status::OK();
}

Status DurableCatalog::ResetWalLocked() {
  const std::string tmp = WalPath() + ".tmp";
  SYSTOLIC_RETURN_NOT_OK(io_.WriteFile(tmp, WalHeader(checkpoint_id_)));
  SYSTOLIC_RETURN_NOT_OK(io_.Fsync(tmp));
  SYSTOLIC_RETURN_NOT_OK(io_.Rename(tmp, WalPath()));
  SYSTOLIC_RETURN_NOT_OK(io_.FsyncDir(directory_));
  wal_live_records_ = 0;
  return Status::OK();
}

Status DurableCatalog::CollectGarbageLocked(
    const std::string& live_checkpoint) {
  for (const std::string& name : Io::ListDir(directory_)) {
    const bool stale_tmp =
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp";
    const bool orphan_checkpoint =
        name.rfind(kCheckpointPrefix, 0) == 0 && name != live_checkpoint;
    if (stale_tmp || orphan_checkpoint) {
      SYSTOLIC_RETURN_NOT_OK(io_.RemoveAll(Path(name)));
    }
  }
  return Status::OK();
}

Status DurableCatalog::StageLocked(WalRecord record, std::string payload) {
  staged_.emplace_back(std::move(record), std::move(payload));
  return Status::OK();
}

Result<std::vector<WalRecord::ColumnSpec>> DurableCatalog::StagedColumnsLocked(
    const std::string& name) const {
  // The staged group, then the sealed-but-uncommitted batch, rewrite history
  // front to back; the last put/drop for `name` wins, falling back to the
  // live catalog. Sealed groups must be visible here: they will apply before
  // the staged group at CommitSealedGroups/recovery, so a record validated
  // blind to them could fail to apply after it was sealed.
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    const WalRecord& record = it->first;
    if (record.name != name) continue;
    if (record.kind == WalRecord::Kind::kPut) return record.columns;
    if (record.kind == WalRecord::Kind::kDrop) {
      return Status::NotFound("relation '" + name +
                              "' is dropped in the open group");
    }
  }
  for (auto group = sealed_.rbegin(); group != sealed_.rend(); ++group) {
    for (auto it = group->rbegin(); it != group->rend(); ++it) {
      const WalRecord& record = it->first;
      if (record.name != name) continue;
      if (record.kind == WalRecord::Kind::kPut) return record.columns;
      if (record.kind == WalRecord::Kind::kDrop) {
        return Status::NotFound("relation '" + name +
                                "' is dropped in a sealed group");
      }
    }
  }
  SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation,
                            catalog_->GetRelation(name));
  return SpecsOf(relation->schema());
}

Result<rel::ValueType> DurableCatalog::StagedDomainTypeLocked(
    const std::string& name) const {
  // Staged records only ever create domains (a drop removes a relation, not
  // its domains), and conflicts are rejected at staging time, so any staged
  // or sealed mention of `name` — explicit create-domain or a put/append
  // column that implicitly creates it — fixes its type.
  const auto scan = [&name](const MutationGroup& group)
      -> std::optional<rel::ValueType> {
    for (const auto& [record, payload] : group) {
      if (record.kind == WalRecord::Kind::kCreateDomain &&
          record.name == name) {
        return record.type;
      }
      for (const WalRecord::ColumnSpec& spec : record.columns) {
        if (spec.domain == name) return spec.type;
      }
    }
    return std::nullopt;
  };
  if (const std::optional<rel::ValueType> type = scan(staged_)) return *type;
  for (const MutationGroup& group : sealed_) {
    if (const std::optional<rel::ValueType> type = scan(group)) return *type;
  }
  SYSTOLIC_ASSIGN_OR_RETURN(std::shared_ptr<rel::Domain> live,
                            catalog_->GetDomain(name));
  return live->type();
}

Status DurableCatalog::LogCreateDomain(const std::string& name,
                                       rel::ValueType type) {
  util::MutexLock lock(&mutex_);
  if (name.empty()) {
    return Status::InvalidArgument("domain name must not be empty");
  }
  // Resolving through the staged group also catches a domain a staged
  // put/append implicitly created — re-creating it would make the sealed
  // group fail to apply at Commit/recovery.
  if (StagedDomainTypeLocked(name).ok()) {
    return Status::AlreadyExists("domain '" + name + "' already exists");
  }
  WalRecord record;
  record.kind = WalRecord::Kind::kCreateDomain;
  record.name = name;
  record.type = type;
  return StageLocked(std::move(record), EncodeCreateDomain(name, type));
}

Status DurableCatalog::LogPut(const std::string& name,
                              const rel::Relation& relation) {
  util::MutexLock lock(&mutex_);
  return LogPutLocked(name, relation);
}

Status DurableCatalog::LogPutLocked(const std::string& name,
                                    const rel::Relation& relation) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  for (size_t c = 0; c < relation.schema().num_columns(); ++c) {
    const rel::Column& column = relation.schema().column(c);
    if (column.name.empty() || column.domain->name().empty()) {
      return Status::InvalidArgument("cannot log relation '" + name +
                                     "': empty column or domain name");
    }
    // The domain's type must agree with the staged group and live catalog
    // AND with this relation's own earlier columns (fresh Domain objects may
    // reuse a name at another type) — any conflict would make the sealed
    // record fail to apply at Commit/recovery.
    Result<rel::ValueType> existing =
        StagedDomainTypeLocked(column.domain->name());
    for (size_t prev = 0; !existing.ok() && prev < c; ++prev) {
      const rel::Column& other = relation.schema().column(prev);
      if (other.domain->name() == column.domain->name()) {
        existing = other.domain->type();
      }
    }
    if (existing.ok() && *existing != column.domain->type()) {
      return Status::Incompatible(
          "domain '" + column.domain->name() + "' is already registered as " +
          rel::ValueTypeToString(*existing));
    }
  }
  SYSTOLIC_ASSIGN_OR_RETURN(std::string payload, EncodePut(name, relation));
  // Re-decode to populate the staged record exactly as recovery will see it.
  SYSTOLIC_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(payload));
  return StageLocked(std::move(record), std::move(payload));
}

Status DurableCatalog::LogAppend(const std::string& name,
                                 const rel::Relation& batch) {
  util::MutexLock lock(&mutex_);
  return LogAppendLocked(name, batch);
}

Status DurableCatalog::LogAppendLocked(const std::string& name,
                                       const rel::Relation& batch) {
  SYSTOLIC_ASSIGN_OR_RETURN(std::vector<WalRecord::ColumnSpec> target,
                            StagedColumnsLocked(name));
  const std::vector<WalRecord::ColumnSpec> batch_specs =
      SpecsOf(batch.schema());
  if (target.size() != batch_specs.size()) {
    return Status::Incompatible("append batch arity " +
                                std::to_string(batch_specs.size()) +
                                " != relation arity " +
                                std::to_string(target.size()));
  }
  for (size_t c = 0; c < target.size(); ++c) {
    if (target[c].column != batch_specs[c].column ||
        target[c].domain != batch_specs[c].domain ||
        target[c].type != batch_specs[c].type) {
      return Status::Incompatible("append batch schema mismatch at column " +
                                  std::to_string(c) + " of '" + name + "'");
    }
  }
  SYSTOLIC_ASSIGN_OR_RETURN(std::string payload, EncodeAppend(name, batch));
  SYSTOLIC_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(payload));
  return StageLocked(std::move(record), std::move(payload));
}

Status DurableCatalog::LogDrop(const std::string& name) {
  util::MutexLock lock(&mutex_);
  return LogDropLocked(name);
}

Status DurableCatalog::LogDropLocked(const std::string& name) {
  SYSTOLIC_RETURN_NOT_OK(StagedColumnsLocked(name).status());  // must exist
  WalRecord record;
  record.kind = WalRecord::Kind::kDrop;
  record.name = name;
  return StageLocked(std::move(record), EncodeDrop(name));
}

Status DurableCatalog::LogAck(const std::string& token, uint64_t request_id,
                              uint64_t records) {
  util::MutexLock lock(&mutex_);
  if (token.empty() || request_id == 0) {
    return Status::InvalidArgument(
        "an ack record needs a session token and a positive request id");
  }
  WalRecord record;
  record.kind = WalRecord::Kind::kAck;
  record.name = token;
  record.request_id = request_id;
  record.ack_records = records;
  return StageLocked(std::move(record), EncodeAck(token, request_id, records));
}

Status DurableCatalog::AppendGroupsLocked(
    const std::vector<const MutationGroup*>& groups) {
  if (wal_poisoned_) {
    return Status::IOError(
        "the WAL carries a torn tail from a failed commit; CHECKPOINT to "
        "rebuild it before committing again");
  }
  std::string frames;
  size_t records = 0;
  for (const MutationGroup* group : groups) {
    for (const auto& [record, payload] : *group) {
      AppendFrame(&frames, payload);
    }
    AppendFrame(&frames, EncodeCommit(group->size()));
    records += group->size();
  }
  // One append + one fsync for the whole batch: every group becomes durable
  // atomically-or-not, a crash inside the append leaves a tail recovery cuts
  // back to the last sealed group boundary, and N groups share the fsync.
  SYSTOLIC_ASSIGN_OR_RETURN(const uint64_t wal_end, Io::FileSize(WalPath()));
  Status appended = io_.AppendFile(WalPath(), frames);
  if (appended.ok()) appended = io_.Fsync(WalPath());
  if (!appended.ok()) {
    // A survivable partial append (ENOSPC, say) leaves torn frames
    // mid-file; a retried commit would append the group after them, and
    // recovery would then truncate away — or refuse to open over — every
    // later acknowledged group. Cut the WAL back to its pre-append length;
    // if even that fails, poison the commit path until a Checkpoint
    // rebuilds the log.
    if (!io_.Truncate(WalPath(), wal_end).ok()) wal_poisoned_ = true;
    return appended;
  }
  for (const MutationGroup* group : groups) {
    for (const auto& [record, payload] : *group) {
      SYSTOLIC_RETURN_NOT_OK(ApplyWalRecord(record, catalog_.get()));
    }
  }
  stats_.wal_records += records;
  wal_live_records_ += records;
  return Status::OK();
}

Status DurableCatalog::Commit() {
  util::MutexLock lock(&mutex_);
  return CommitLocked();
}

Status DurableCatalog::CommitLocked() {
  if (staged_.empty()) return Status::OK();
  if (!sealed_.empty()) {
    // Sealed groups were validated as applying BEFORE the open group; letting
    // the open group jump the queue would invert WAL order vs validation.
    return Status::InvalidArgument(
        "sealed groups are pending; use SealStagedGroup + CommitSealedGroups");
  }
  SYSTOLIC_RETURN_NOT_OK(AppendGroupsLocked({&staged_}));
  staged_.clear();
  return Status::OK();
}

void DurableCatalog::Abort() {
  util::MutexLock lock(&mutex_);
  staged_.clear();
}

void DurableCatalog::AbortSealedGroups() {
  util::MutexLock lock(&mutex_);
  sealed_.clear();
}

Status DurableCatalog::SealStagedGroup() {
  util::MutexLock lock(&mutex_);
  if (staged_.empty()) return Status::OK();
  if (wal_poisoned_) {
    return Status::IOError(
        "the WAL carries a torn tail from a failed commit; CHECKPOINT to "
        "rebuild it before committing again");
  }
  sealed_.push_back(std::move(staged_));
  staged_.clear();
  return Status::OK();
}

Status DurableCatalog::CommitSealedGroups() {
  util::MutexLock lock(&mutex_);
  if (!staged_.empty()) {
    return Status::InvalidArgument(
        "a mutation group is still open; seal or abort it before committing "
        "the sealed batch");
  }
  if (sealed_.empty()) return Status::OK();
  std::vector<const MutationGroup*> groups;
  groups.reserve(sealed_.size());
  for (const MutationGroup& group : sealed_) groups.push_back(&group);
  SYSTOLIC_RETURN_NOT_OK(AppendGroupsLocked(groups));
  sealed_.clear();
  return Status::OK();
}

Status DurableCatalog::Put(const std::string& name,
                           const rel::Relation& relation) {
  util::MutexLock lock(&mutex_);
  if (!staged_.empty()) {
    return Status::InvalidArgument("a mutation group is open; use LogPut");
  }
  SYSTOLIC_RETURN_NOT_OK(LogPutLocked(name, relation));
  return CommitLocked();
}

Status DurableCatalog::Append(const std::string& name,
                              const rel::Relation& batch) {
  util::MutexLock lock(&mutex_);
  if (!staged_.empty()) {
    return Status::InvalidArgument("a mutation group is open; use LogAppend");
  }
  SYSTOLIC_RETURN_NOT_OK(LogAppendLocked(name, batch));
  return CommitLocked();
}

Status DurableCatalog::Drop(const std::string& name) {
  util::MutexLock lock(&mutex_);
  if (!staged_.empty()) {
    return Status::InvalidArgument("a mutation group is open; use LogDrop");
  }
  SYSTOLIC_RETURN_NOT_OK(LogDropLocked(name));
  return CommitLocked();
}

Status DurableCatalog::Checkpoint() {
  util::MutexLock lock(&mutex_);
  if (!staged_.empty()) {
    return Status::InvalidArgument(
        "cannot checkpoint while a mutation group is open");
  }
  if (!sealed_.empty()) {
    return Status::InvalidArgument(
        "cannot checkpoint while sealed commit groups are pending");
  }
  SYSTOLIC_ASSIGN_OR_RETURN(std::vector<rel::CatalogFile> files,
                            rel::SerializeCatalog(*catalog_));
  const uint64_t next = checkpoint_id_ + 1;
  const std::string chk = CheckpointName(next);
  const std::string tmp = Path(chk + ".tmp");
  if (Io::Exists(tmp)) SYSTOLIC_RETURN_NOT_OK(io_.RemoveAll(tmp));
  SYSTOLIC_RETURN_NOT_OK(io_.Mkdirs(tmp));
  for (const rel::CatalogFile& file : files) {
    SYSTOLIC_RETURN_NOT_OK(io_.WriteFile(tmp + "/" + file.name,
                                         file.contents));
    SYSTOLIC_RETURN_NOT_OK(io_.Fsync(tmp + "/" + file.name));
  }
  SYSTOLIC_RETURN_NOT_OK(io_.FsyncDir(tmp));
  // A checkpoint retried after a failed CURRENT flip finds the previous
  // attempt's fully-renamed directory; clear it like the stale tmp dir so
  // the rename below cannot wedge on a non-empty target.
  if (Io::Exists(Path(chk))) SYSTOLIC_RETURN_NOT_OK(io_.RemoveAll(Path(chk)));
  SYSTOLIC_RETURN_NOT_OK(io_.Rename(tmp, Path(chk)));
  SYSTOLIC_RETURN_NOT_OK(io_.FsyncDir(directory_));
  // The CURRENT flip is the commit point: before it, recovery uses the old
  // checkpoint + WAL; after it, the new checkpoint (with any stale WAL
  // discarded by the header id check).
  SYSTOLIC_RETURN_NOT_OK(io_.WriteFile(Path("CURRENT.tmp"), chk + "\n"));
  SYSTOLIC_RETURN_NOT_OK(io_.Fsync(Path("CURRENT.tmp")));
  SYSTOLIC_RETURN_NOT_OK(io_.Rename(Path("CURRENT.tmp"),
                                    Path(kCurrentFileName)));
  SYSTOLIC_RETURN_NOT_OK(io_.FsyncDir(directory_));
  const uint64_t previous = checkpoint_id_;
  checkpoint_id_ = next;
  SYSTOLIC_RETURN_NOT_OK(ResetWalLocked());
  wal_poisoned_ = false;  // the rebuilt log has no torn tail
  if (previous > 0) {
    SYSTOLIC_RETURN_NOT_OK(io_.RemoveAll(Path(CheckpointName(previous))));
  }
  stats_.checkpoints += 1;
  return Status::OK();
}

}  // namespace durability
}  // namespace systolic
