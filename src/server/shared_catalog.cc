#include "server/shared_catalog.h"

#include <algorithm>

namespace systolic {
namespace server {

SharedCatalog::SharedCatalog() {
  // Version 1, like a freshly opened durable directory: version 0 is
  // reserved for pre-history (seeded/recovered relations conflict with
  // nobody).
  auto image = std::make_shared<CatalogImage>();
  image->version = 1;
  image_ = std::move(image);
}

Result<std::unique_ptr<SharedCatalog>> SharedCatalog::Open(
    const std::string& directory, durability::Io io) {
  auto catalog = std::unique_ptr<SharedCatalog>(new SharedCatalog());
  SYSTOLIC_ASSIGN_OR_RETURN(catalog->durable_,
                            durability::DurableCatalog::Open(directory, io));
  auto image = std::make_shared<CatalogImage>();
  image->version = 1;
  for (const std::string& name :
       catalog->durable_->catalog().RelationNames()) {
    SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* relation,
                              catalog->durable_->catalog().GetRelation(name));
    // writer_version 0: recovered relations are pre-history, conflicting
    // with no session's snapshot.
    image->relations.emplace(
        name, ImageEntry{std::make_shared<const rel::Relation>(*relation), 0});
  }
  // The catalog is not shared yet, but the guarded fields are initialized
  // under their mutex anyway: the static analysis holds Open to the same
  // proof obligations as every other non-constructor.
  util::MutexLock lock(&catalog->mutex_);
  catalog->image_ = std::move(image);
  catalog->recovered_acks_ = catalog->durable_->recovered_acks();
  catalog->durability_stats_ = catalog->durable_->stats();
  return catalog;
}

bool SharedCatalog::RecoveredAckFor(const std::string& token,
                                    uint64_t* request_id,
                                    uint64_t* records) const {
  util::MutexLock lock(&mutex_);
  const auto it = recovered_acks_.find(token);
  if (it == recovered_acks_.end()) return false;
  *request_id = it->second.request_id;
  *records = it->second.records;
  return true;
}

void SharedCatalog::Quiesce() {
  util::MutexLock lock(&mutex_);
  while (leader_active_ || !queue_.empty()) cv_.Wait(&mutex_);
}

std::shared_ptr<const CatalogImage> SharedCatalog::Snapshot() const {
  util::MutexLock lock(&mutex_);
  return image_;
}

Status SharedCatalog::Seed(const std::string& name, rel::Relation relation) {
  util::MutexLock lock(&mutex_);
  if (stats_.batches > 0 || leader_active_ || !queue_.empty()) {
    return Status::InvalidArgument(
        "Seed is start-up only; the catalog has live commit traffic");
  }
  auto image = std::make_shared<CatalogImage>(*image_);
  image->relations[name] = ImageEntry{
      std::make_shared<const rel::Relation>(std::move(relation)), 0};
  image_ = std::move(image);
  return Status::OK();
}

Result<SharedCatalog::CommitResult> SharedCatalog::CommitGroup(
    uint64_t snapshot_version,
    const std::vector<std::pair<std::string, const rel::Relation*>>& puts,
    CommitTag tag) {
  if (puts.empty()) return CommitResult{};
  CommitRequest request;
  request.snapshot_version = snapshot_version;
  request.tag = std::move(tag);
  request.puts.reserve(puts.size());
  for (const auto& [name, relation] : puts) {
    // O(1): the entry shares the buffer's tuples, and an accepted group's
    // entries become the image's.
    request.puts.emplace_back(
        name, std::make_shared<const rel::Relation>(*relation));
  }

  util::MutexLock lock(&mutex_);
  queue_.push_back(&request);
  for (;;) {
    while (!request.done && leader_active_) cv_.Wait(&mutex_);
    if (request.done) break;
    // Become the leader: take EVERYTHING queued (including this request)
    // into one batch — that is the fsync amortization.
    leader_active_ = true;
    std::vector<CommitRequest*> batch(queue_.begin(), queue_.end());
    queue_.clear();
    lock.Unlock();
    ProcessBatch(batch);
    lock.Lock();
    leader_active_ = false;
    cv_.NotifyAll();
  }
  if (!request.status.ok()) return request.status;
  return request.result;
}

void SharedCatalog::ProcessBatch(const std::vector<CommitRequest*>& batch) {
  // Runs without mutex_ held; leader_active_ makes this the only thread
  // touching durable_ or preparing an image. Snapshot() keeps serving the
  // old image throughout.
  std::shared_ptr<const CatalogImage> base;
  {
    util::MutexLock lock(&mutex_);
    base = image_;
  }
  auto next = std::make_shared<CatalogImage>(*base);
  next->version = base->version + 1;

  std::vector<CommitRequest*> accepted;
  accepted.reserve(batch.size());
  size_t conflicts = 0;
  for (CommitRequest* request : batch) {
    // First-committer-wins on relation-name write sets, checked against the
    // image being built: a same-batch predecessor writing the same name
    // conflicts exactly like an already-published one.
    Status verdict = Status::OK();
    for (const auto& [name, relation] : request->puts) {
      const auto it = next->relations.find(name);
      if (it != next->relations.end() &&
          it->second.writer_version > request->snapshot_version) {
        verdict = Status::Aborted(
            "snapshot conflict: relation '" + name +
            "' was committed after this session's snapshot (version " +
            std::to_string(request->snapshot_version) +
            "); first committer wins — re-read and retry");
        break;
      }
    }
    if (verdict.ok() && durable_ != nullptr) {
      // Stage + seal now so later groups in this batch validate against
      // this one (sealed groups are visible to the WAL's staging checks);
      // a group that cannot stage is rejected alone, not the whole batch.
      for (const auto& [name, relation] : request->puts) {
        verdict = durable_->LogPut(name, *relation);
        if (!verdict.ok()) break;
      }
      if (verdict.ok() && !request->tag.token.empty() &&
          request->tag.request_id > 0) {
        // The ack rides in the SAME sealed group: the (token, request id)
        // pair becomes durable atomically with the commit, so recovery
        // either sees both (retry deduped) or neither (retry re-executes).
        verdict = durable_->LogAck(request->tag.token,
                                   request->tag.request_id,
                                   request->puts.size());
      }
      if (verdict.ok()) {
        verdict = durable_->SealStagedGroup();
      } else {
        durable_->Abort();
      }
    }
    if (!verdict.ok()) {
      request->status = verdict;
      if (verdict.IsAborted()) ++conflicts;
      continue;
    }
    for (const auto& [name, relation] : request->puts) {
      next->relations[name] = ImageEntry{relation, next->version};
    }
    request->result.records = request->puts.size();
    request->result.version = next->version;
    accepted.push_back(request);
  }

  // ONE append + ONE fsync for every accepted group in the batch.
  Status committed = Status::OK();
  size_t sealed_records = 0;
  if (durable_ != nullptr && !accepted.empty()) {
    for (const CommitRequest* request : accepted) {
      sealed_records += request->puts.size();
    }
    committed = durable_->CommitSealedGroups();
    if (!committed.ok()) durable_->AbortSealedGroups();
  }

  util::MutexLock lock(&mutex_);
  if (!committed.ok()) {
    // Nothing was acknowledged; every accepted group shares the verdict.
    for (CommitRequest* request : accepted) {
      request->status = committed;
      request->result = CommitResult{};
    }
  } else if (!accepted.empty()) {
    image_ = std::move(next);
    stats_.commits += accepted.size();
    stats_.batches += 1;
    stats_.batch_size_histogram[accepted.size()] += 1;
    durability_stats_.wal_records += sealed_records;
  }
  stats_.conflicts += conflicts;
  for (CommitRequest* request : batch) request->done = true;
  // cv_ is notified by the CommitGroup frame that called us (after it
  // clears leader_active_), so followers and the next leader wake together.
}

Status SharedCatalog::Checkpoint() {
  if (durable_ == nullptr) return Status::OK();
  util::MutexLock lock(&mutex_);
  // Exclude the group-commit leader: checkpointing rewrites the WAL.
  while (leader_active_) cv_.Wait(&mutex_);
  leader_active_ = true;
  lock.Unlock();
  const Status status = durable_->Checkpoint();
  lock.Lock();
  if (status.ok()) durability_stats_.checkpoints += 1;
  leader_active_ = false;
  cv_.NotifyAll();
  return status;
}

GroupCommitStats SharedCatalog::stats() const {
  util::MutexLock lock(&mutex_);
  return stats_;
}

durability::DurabilityStats SharedCatalog::durability_stats() const {
  util::MutexLock lock(&mutex_);
  return durability_stats_;
}

}  // namespace server
}  // namespace systolic
