#include "server/session.h"

#include <utility>
#include <vector>

namespace systolic {
namespace server {

Session::Session(uint64_t id, SharedCatalog* catalog,
                 FairScheduler* scheduler, machine::MachineConfig config)
    : id_(id),
      catalog_(catalog),
      scheduler_(scheduler),
      machine_(std::move(config)),
      interpreter_(&machine_, &out_) {
  // Durable commits leave the session through the shared pipeline; the
  // machine never owns a DurableCatalog of its own.
  machine_.set_commit_sink(
      [this](const std::vector<std::pair<std::string, const rel::Relation*>>&
                 puts) -> Result<size_t> {
        // Tag v2 requests so the WAL ack makes the dedup crash-safe;
        // embedded commits (current_request_id_ == 0) go untagged.
        CommitTag tag;
        if (current_request_id_ > 0) {
          tag.token = token_;
          tag.request_id = current_request_id_;
        }
        SYSTOLIC_ASSIGN_OR_RETURN(
            const SharedCatalog::CommitResult result,
            catalog_->CommitGroup(pinned_version_, puts, std::move(tag)));
        durability_stats_.wal_records += result.records;
        return result.records;
      });
  // Reads fault in lazily from the pinned image: a relation another session
  // committed reaches this session's disk unit only when (and each time) a
  // newer version of it is actually LOADed, sharing the image's tuples.
  machine_.set_disk_source(
      [this](const std::string& name) -> const rel::Relation* {
        if (pinned_ == nullptr) return nullptr;
        const auto entry = pinned_->relations.find(name);
        if (entry == pinned_->relations.end()) return nullptr;
        const auto mirrored = mirrored_.find(name);
        if (mirrored != mirrored_.end() &&
            mirrored->second == entry->second.relation) {
          return nullptr;  // the disk copy is current
        }
        mirrored_[name] = entry->second.relation;
        return entry->second.relation.get();
      });
  machine::SessionContext context;
  context.session_id = id_;
  context.isolation = "snapshot";
  context.durability_stats = [this] { return durability_stats_; };
  interpreter_.set_session(std::move(context));
  RefreshSnapshot();
}

void Session::RefreshSnapshot() {
  std::shared_ptr<const CatalogImage> latest = catalog_->Snapshot();
  if (pinned_ != nullptr && latest->version == pinned_->version) return;
  // O(1): no data is copied here. The disk-source hook mirrors a relation
  // onto the private disk unit only when a LOAD actually reads it.
  pinned_ = std::move(latest);
  pinned_version_ = pinned_->version;
}

Status Session::RunAdmitted(const std::string& line) {
  out_.str("");
  return interpreter_.Execute(line);
}

Result<std::string> Session::Execute(const std::string& line) {
  // Freeze the snapshot across an open transaction: BEGIN..COMMIT reads are
  // repeatable and COMMIT conflict-checks against what was actually read.
  if (!interpreter_.in_transaction()) RefreshSnapshot();
  SYSTOLIC_ASSIGN_OR_RETURN(const AdmissionTicket ticket,
                            scheduler_->Admit(id_));
  SYSTOLIC_RETURN_NOT_OK(RunAdmitted(line));
  return out_.str();
}

void Session::AdoptRecoveredAck(uint64_t request_id, uint64_t records) {
  recovered_ack_id_ = request_id;
  recovered_ack_records_ = records;
  has_recovered_ack_ = true;
  accept_any_first_id_ = true;
  last_request_id_ = request_id;
}

Result<Session::RequestOutcome> Session::ExecuteRequest(
    uint64_t id, const std::string& line) {
  if (id == 0) {
    return Status::InvalidArgument("request ids start at 1");
  }
  RequestOutcome outcome;
  if (have_last_reply_ && id == last_request_id_) {
    // The retry contract: a resent id replays the exact cached bytes — even
    // an ERR reply, since re-execution could diverge from what the client
    // may already have partially observed.
    outcome.payload = last_reply_;
    outcome.from_cache = true;
    return outcome;
  }
  if (has_recovered_ack_ && id <= recovered_ack_id_) {
    // This id committed through the WAL before the crash that created this
    // resumed session; the commit must not re-execute (exactly-once).
    outcome.payload =
        "OK\n-- durability: request " + std::to_string(id) +
        " already committed before recovery (" +
        std::to_string(recovered_ack_records_) +
        " relation(s), deduplicated)\n";
    outcome.recovered_dedup = true;
    last_request_id_ = id;
    last_reply_ = outcome.payload;
    have_last_reply_ = true;
    accept_any_first_id_ = false;
    return outcome;
  }
  if (!accept_any_first_id_ && id != last_request_id_ + 1) {
    return Status::InvalidArgument(
        "request id " + std::to_string(id) + " is not monotonic (expected " +
        std::to_string(last_request_id_ + 1) + ")");
  }
  if (!interpreter_.in_transaction()) RefreshSnapshot();
  Result<AdmissionTicket> ticket = scheduler_->Admit(id_);
  if (!ticket.ok()) {
    // Admission bounced BEFORE any effect: the id is not consumed, and the
    // RETRY verdict tells the client to back off and resend the same id.
    outcome.payload = "RETRY " + ticket.status().ToString() + "\n";
    outcome.retryable = true;
    return outcome;
  }
  accept_any_first_id_ = false;
  current_request_id_ = id;
  const Status status = RunAdmitted(line);
  current_request_id_ = 0;
  if (status.ok()) {
    outcome.payload = "OK\n" + out_.str();
  } else {
    outcome.payload = "ERR " + status.ToString() + "\n" + out_.str();
  }
  last_request_id_ = id;
  last_reply_ = outcome.payload;
  have_last_reply_ = true;
  return outcome;
}

}  // namespace server
}  // namespace systolic
