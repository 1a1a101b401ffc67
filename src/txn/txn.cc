#include "txn/txn.h"

#include <utility>

#include "txn/client.h"

namespace paxoscp::txn {

namespace {

Status InertError(const char* op) {
  return Status::FailedPrecondition(std::string("inert transaction handle: ") +
                                    op + " requires an active transaction");
}

/// Immediately-failing coroutines for operations on unusable handles (the
/// caller still gets a real awaitable, so misuse fails gracefully instead
/// of crashing in release builds).
sim::Coro<Result<std::string>> FailedRead(Status status) {
  co_return Result<std::string>(std::move(status));
}

sim::Coro<Result<kvstore::AttributeMap>> FailedReadRow(Status status) {
  co_return Result<kvstore::AttributeMap>(std::move(status));
}

sim::Coro<CommitResult> FailedCommit(Status status) {
  CommitResult result;
  result.status = std::move(status);
  co_return result;
}

}  // namespace

const char* OutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted: return "committed";
    case TxnOutcome::kReadOnly: return "read-only";
    case TxnOutcome::kConflict: return "conflict";
    case TxnOutcome::kUnavailable: return "unavailable";
    case TxnOutcome::kUnknownOutcome: return "unknown-outcome";
  }
  return "?";
}

TxnOutcome ClassifyCommit(const CommitResult& result) {
  if (result.read_only) return TxnOutcome::kReadOnly;
  if (result.committed) return TxnOutcome::kCommitted;
  if (result.status.IsAborted()) return TxnOutcome::kConflict;
  return TxnOutcome::kUnknownOutcome;
}

// ------------------------------------------------------------------- Txn

Txn::Txn(TransactionClient* client, std::unique_ptr<TxnState> state)
    : client_(client), state_(std::move(state)), phase_(Phase::kActive) {}

Txn::~Txn() {
  if (phase_ == Phase::kActive) Release();
}

Txn::Txn(Txn&& other) noexcept
    : client_(std::exchange(other.client_, nullptr)),
      state_(std::move(other.state_)),
      phase_(std::exchange(other.phase_, Phase::kInert)),
      begin_status_(std::move(other.begin_status_)) {}

Txn& Txn::operator=(Txn&& other) noexcept {
  if (this != &other) {
    if (phase_ == Phase::kActive) Release();
    client_ = std::exchange(other.client_, nullptr);
    state_ = std::move(other.state_);
    phase_ = std::exchange(other.phase_, Phase::kInert);
    begin_status_ = std::move(other.begin_status_);
  }
  return *this;
}

void Txn::Release() {
  client_->ReleaseGroup(state_->txn.group);
  state_.reset();
  phase_ = Phase::kFinished;
}

bool Txn::Usable(const char* op) const {
  (void)op;
  assert(phase_ != Phase::kFinished &&
         "use of a transaction handle after Commit/Abort");
  return phase_ == Phase::kActive;
}

TxnId Txn::id() const { return active() ? state_->txn.id : 0; }

LogPos Txn::read_pos() const { return active() ? state_->txn.read_pos : 0; }

const std::string& Txn::group() const {
  static const std::string kEmpty;
  return active() ? state_->txn.group : kEmpty;
}

size_t Txn::read_set_size() const {
  return active() ? state_->txn.reads.size() : 0;
}

sim::Coro<Result<std::string>> Txn::Read(std::string row,
                                         std::string attribute) {
  if (!Usable("Read")) return FailedRead(InertError("Read"));
  if (wal::IsReservedAttribute(attribute)) {
    return FailedRead(wal::ReservedAttributeError());
  }
  // Forwarded (not wrapped in a member coroutine): the returned awaitable
  // binds the heap-stable TxnState, never `this`, so moving the handle
  // between call and await is harmless.
  return client_->ReadItem(state_.get(), std::move(row), std::move(attribute));
}

sim::Coro<Result<kvstore::AttributeMap>> Txn::ReadRow(std::string row) {
  if (!Usable("ReadRow")) return FailedReadRow(InertError("ReadRow"));
  return client_->ReadRowItems(state_.get(), std::move(row));
}

Status Txn::Write(const std::string& row, const std::string& attribute,
                  std::string value) {
  if (!Usable("Write")) return InertError("Write");
  if (wal::IsReservedAttribute(attribute)) {
    return wal::ReservedAttributeError();
  }
  state_->txn.writes[wal::ItemId{row, attribute}] = std::move(value);
  return Status::OK();
}

Status Txn::WriteRow(const std::string& row,
                     const kvstore::AttributeMap& attributes) {
  if (!Usable("WriteRow")) return InertError("WriteRow");
  for (const auto& [attribute, value] : attributes) {
    if (wal::IsReservedAttribute(attribute)) {
      return wal::ReservedAttributeError();
    }
  }
  for (const auto& [attribute, value] : attributes) {
    state_->txn.writes[wal::ItemId{row, attribute}] = value;
  }
  return Status::OK();
}

sim::Coro<CommitResult> Txn::Commit() {
  if (!Usable("Commit")) return FailedCommit(InertError("Commit"));
  // The group slot opens as soon as the commit protocol starts: the
  // transaction's buffered state has been frozen, so a new transaction on
  // the same group may begin while this commit is still in flight.
  client_->ReleaseGroup(state_->txn.group);
  phase_ = Phase::kFinished;
  // state_ stays owned by the handle: the commit coroutine reads it while
  // the caller awaits (the handle must outlive the await, which every
  // `co_await txn.Commit()` guarantees).
  return client_->CommitTxn(state_.get());
}

void Txn::Abort() {
  if (phase_ == Phase::kInert) return;  // idempotent on inert handles
  assert(phase_ == Phase::kActive &&
         "Abort of a transaction handle after Commit/Abort");
  if (phase_ == Phase::kActive) Release();
}

// --------------------------------------------------------------- Session

DcId Session::home() const {
  assert(client_ != nullptr);
  return client_->home();
}

sim::Coro<Txn> Session::FailedBegin(Status status) {
  co_return Txn(std::move(status));
}

sim::Coro<Txn> Session::Begin(std::string group) {
  if (client_ == nullptr) {
    assert(false && "Begin on an invalid (default) Session");
    return FailedBegin(Status::FailedPrecondition("invalid session"));
  }
  return client_->BeginTxn(std::move(group));
}

sim::Coro<TxnResult> Session::RunTransaction(std::string group, TxnBody body,
                                             RetryPolicy retry) {
  if (client_ == nullptr) {
    assert(false && "RunTransaction on an invalid (default) Session");
    TxnResult invalid;
    invalid.attempts = 1;
    invalid.status = Status::FailedPrecondition("invalid session");
    co_return invalid;
  }
  sim::Simulator* sim = client_->simulator();
  const TimeMicros deadline_at =
      retry.deadline > 0 ? sim->Now() + retry.deadline : 0;
  TxnResult result;
  for (;;) {
    ++result.attempts;
    Txn txn = co_await client_->BeginTxn(group);
    if (!txn.active()) {
      result.outcome = TxnOutcome::kUnavailable;
      result.status = txn.begin_status();
      co_return result;
    }
    Status body_status = co_await body(&txn);
    if (!body_status.ok()) {
      // Body errors (failed reads, application rejection) abort the
      // attempt; the transaction certainly did not commit.
      txn.Abort();
      result.outcome = TxnOutcome::kUnavailable;
      result.status = std::move(body_status);
      co_return result;
    }
    result.commit = co_await txn.Commit();
    result.status = result.commit.status;
    result.outcome = ClassifyCommit(result.commit);
    // Only conflicts are retried: kUnknownOutcome may already be decided
    // (a retry could commit twice), kUnavailable cannot make progress.
    if (result.outcome != TxnOutcome::kConflict) co_return result;
    if (result.attempts >= retry.max_attempts) co_return result;
    const TimeMicros backoff = client_->RetryBackoff();
    if (deadline_at != 0 && sim->Now() + backoff >= deadline_at) {
      co_return result;
    }
    co_await sim::SleepFor(sim, backoff);
  }
}

}  // namespace paxoscp::txn
