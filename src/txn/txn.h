// First-class transaction handles (paper §2.2 / §4): `Txn` is a movable
// RAII handle owning the client-side state of one active transaction —
// read position, read set, buffered writes — obtained from
// `Session::Begin(group)`. Dropping an active handle aborts it (an abort
// is purely local: buffered state is discarded, no messages are sent).
// `Txn` and the cross-group `CrossTxn` (txn/cross.h) share one lifecycle,
// `TxnHandle`; they differ only in how many groups they span.
//
// `Session` is the per-application-instance entry point: it wraps a
// cluster-owned TransactionClient and adds `RunTransaction`, the retry
// combinator every consumer of the old string-keyed API hand-rolled —
// re-run the body on conflict aborts with randomized backoff, bounded by
// attempts and a virtual-time deadline, and report one unified
// `TxnResult`. One retry loop serves both handle kinds.
//
// Misuse rules: committing twice or operating on a committed handle is a
// programming error (assert in debug builds, FailedPrecondition in
// release). A moved-from or default-constructed handle is *inert*: every
// operation fails gracefully and destruction is a no-op.
#pragma once

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kvstore/store.h"
#include "sim/coro.h"
#include "txn/transaction.h"
#include "wal/log_entry.h"

namespace paxoscp::txn {

class TransactionClient;
class Session;
class CrossTxn;
struct CrossTxnState;
struct CrossCommitResult;

/// Unified transaction-fate taxonomy (paper §2.2/§4 outcomes), collapsing
/// the old Status / CommitResult::committed / read_only triage:
///   kCommitted      — read/write transaction decided into the log.
///   kReadOnly       — committed locally with no replication (paper §2.2:
///                     read-only commit automatically succeeds).
///   kConflict       — aborted by concurrency control (lost its log
///                     position to a conflicting transaction). Retryable:
///                     the transaction certainly did not commit.
///   kUnavailable    — the attempt never reached a commit decision (begin
///                     or read could not be served anywhere, or the body
///                     failed). The transaction certainly did not commit.
///   kUnknownOutcome — the commit protocol started but the client gave up
///                     without learning the decision (outage / no quorum).
///                     The cohort may still have decided the transaction;
///                     retrying could commit it twice.
enum class TxnOutcome {
  kCommitted,
  kReadOnly,
  kConflict,
  kUnavailable,
  kUnknownOutcome,
};

const char* OutcomeName(TxnOutcome outcome);

/// Maps a finished commit protocol run onto the taxonomy. Never returns
/// kUnavailable: a commit that ran but produced no decision is
/// kUnknownOutcome (the begin/read paths, which cannot have proposed
/// anything, are the only sources of kUnavailable). The cross-group
/// overload lives in txn/cross.cc.
TxnOutcome ClassifyCommit(const CommitResult& result);
TxnOutcome ClassifyCommit(const CrossCommitResult& result);

/// Client-side state of one active transaction, owned by its `Txn` handle
/// (this is the payload the old API kept in a string-keyed map inside the
/// client). Heap-allocated so the address stays stable across handle
/// moves — in-flight operation coroutines hold a pointer to it.
struct TxnState {
  ActiveTxn txn;
  /// Cache of snapshot values already read (for repeated reads).
  std::map<wal::ItemId, std::string> read_cache;
};

/// Frees `client`'s slot on every group the state spans (one group here;
/// every participant for CrossTxnState, txn/cross.h).
void ReleaseSlots(TransactionClient* client, const TxnState& state);

/// Helpers for operations on unusable handles: the caller still gets a
/// real awaitable, so misuse fails gracefully instead of crashing in
/// release builds.
namespace internal {
Status InertError(const char* op);
template <typename T>
sim::Coro<Result<T>> FailedRead(Status status) {
  co_return Result<T>(std::move(status));
}
template <typename CommitResultT>
sim::Coro<CommitResultT> FailedCommit(Status status) {
  CommitResultT result;
  result.status = std::move(status);
  co_return result;
}
}  // namespace internal

/// Lifecycle shared by the transaction handles `Txn` and `CrossTxn`: a
/// movable RAII owner of the heap-allocated client-side `State` (its
/// address stays stable across handle moves — in-flight operation
/// coroutines hold a pointer to it). An active handle holds its client's
/// slot on every group it spans; Commit, Abort and dropping the handle
/// free them. Dropping an active handle aborts the transaction (a local
/// state drop, no messages — lost client state is an implicit abort,
/// paper §2.2).
template <typename State>
class TxnHandle {
 public:
  /// Inert handle: every operation returns FailedPrecondition.
  TxnHandle() = default;
  ~TxnHandle() {
    if (phase_ == Phase::kActive) Release();
  }
  TxnHandle(TxnHandle&& other) noexcept
      : client_(std::exchange(other.client_, nullptr)),
        state_(std::move(other.state_)),
        phase_(std::exchange(other.phase_, Phase::kInert)),
        begin_status_(std::move(other.begin_status_)) {}
  TxnHandle& operator=(TxnHandle&& other) noexcept {
    if (this != &other) {
      if (phase_ == Phase::kActive) Release();
      client_ = std::exchange(other.client_, nullptr);
      state_ = std::move(other.state_);
      phase_ = std::exchange(other.phase_, Phase::kInert);
      begin_status_ = std::move(other.begin_status_);
    }
    return *this;
  }
  TxnHandle(const TxnHandle&) = delete;
  TxnHandle& operator=(const TxnHandle&) = delete;

  /// True while the handle owns a live, uncommitted transaction.
  bool active() const { return phase_ == Phase::kActive; }
  /// Why the begin produced an inactive handle (OK when active).
  const Status& begin_status() const { return begin_status_; }

  /// Discards the transaction without committing (idempotent on inert
  /// handles; a programming error on finished ones).
  void Abort() {
    if (phase_ == Phase::kInert) return;
    assert(phase_ == Phase::kActive &&
           "Abort of a transaction handle after Commit/Abort");
    if (phase_ == Phase::kActive) Release();
  }

 protected:
  /// Inert handle carrying the begin failure.
  explicit TxnHandle(Status begin_error)
      : begin_status_(std::move(begin_error)) {}
  /// Active handle (built by the TransactionClient begin paths).
  TxnHandle(TransactionClient* client, std::unique_ptr<State> state)
      : client_(client), state_(std::move(state)), phase_(Phase::kActive) {}

  /// Asserts the handle is not being used after Commit/Abort; returns
  /// whether it is usable (active).
  bool Usable() const {
    assert(phase_ != Phase::kFinished &&
           "use of a transaction handle after Commit/Abort");
    return phase_ == Phase::kActive;
  }

  /// Starts the commit of a usable handle: the slots open as soon as the
  /// commit protocol starts (the buffered state is frozen, so a new
  /// transaction on the same groups may begin while this commit is still
  /// in flight) and the handle is finished. The state stays owned by the
  /// handle: the commit coroutine reads it while the caller awaits (the
  /// handle must outlive the await, which every `co_await txn.Commit()`
  /// guarantees).
  State* StartCommit() {
    ReleaseSlots(client_, *state_);
    phase_ = Phase::kFinished;
    return state_.get();
  }

  TransactionClient* client_ = nullptr;
  std::unique_ptr<State> state_;

 private:
  enum class Phase { kInert, kActive, kFinished };

  /// Frees the slots and drops local state.
  void Release() {
    ReleaseSlots(client_, *state_);
    state_.reset();
    phase_ = Phase::kFinished;
  }

  Phase phase_ = Phase::kInert;
  Status begin_status_;
};

/// Movable RAII handle for one active transaction on one group.
class Txn : public TxnHandle<TxnState> {
 public:
  Txn() = default;

  TxnId id() const;
  LogPos read_pos() const;
  const std::string& group() const;
  /// Number of recorded snapshot reads (test hook; buffered-write reads
  /// never enter the read set, property A1).
  size_t read_set_size() const;

  /// Snapshot read at the transaction's read position. Reads of items the
  /// transaction already wrote return the buffered value (property A1);
  /// all other reads observe the read-position snapshot (property A2).
  /// A never-written item reads as the empty string.
  sim::Coro<Result<std::string>> Read(std::string row, std::string attribute);

  /// Batched snapshot read of every attribute of `row` in one RPC,
  /// overlaid with this transaction's buffered writes. Every attribute
  /// served from the snapshot enters the read set, plus one whole-row
  /// predicate read (wal::kWholeRowAttribute): reading the row observes
  /// which attributes exist, so a concurrent creation of an attribute
  /// this transaction saw as absent is a detected conflict.
  sim::Coro<Result<kvstore::AttributeMap>> ReadRow(std::string row);

  /// Buffers a write locally (paper step 3: writes are handled locally by
  /// the Transaction Client until commit).
  Status Write(const std::string& row, const std::string& attribute,
               std::string value);

  /// Buffers one write per attribute of `attributes`.
  Status WriteRow(const std::string& row,
                  const kvstore::AttributeMap& attributes);

  /// Runs the commit protocol. Read-only transactions commit immediately
  /// with no messages. The handle is finished afterwards: any further
  /// operation (including a second Commit) is a programming error. The
  /// returned coroutine must be awaited immediately.
  sim::Coro<CommitResult> Commit();

 private:
  friend class TransactionClient;
  friend class Session;

  explicit Txn(Status begin_error) : TxnHandle(std::move(begin_error)) {}
  Txn(TransactionClient* client, std::unique_ptr<TxnState> state)
      : TxnHandle(client, std::move(state)) {}
};

/// Retry bounds for Session::RunTransaction. Defaults follow the paper's
/// application model: conflict aborts are expected under optimistic
/// concurrency control and are retried from a fresh snapshot with
/// randomized backoff.
struct RetryPolicy {
  // User-declared ctor keeps this a non-aggregate: aggregates must never
  // be passed to coroutines by value (see the parameter rules in
  // txn/client.h).
  RetryPolicy() = default;

  /// Total begin..commit attempts before giving up with kConflict.
  int max_attempts = 8;
  /// Virtual-time budget measured from the first attempt (0 = none): no
  /// new attempt starts once the deadline has passed. Conflicting attempts
  /// are separated by a randomized 20-200 ms backoff.
  TimeMicros deadline = 0;
};

/// Unified result of Session::RunTransaction, over either commit result
/// (TxnResult for one group, CrossTxnResult for a group set).
template <typename CommitResultT>
struct BasicTxnResult {
  TxnOutcome outcome = TxnOutcome::kUnavailable;
  /// Detail behind the outcome (OK iff committed()).
  Status status;
  /// Total begin..commit attempts made.
  int attempts = 0;
  /// Bookkeeping of the last commit protocol run (promotions, latency,
  /// combination — the metrics the paper's evaluation reports).
  CommitResultT commit;

  bool committed() const {
    return outcome == TxnOutcome::kCommitted ||
           outcome == TxnOutcome::kReadOnly;
  }
};
using TxnResult = BasicTxnResult<CommitResult>;
/// Cross transactions never report kReadOnly (see txn/cross.h).
using CrossTxnResult = BasicTxnResult<CrossCommitResult>;

/// A transaction body run by Session::RunTransaction: performs reads and
/// writes through the handle and returns OK to request a commit, or any
/// error to abort the attempt (body errors are never retried).
template <typename Handle>
using BasicTxnBody = std::function<sim::Coro<Status>(Handle*)>;
using TxnBody = BasicTxnBody<Txn>;
using CrossTxnBody = BasicTxnBody<CrossTxn>;

/// Per-application-instance session: wraps a cluster-owned
/// TransactionClient (see core::Cluster::CreateSession / Db::Session —
/// the client outlives the session). Lightweight and movable; a session
/// may run one transaction per group at a time (paper §2.2), on any
/// number of groups concurrently.
class Session {
 public:
  Session() = default;
  explicit Session(TransactionClient* client) : client_(client) {}

  bool valid() const { return client_ != nullptr; }
  DcId home() const;
  TransactionClient* client() const { return client_; }

  /// Starts a transaction on `group`: fetches the read position from the
  /// local Transaction Service (failing over to remote ones, paper
  /// step 1). The returned handle is inactive — with begin_status()
  /// explaining why — if the slot is taken or no service answered.
  sim::Coro<Txn> Begin(std::string group);

  /// Runs `body` as a serializable transaction on `group`, retrying
  /// conflict aborts (fresh snapshot each attempt, randomized backoff)
  /// within `retry`'s attempt/deadline bounds. Infrastructure failures
  /// (kUnavailable, kUnknownOutcome) are returned immediately — retrying
  /// an unknown outcome could commit the transaction twice.
  sim::Coro<TxnResult> RunTransaction(std::string group, TxnBody body,
                                      RetryPolicy retry = {});

  /// Starts a cross-group transaction spanning `groups` (D8): one leg —
  /// read position, read set, buffered writes — per group, committed via
  /// 2PC over the participants' Paxos-CP logs (txn/cross.h). Requires
  /// Protocol::kPaxosCP; the returned handle is inactive (with
  /// begin_status() explaining why) if any group's slot is taken, any
  /// begin failed, or the protocol is wrong.
  sim::Coro<CrossTxn> BeginCross(std::vector<std::string> groups);

  /// Cross-group overload of the retry combinator: runs `body` over a
  /// fresh BeginCross(groups) per attempt, retrying conflict aborts
  /// (including commit-order aborts) under the same policy as the
  /// single-group overload. kUnknownOutcome is never retried.
  sim::Coro<CrossTxnResult> RunTransaction(std::vector<std::string> groups,
                                           CrossTxnBody body,
                                           RetryPolicy retry = {});

 private:
  /// Immediately-inactive handle for misuse of an invalid session.
  template <typename Handle>
  static sim::Coro<Handle> FailedBegin(Status status) {
    co_return Handle(std::move(status));
  }

  /// The loop behind both RunTransaction overloads: `Handle` is Txn with
  /// `Target` a group, or CrossTxn with `Target` a group list.
  template <typename Handle, typename ResultT, typename Target>
  sim::Coro<ResultT> RetryLoop(Target target, BasicTxnBody<Handle> body,
                              RetryPolicy retry);

  TransactionClient* client_ = nullptr;
};

}  // namespace paxoscp::txn
