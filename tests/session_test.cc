// Tests for the Session / Txn handle API (txn/txn.h): RAII handle
// semantics (abort-on-destruction releases the per-group slot, moved-from
// handles are inert), batched ReadRow / WriteRow, the RunTransaction retry
// combinator (attempt and deadline bounds under injected conflicts), and
// the TxnOutcome taxonomy — including kUnknownOutcome surfacing from a
// crashed-client fault plan. The handle-lifecycle and retry-bound tests
// run over both handle kinds: a single-group `Txn` and a cross-group
// `CrossTxn` (txn/cross.h).
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "core/db.h"
#include "fault/fault_plan.h"
#include "sim/coro.h"
#include "txn/client.h"
#include "txn/cross.h"
#include "txn/txn.h"

namespace paxoscp {
namespace {

using txn::ClientOptions;
using txn::RetryPolicy;
using txn::Session;
using txn::Txn;
using txn::TxnOutcome;
using txn::TxnResult;

core::ClusterConfig TestConfig(uint64_t seed = 23) {
  core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
  config.seed = seed;
  return config;
}

sim::Task Drive(Session* session, std::string group, txn::TxnBody body,
                TxnResult* out, RetryPolicy retry = {}) {
  *out = co_await session->RunTransaction(std::move(group), std::move(body),
                                          retry);
}

// ------------------------------------------------------------ handle kinds

/// A single-group transaction on group `<prefix>`.
struct SingleGroup {
  using Handle = Txn;
  using Body = txn::TxnBody;
  using RunResult = TxnResult;
  /// Log entries one committed writing transaction adds to each group.
  static constexpr LogPos kEntriesPerCommit = 1;

  static std::vector<std::string> Groups(const std::string& prefix) {
    return {prefix};
  }
  static sim::Coro<Txn> Begin(Session* s, const std::string& prefix) {
    return s->Begin(prefix);
  }
  static sim::Coro<RunResult> Run(Session* s, const std::string& prefix,
                                  Body body, RetryPolicy retry) {
    return s->RunTransaction(prefix, std::move(body), retry);
  }
  static sim::Coro<Result<std::string>> Read(Txn* txn, std::string row,
                                             std::string attribute) {
    return txn->Read(std::move(row), std::move(attribute));
  }
  static Status Write(Txn* txn, const std::string& row,
                      const std::string& attribute, std::string value) {
    return txn->Write(row, attribute, std::move(value));
  }
};

/// A cross-group transaction over groups `<prefix>a` and `<prefix>b`; its
/// reads and writes go to the commit group `<prefix>a`.
struct CrossGroup {
  using Handle = txn::CrossTxn;
  using Body = txn::CrossTxnBody;
  using RunResult = txn::CrossTxnResult;
  /// A prepare and a decide in each participant.
  static constexpr LogPos kEntriesPerCommit = 2;

  static std::vector<std::string> Groups(const std::string& prefix) {
    return {prefix + "a", prefix + "b"};
  }
  static sim::Coro<txn::CrossTxn> Begin(Session* s,
                                        const std::string& prefix) {
    return s->BeginCross(Groups(prefix));
  }
  static sim::Coro<RunResult> Run(Session* s, const std::string& prefix,
                                  Body body, RetryPolicy retry) {
    return s->RunTransaction(Groups(prefix), std::move(body), retry);
  }
  static sim::Coro<Result<std::string>> Read(txn::CrossTxn* txn,
                                             std::string row,
                                             std::string attribute) {
    return txn->Read(CommitGroup(*txn), std::move(row), std::move(attribute));
  }
  static Status Write(txn::CrossTxn* txn, const std::string& row,
                      const std::string& attribute, std::string value) {
    return txn->Write(CommitGroup(*txn), row, attribute, std::move(value));
  }

 private:
  /// The commit group, or "" on an inert handle (whose operations fail
  /// before they look at the group).
  static std::string CommitGroup(const txn::CrossTxn& txn) {
    return txn.groups().empty() ? "" : txn.groups().front();
  }
};

using HandleKinds = ::testing::Types<SingleGroup, CrossGroup>;

struct HandleKindName {
  template <typename Kind>
  static std::string GetName(int) {
    return std::is_same_v<Kind, SingleGroup> ? "Single" : "Cross";
  }
};

/// Loads row "r" = {n: "0"} into every group of `Kind` under `prefix`.
template <typename Kind>
void LoadGroups(Db* db, const std::string& prefix) {
  for (const std::string& group : Kind::Groups(prefix)) {
    ASSERT_TRUE(db->Load(group, "r", {{"n", "0"}}).ok());
  }
}

/// True iff `session` holds the slot of every group of `Kind` under
/// `prefix` (`held`) or of none of them (`!held`).
template <typename Kind>
bool SlotsHeld(Session* session, const std::string& prefix, bool held) {
  for (const std::string& group : Kind::Groups(prefix)) {
    if (session->client()->HasActiveTxn(group) != held) return false;
  }
  return true;
}

template <typename Kind>
void ExpectLogLength(Db* db, const std::string& prefix, LogPos length) {
  for (const std::string& group : Kind::Groups(prefix)) {
    EXPECT_EQ(db->cluster()->service(0)->GroupLog(group)->MaxDecided(),
              length)
        << group;
  }
}

template <typename Kind>
sim::Task DriveKind(Session* session, std::string prefix,
                    typename Kind::Body body, typename Kind::RunResult* out,
                    RetryPolicy retry = {}) {
  *out = co_await Kind::Run(session, prefix, std::move(body), retry);
}

// ------------------------------------------------------- handle semantics

template <typename Kind>
class TxnHandleTest : public ::testing::Test {};
TYPED_TEST_SUITE(TxnHandleTest, HandleKinds, HandleKindName);

TYPED_TEST(TxnHandleTest, AbortOnDestructionReleasesGroupSlot) {
  using Kind = TypeParam;
  Db db(TestConfig());
  LoadGroups<Kind>(&db, "g");
  Session session = db.Session(0);

  struct Probe {
    bool slot_taken_inside = false;
    bool slot_free_after = false;
    Status rebegin = Status::Internal("unset");
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      {
        typename Kind::Handle txn = co_await Kind::Begin(s, "g");
        EXPECT_TRUE(txn.active());
        out->slot_taken_inside = SlotsHeld<Kind>(s, "g", true);
        (void)Kind::Write(&txn, "r", "n", "discarded");
        // Handle dropped here without Commit: implicit abort.
      }
      out->slot_free_after = SlotsHeld<Kind>(s, "g", false);
      // The slot is free again: a new transaction can begin (and is
      // dropped in turn).
      typename Kind::Handle again = co_await Kind::Begin(s, "g");
      out->rebegin = again.begin_status();
    }
  } run;
  run(&session, &probe);
  db.Run();

  EXPECT_TRUE(probe.slot_taken_inside);
  EXPECT_TRUE(probe.slot_free_after);
  EXPECT_TRUE(probe.rebegin.ok()) << probe.rebegin.ToString();
  EXPECT_TRUE(SlotsHeld<Kind>(&session, "g", false));
  // ...and the aborted write never reached any log.
  ExpectLogLength<Kind>(&db, "g", 0);
}

TYPED_TEST(TxnHandleTest, MovedFromHandleIsInert) {
  using Kind = TypeParam;
  Db db(TestConfig());
  LoadGroups<Kind>(&db, "g");
  Session session = db.Session(0);

  struct Probe {
    bool moved_to_active = false;
    bool moved_from_active = true;
    Status inert_write = Status::OK();
    Status inert_read;
    bool inert_committed = true;
    Status inert_commit;
    bool slots_kept = false;
    bool real_committed = false;
    Status real_commit;
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      typename Kind::Handle a = co_await Kind::Begin(s, "g");
      typename Kind::Handle b = std::move(a);
      out->moved_to_active = b.active();
      out->moved_from_active = a.active();
      // Every operation on the moved-from handle fails gracefully.
      out->inert_write = Kind::Write(&a, "r", "n", "x");
      Result<std::string> read = co_await Kind::Read(&a, "r", "n");
      out->inert_read = read.status();
      auto inert_commit = co_await a.Commit();
      out->inert_committed = inert_commit.committed;
      out->inert_commit = inert_commit.status;
      a.Abort();  // no-op, must not release b's slots
      out->slots_kept = SlotsHeld<Kind>(s, "g", true);
      // The moved-to handle still works end to end.
      (void)Kind::Write(&b, "r", "n", "1");
      auto real_commit = co_await b.Commit();
      out->real_committed = real_commit.committed;
      out->real_commit = real_commit.status;
    }
  } run;
  run(&session, &probe);
  db.Run();

  EXPECT_TRUE(probe.moved_to_active);
  EXPECT_FALSE(probe.moved_from_active);
  EXPECT_EQ(probe.inert_write.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(probe.inert_read.code(), Status::Code::kFailedPrecondition);
  EXPECT_FALSE(probe.inert_committed);
  EXPECT_EQ(probe.inert_commit.code(), Status::Code::kFailedPrecondition);
  EXPECT_TRUE(probe.slots_kept);
  EXPECT_TRUE(probe.real_committed) << probe.real_commit.ToString();
}

TYPED_TEST(TxnHandleTest, MoveAssignmentAbortsTheOverwrittenTxn) {
  using Kind = TypeParam;
  Db db(TestConfig());
  LoadGroups<Kind>(&db, "g1");
  LoadGroups<Kind>(&db, "g2");
  Session session = db.Session(0);

  struct {
    sim::Task operator()(Session* s, bool* g1_released) {
      typename Kind::Handle t1 = co_await Kind::Begin(s, "g1");
      (void)Kind::Write(&t1, "r", "n", "dropped");
      typename Kind::Handle t2 = co_await Kind::Begin(s, "g2");
      t1 = std::move(t2);  // aborts the g1 transaction, adopts g2's
      *g1_released = SlotsHeld<Kind>(s, "g1", false) &&
                     SlotsHeld<Kind>(s, "g2", true);
      (void)Kind::Write(&t1, "r", "n", "kept");
      (void)co_await t1.Commit();
    }
  } run;
  bool g1_released = false;
  run(&session, &g1_released);
  db.Run();

  EXPECT_TRUE(g1_released);
  ExpectLogLength<Kind>(&db, "g1", 0);
  ExpectLogLength<Kind>(&db, "g2", Kind::kEntriesPerCommit);
}

// -------------------------------------------------- batched row accessors

TEST(TxnHandleTest, ReadRowMergesSnapshotAndBufferedWrites) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}, {"b", "B0"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    Result<kvstore::AttributeMap> row = Status::Internal("unset");
    size_t read_set_size = 0;
    txn::CommitResult commit;
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      Txn txn = co_await s->Begin("g");
      // Buffer one overwrite and one brand-new attribute, then read the
      // whole row in one RPC.
      EXPECT_TRUE(txn.WriteRow("r", {{"b", "B1"}, {"c", "C1"}}).ok());
      out->row = co_await txn.ReadRow("r");
      out->read_set_size = txn.read_set_size();
      out->commit = co_await txn.Commit();
    }
  } run;
  run(&session, &probe);
  db.Run();

  ASSERT_TRUE(probe.row.ok()) << probe.row.status().ToString();
  EXPECT_EQ(probe.row->size(), 3u);
  EXPECT_EQ(probe.row->at("a"), "A0");  // snapshot
  EXPECT_EQ(probe.row->at("b"), "B1");  // buffered overwrite (A1)
  EXPECT_EQ(probe.row->at("c"), "C1");  // buffered new attribute
  // Read set: the snapshot-served attribute "a" plus the whole-row
  // predicate read ("b" and "c" were served from the write buffer,
  // property A1, and never enter the read set).
  EXPECT_EQ(probe.read_set_size, 2u);
  EXPECT_TRUE(probe.commit.committed);
  EXPECT_TRUE(db.Check("g").ok);
}

TEST(TxnHandleTest, ReadRowObservesCommittedWritesFromOtherDc) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}}).ok());
  Session writer = db.Session(0);

  struct {
    sim::Task operator()(Session* s, bool* committed) {
      Txn txn = co_await s->Begin("g");
      (void)txn.WriteRow("r", {{"a", "A1"}, {"b", "B1"}});
      txn::CommitResult commit = co_await txn.Commit();
      *committed = commit.committed;
    }
  } write;
  bool committed = false;
  write(&writer, &committed);
  db.Run();
  ASSERT_TRUE(committed);

  Session reader = db.Session(2);
  struct {
    sim::Task operator()(Session* s,
                         Result<kvstore::AttributeMap>* out) {
      Txn txn = co_await s->Begin("g");
      *out = co_await txn.ReadRow("r");
      (void)co_await txn.Commit();
    }
  } read;
  Result<kvstore::AttributeMap> row = Status::Internal("unset");
  read(&reader, &row);
  db.Run();

  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->at("a"), "A1");
  EXPECT_EQ(row->at("b"), "B1");
}

TEST(TxnHandleTest, ReservedWholeRowAttributeIsRejected) {
  // "*" (wal::kWholeRowAttribute) marks whole-row predicate reads in the
  // read set; user reads/writes must not be able to smuggle it in.
  Db db(TestConfig(45));
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}}).ok());
  Session session = db.Session(0);
  struct {
    sim::Task operator()(Session* s, std::vector<Status>* out) {
      Txn txn = co_await s->Begin("g");
      out->push_back(txn.Write("r", "*", "v"));
      out->push_back(txn.WriteRow("r", {{"ok", "v"}, {"*", "v"}}));
      out->push_back((co_await txn.Read("r", "*")).status());
      txn.Abort();
    }
  } run;
  std::vector<Status> results;
  run(&session, &results);
  db.Run();
  ASSERT_EQ(results.size(), 3u);
  for (const Status& s : results) {
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  }
  // Initial loading must not smuggle it in either.
  EXPECT_EQ(db.Load("g", "r2", {{"*", "x"}}).code(),
            Status::Code::kInvalidArgument);
}

TEST(TxnHandleTest, ReadRowAbsenceConflictsWithConcurrentCreation) {
  // Phantom protection: T1 reads the whole row and observes attribute "b"
  // as absent; a rival then commits a transaction *creating* "b"; T1
  // writes based on the observed absence. T1's whole-row predicate read
  // must conflict with the rival's creation — the commit aborts instead
  // of admitting a non-serializable history.
  Db db(TestConfig(43));
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}}).ok());
  Session victim = db.Session(0);
  Session rival = db.Session(1);

  struct Probe {
    bool saw_b_absent = false;
    bool rival_committed = false;
    txn::CommitResult commit;
  } probe;

  struct {
    sim::Task operator()(Session* victim, Session* rival, Probe* out) {
      Txn txn = co_await victim->Begin("g");
      Result<kvstore::AttributeMap> row = co_await txn.ReadRow("r");
      out->saw_b_absent = row.ok() && row->count("b") == 0;
      // Rival creates the attribute the victim observed as absent.
      Txn other = co_await rival->Begin("g");
      (void)other.Write("r", "b", "created");
      out->rival_committed = (co_await other.Commit()).committed;
      // Victim acts on the absence and tries to commit.
      (void)txn.Write("r", "c", "derived-from-b-absent");
      out->commit = co_await txn.Commit();
    }
  } run;
  run(&victim, &rival, &probe);
  db.Run();

  EXPECT_TRUE(probe.saw_b_absent);
  EXPECT_TRUE(probe.rival_committed);
  EXPECT_FALSE(probe.commit.committed);
  EXPECT_TRUE(probe.commit.status.IsAborted())
      << probe.commit.status.ToString();
  EXPECT_TRUE(db.Check("g").ok);
}

// -------------------------------------------------- RunTransaction basics

TEST(RunTransactionTest, CommitsSimpleTransaction) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "41"}}).ok());
  Session session = db.Session(0);

  TxnResult result;
  Drive(&session, "g",
        [](Txn* txn) -> sim::Coro<Status> {
          Result<std::string> n = co_await txn->Read("r", "n");
          if (!n.ok()) co_return n.status();
          co_return txn->Write("r", "n", std::to_string(std::stoi(*n) + 1));
        },
        &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kCommitted)
      << OutcomeName(result.outcome);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.committed());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(result.commit.committed);
}

TEST(RunTransactionTest, ReadOnlyBodyReportsReadOnlyOutcome) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "7"}}).ok());
  Session session = db.Session(0);
  TxnResult result;
  Drive(&session, "g",
        [](Txn* txn) -> sim::Coro<Status> {
          co_return (co_await txn->Read("r", "n")).status();
        },
        &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kReadOnly);
  EXPECT_TRUE(result.committed());
  EXPECT_EQ(db.cluster()->service(0)->GroupLog("g")->MaxDecided(), 0u);
}

TEST(RunTransactionTest, RetriesConcurrencyAborts) {
  // Two counter increments race under basic Paxos (no promotion): one
  // aborts, and the retry loop re-executes it from a fresh snapshot so
  // both increments land.
  Db db(TestConfig(29));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  ClientOptions options;
  options.protocol = txn::Protocol::kBasicPaxos;
  Session s1 = db.Session(0, options);
  Session s2 = db.Session(1, options);

  txn::TxnBody increment = [](Txn* txn) -> sim::Coro<Status> {
    Result<std::string> n = co_await txn->Read("r", "n");
    if (!n.ok()) co_return n.status();
    co_return txn->Write("r", "n", std::to_string(std::stoi(*n) + 1));
  };
  TxnResult r1, r2;
  Drive(&s1, "g", increment, &r1);
  Drive(&s2, "g", increment, &r2);
  db.Run();

  EXPECT_TRUE(r1.committed()) << r1.status.ToString();
  EXPECT_TRUE(r2.committed()) << r2.status.ToString();
  EXPECT_GE(r1.attempts + r2.attempts, 3);  // at least one retried

  // The counter reflects both increments (no lost update).
  TxnResult check;
  std::string final_value;
  Drive(&s1, "g",
        [&final_value](Txn* txn) -> sim::Coro<Status> {
          Result<std::string> n = co_await txn->Read("r", "n");
          if (n.ok()) final_value = *n;
          co_return n.status();
        },
        &check);
  db.Run();
  EXPECT_EQ(final_value, "2");
}

template <typename Kind>
class RunTransactionTest : public ::testing::Test {};
TYPED_TEST_SUITE(RunTransactionTest, HandleKinds, HandleKindName);

TYPED_TEST(RunTransactionTest, BodyErrorAbortsWithoutRetry) {
  using Kind = TypeParam;
  Db db(TestConfig());
  LoadGroups<Kind>(&db, "g");
  Session session = db.Session(0);
  typename Kind::RunResult result;
  DriveKind<Kind>(&session, "g",
                  [](typename Kind::Handle*) -> sim::Coro<Status> {
                    co_return Status::InvalidArgument("application rejected");
                  },
                  &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kUnavailable);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.attempts, 1);
  ExpectLogLength<Kind>(&db, "g", 0);
  // The failed attempt released the slot (no leak).
  EXPECT_TRUE(SlotsHeld<Kind>(&session, "g", false));
}

// ----------------------------------------- retry bounds under conflicts

/// A body that conflicts deterministically on every attempt: it snapshot-
/// reads "n", then — before its own commit — commits a write of "n"
/// through `saboteur` (a single-group transaction on the group the body
/// reads), so the victim's commit position is always taken by a
/// transaction whose write set intersects the victim's read set.
template <typename Kind>
typename Kind::Body AlwaysConflictingBody(Session* saboteur, int* sabotages) {
  return [saboteur, sabotages](typename Kind::Handle* txn)
             -> sim::Coro<Status> {
    Result<std::string> n = co_await Kind::Read(txn, "r", "n");
    if (!n.ok()) co_return n.status();
    Txn rival = co_await saboteur->Begin(Kind::Groups("g").front());
    if (!rival.active()) co_return rival.begin_status();
    (void)rival.Write("r", "n", std::to_string(++*sabotages));
    txn::CommitResult commit = co_await rival.Commit();
    if (!commit.committed) co_return Status::Internal("sabotage failed");
    co_return Kind::Write(txn, "r", "n", "victim");
  };
}

TYPED_TEST(RunTransactionTest, RespectsMaxAttemptsUnderInjectedConflicts) {
  using Kind = TypeParam;
  Db db(TestConfig(31));
  LoadGroups<Kind>(&db, "g");
  Session victim = db.Session(0);
  Session saboteur = db.Session(1);

  int sabotages = 0;
  RetryPolicy retry;
  retry.max_attempts = 3;
  typename Kind::RunResult result;
  DriveKind<Kind>(&victim, "g",
                  AlwaysConflictingBody<Kind>(&saboteur, &sabotages), &result,
                  retry);
  db.Run();

  EXPECT_EQ(result.outcome, TxnOutcome::kConflict)
      << OutcomeName(result.outcome) << " " << result.status.ToString();
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(sabotages, 3);  // every attempt ran the body afresh
  EXPECT_TRUE(result.status.IsAborted());
  EXPECT_TRUE(db.Check(Kind::Groups("g")).ok);
}

TYPED_TEST(RunTransactionTest, RespectsDeadlineUnderInjectedConflicts) {
  using Kind = TypeParam;
  Db db(TestConfig(33));
  LoadGroups<Kind>(&db, "g");
  Session victim = db.Session(0);
  Session saboteur = db.Session(1);

  int sabotages = 0;
  RetryPolicy retry;
  retry.max_attempts = 1000;  // the deadline must bind first
  retry.deadline = 2 * kSecond;
  const TimeMicros start = db.simulator()->Now();
  typename Kind::RunResult result;
  DriveKind<Kind>(&victim, "g",
                  AlwaysConflictingBody<Kind>(&saboteur, &sabotages), &result,
                  retry);
  db.Run();
  const TimeMicros elapsed = db.simulator()->Now() - start;

  EXPECT_EQ(result.outcome, TxnOutcome::kConflict);
  EXPECT_GE(result.attempts, 1);
  EXPECT_LT(result.attempts, 1000);
  // No attempt starts after the deadline: total time is bounded by the
  // deadline plus one attempt's duration (an attempt may straddle it; one
  // attempt here is a begin + read + sabotage txn + commit, ~2-3 s).
  EXPECT_LE(elapsed, retry.deadline + 3 * kSecond);
}

// ----------------------------------------------- unknown-outcome surfacing

TEST(RunTransactionTest, UnknownOutcomeFromCrashedClientFaultPlan) {
  // A fault plan takes down both non-home datacenters just before the
  // commit protocol runs; with a tight round cap the client walks away
  // mid-commit — the paper's crashed/impatient client. The outcome is
  // genuinely unknown (acceptors may have decided it), so the combinator
  // must report kUnknownOutcome and must NOT retry.
  Db db(TestConfig(35));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());

  fault::FaultPlan plan;
  plan.events.push_back(
      {100 * kMillisecond, fault::FaultKind::kDatacenterDown, 1, kNoDc, 0});
  plan.events.push_back(
      {100 * kMillisecond, fault::FaultKind::kDatacenterDown, 2, kNoDc, 0});
  db.cluster()->ApplyFaultPlan(plan);

  ClientOptions options;
  options.max_rounds_per_position = 2;  // crash-impatient client
  Session session = db.Session(0, options);

  int body_runs = 0;
  RetryPolicy retry;
  retry.max_attempts = 5;
  TxnResult result;
  struct {
    sim::Task operator()(Db* db, Session* s, int* body_runs,
                         RetryPolicy retry, TxnResult* out) {
      // Wait for the outage, then run a write-only transaction.
      co_await sim::SleepFor(db->simulator(), 200 * kMillisecond);
      *out = co_await s->RunTransaction(
          "g",
          [body_runs](Txn* txn) -> sim::Coro<Status> {
            ++*body_runs;
            co_return txn->Write("r", "n", "1");
          },
          retry);
    }
  } run;
  run(&db, &session, &body_runs, retry, &result);
  db.Run();

  EXPECT_EQ(result.outcome, TxnOutcome::kUnknownOutcome)
      << OutcomeName(result.outcome) << " " << result.status.ToString();
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  // An unknown outcome is never retried: retrying could commit twice.
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(body_runs, 1);
}

TYPED_TEST(RunTransactionTest, BeginFailureIsUnavailableNotUnknown) {
  // With every datacenter down, begin itself fails: nothing was proposed,
  // so the fate is known (not committed) — kUnavailable, no retry.
  using Kind = TypeParam;
  Db db(TestConfig(37));
  LoadGroups<Kind>(&db, "g");
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->SetDatacenterDown(dc, true);
  }
  Session session = db.Session(0);
  typename Kind::RunResult result;
  DriveKind<Kind>(&session, "g",
                  [](typename Kind::Handle* txn) -> sim::Coro<Status> {
                    co_return Kind::Write(txn, "r", "n", "1");
                  },
                  &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kUnavailable);
  // Begin fails over through every datacenter; the terminal status is the
  // last failure (a per-message timeout or unavailability).
  EXPECT_TRUE(result.status.IsUnavailable() || result.status.IsTimedOut())
      << result.status.ToString();
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(SlotsHeld<Kind>(&session, "g", false));
}

}  // namespace
}  // namespace paxoscp
