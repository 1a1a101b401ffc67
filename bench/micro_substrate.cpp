// Microbenchmarks of the substrates (google-benchmark): the multi-version
// store's three atomic operations plus the COW merge/read paths, the
// log-entry codec and streamed fingerprint, the conflict / combination
// machinery, the simulator's event throughput and cancel-heavy churn, a
// full end-to-end commit (virtual-time protocol run, measured in wall time),
// and the end-of-run invariant checker over a synthetic cross-group history.
//
// Pass `--json <path>` to also write a perf-trajectory snapshot
// (name → ns/op, items/s); the schema is documented in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/checker.h"
#include "core/cluster.h"
#include "experiment_common.h"
#include "kvstore/store.h"
#include "paxos/ballot.h"
#include "paxos/value_selection.h"
#include "sim/coro.h"
#include "txn/txn.h"
#include "wal/log_entry.h"
#include "workload/generator.h"

namespace paxoscp {
namespace {

using AttrMap = kvstore::AttributeMap;

// ---------------------------------------------------------------- kvstore

void BM_StoreWrite(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Write("row" + std::to_string(i % 64), {{"a", "value"}}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreWrite);

/// 16-attribute rows: the snapshot-read cost that matters is handing the
/// version's attribute map to the caller (deep copy before D5, shared
/// pointer after), so the row must have realistic width.
void BM_StoreReadSnapshot(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  for (Timestamp ts = 1; ts <= state.range(0); ++ts) {
    AttrMap attrs;
    for (int a = 0; a < 16; ++a) {
      // += instead of `"a" + std::to_string(a)`: GCC 12 -O2 flags the
      // prepend-into-temporary form with a spurious -Wrestrict.
      std::string name = "a";
      name += std::to_string(a);
      std::string value = "value-";
      value += std::to_string(ts);
      attrs[name] = value;
    }
    (void)store.Write("row", std::move(attrs), ts);
  }
  Rng rng(1);
  for (auto _ : state) {
    const Timestamp ts = 1 + static_cast<Timestamp>(
                                 rng.Uniform(state.range(0)));
    benchmark::DoNotOptimize(store.Read("row", ts));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreReadSnapshot)->Arg(8)->Arg(128)->Arg(2048);

void BM_StoreReadAttrView(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  AttrMap attrs;
  for (int a = 0; a < 16; ++a) attrs["a" + std::to_string(a)] = "sixteen-b-value";
  (void)store.Write("row", std::move(attrs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ReadAttrView("row", "a7"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreReadAttrView);

void BM_StoreCheckAndWrite(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  (void)store.Write("row", {{"counter", "0"}});
  int64_t value = 0;
  for (auto _ : state) {
    Status s = store.CheckAndWrite("row", "counter", std::to_string(value),
                                   {{"counter", std::to_string(value + 1)}});
    benchmark::DoNotOptimize(s);
    ++value;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreCheckAndWrite);

/// The log-applier hot path: overlay a handful of updates on a wide row.
void BM_StoreMergeWriteWide(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  AttrMap base;
  for (int a = 0; a < state.range(0); ++a) {
    base["a" + std::to_string(a)] = "value-" + std::to_string(a);
  }
  (void)store.Write("row", std::move(base), 1);
  const AttrMap updates = {{"a1", "update-value-1"}, {"a2", "update-value-2"},
                           {"a3", "update-value-3"}, {"a4", "update-value-4"}};
  Timestamp ts = 1;
  for (auto _ : state) {
    ++ts;
    benchmark::DoNotOptimize(store.MergeWrite("row", updates, ts));
    // Periodic GC keeps memory bounded without dominating the loop.
    if ((ts & 1023) == 0) store.TruncateVersions("row", ts - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreMergeWriteWide)->Arg(64)->Arg(256);

// ------------------------------------------------------------- log codec

wal::LogEntry MakeEntry(int txns, int ops) {
  Rng rng(7);
  wal::LogEntry entry;
  entry.winner_dc = 1;
  for (int t = 0; t < txns; ++t) {
    wal::TxnRecord record;
    record.id = MakeTxnId(1, t + 1);
    record.origin_dc = 1;
    record.read_pos = 41;
    for (int i = 0; i < ops / 2; ++i) {
      record.reads.push_back(wal::ReadRecord{
          {"row", "a" + std::to_string(rng.Uniform(100))}, MakeTxnId(2, 9),
          40});
    }
    for (int i = 0; i < ops / 2; ++i) {
      record.writes.push_back(wal::WriteRecord{
          {"row", "a" + std::to_string(rng.Uniform(100))},
          "sixteen-byte-val"});
    }
    entry.txns.push_back(std::move(record));
  }
  return entry;
}

void BM_LogEntryEncode(benchmark::State& state) {
  const wal::LogEntry entry =
      MakeEntry(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(entry.Encode());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(entry.Encode().size()));
}
BENCHMARK(BM_LogEntryEncode)->Arg(1)->Arg(4);

void BM_LogEntryDecode(benchmark::State& state) {
  const std::string encoded =
      MakeEntry(static_cast<int>(state.range(0)), 10).Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal::LogEntry::Decode(encoded));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_LogEntryDecode)->Arg(1)->Arg(4);

void BM_LogEntryFingerprint(benchmark::State& state) {
  const wal::LogEntry entry = MakeEntry(2, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(entry.Fingerprint());
  }
}
BENCHMARK(BM_LogEntryFingerprint);

void BM_BallotEncodeDecode(benchmark::State& state) {
  const paxos::Ballot b{42, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(paxos::Ballot::Decode(b.Encode()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BallotEncodeDecode);

// --------------------------------------------------- conflict/combination

void BM_PromotionConflictCheck(benchmark::State& state) {
  const wal::LogEntry winners = MakeEntry(3, 10);
  const wal::LogEntry own = MakeEntry(1, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(winners.WritesItemReadBy(own.txns.front()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PromotionConflictCheck);

void BM_CombineExhaustive(benchmark::State& state) {
  const wal::LogEntry own = MakeEntry(1, 10);
  std::vector<wal::TxnRecord> candidates;
  for (int i = 0; i < state.range(0); ++i) {
    wal::LogEntry e = MakeEntry(1, 10);
    e.txns[0].id = MakeTxnId(2, 100 + i);
    candidates.push_back(e.txns[0]);
  }
  paxos::CombinePolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paxos::CombineTransactions(own, candidates, policy));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CombineExhaustive)->Arg(2)->Arg(4);

void BM_CombineGreedy(benchmark::State& state) {
  const wal::LogEntry own = MakeEntry(1, 10);
  std::vector<wal::TxnRecord> candidates;
  for (int i = 0; i < 16; ++i) {  // above the exhaustive limit
    wal::LogEntry e = MakeEntry(1, 10);
    e.txns[0].id = MakeTxnId(2, 100 + i);
    candidates.push_back(e.txns[0]);
  }
  paxos::CombinePolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paxos::CombineTransactions(own, candidates, policy));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CombineGreedy);

// -------------------------------------------------------------- simulator

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i, [&counter] { ++counter; });
    }
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

/// Cost of Simulator::Cancel: 8 schedules, 7 cancels, 1 execution per
/// iteration. No src/ path cancels today — net::Network::Call leaves every
/// RPC timeout scheduled, and the timeout fires as a no-op once the
/// response has set the promise (first Set wins) — so this measures what
/// a cancelling timeout would cost, not what a run does.
void BM_SimulatorScheduleCancelChurn(benchmark::State& state) {
  sim::Simulator sim;
  int counter = 0;
  for (auto _ : state) {
    sim::EventId ids[8];
    for (int i = 0; i < 8; ++i) {
      ids[i] = sim.ScheduleAfter(100 + i, [&counter] { ++counter; });
    }
    for (int i = 0; i < 7; ++i) sim.Cancel(ids[i]);
    sim.Step();  // drains the cancelled timers, runs the survivor
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SimulatorScheduleCancelChurn);

// ----------------------------------------------------- end-to-end commit

sim::Task CommitOne(txn::Session* session, std::string value, bool* done) {
  txn::Txn txn = co_await session->Begin("g");
  if (!txn.active()) co_return;
  (void)co_await txn.Read("r", "a0");
  (void)txn.Write("r", "a1", value);
  (void)co_await txn.Commit();
  *done = true;
}

void BM_EndToEndCommit(benchmark::State& state) {
  // Wall-clock cost of simulating one full commit (protocol messages,
  // acceptor state machine, log apply) on a three-replica cluster.
  for (auto _ : state) {
    state.PauseTiming();
    core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
    config.seed = 5;
    core::Cluster cluster(config);
    (void)cluster.LoadInitialRow("g", "r", {{"a0", "x"}, {"a1", "y"}});
    txn::Session session = cluster.CreateSession(0);
    bool done = false;
    state.ResumeTiming();

    CommitOne(&session, "value", &done);
    cluster.RunToCompletion();
    if (!done) state.SkipWithError("commit did not complete");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndCommit)->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------- checker

/// Writes a serializable 4-group history of `txns` transactions into every
/// replica of `cluster` and returns the group names. Half the transactions
/// span two groups: a prepare in each, then the commit decide in the
/// commit group and its propagated copy in the other. Every read observes
/// the latest serial write of its item.
std::vector<std::string> BuildCheckerHistory(core::Cluster* cluster,
                                             int txns) {
  constexpr int kGroups = 4;
  std::vector<std::string> groups;
  for (int g = 0; g < kGroups; ++g) {
    std::string name = "g";  // += form: see BM_StoreReadSnapshot
    name += std::to_string(g);
    groups.push_back(std::move(name));
  }
  std::vector<std::vector<wal::LogEntry>> logs(kGroups);
  std::vector<std::map<wal::ItemId, wal::ReadRecord>> latest(kGroups);
  Rng rng(7);
  auto random_item = [&rng] {
    std::string attribute = "a";
    attribute += std::to_string(rng.Uniform(100));
    return wal::ItemId{"row", std::move(attribute)};
  };
  auto append = [&](int g, wal::TxnRecord t) {
    const LogPos pos = logs[g].size() + 1;
    if (t.kind != wal::RecordKind::kDecide) {
      t.read_pos = pos - 1;
      for (int r = 0; r < 3; ++r) {
        const wal::ItemId item = random_item();
        wal::ReadRecord& seen = latest[g][item];
        seen.item = item;
        t.reads.push_back(seen);
      }
      wal::ItemId item = random_item();
      latest[g][item] = wal::ReadRecord{item, t.id, pos};
      t.writes.push_back(wal::WriteRecord{std::move(item), "v"});
    }
    wal::LogEntry entry;
    entry.winner_dc = t.origin_dc;
    entry.txns.push_back(std::move(t));
    logs[g].push_back(std::move(entry));
  };
  uint64_t cross_ts = 0;
  for (int i = 1; i <= txns; ++i) {
    wal::TxnRecord t;
    t.id = MakeTxnId(static_cast<DcId>(i % 3), static_cast<uint64_t>(i));
    t.origin_dc = TxnIdDc(t.id);
    const int g = static_cast<int>(rng.Uniform(kGroups));
    if (i % 2 == 0) {
      append(g, std::move(t));
      continue;
    }
    const int other = (g + 1 + static_cast<int>(rng.Uniform(kGroups - 1))) %
                      kGroups;
    const int commit_group = std::min(g, other);
    const int participant = std::max(g, other);
    t.kind = wal::RecordKind::kPrepare;
    t.cross_ts = ++cross_ts;
    t.participants = {groups[commit_group], groups[participant]};
    wal::TxnRecord decide;
    decide.id = t.id;
    decide.origin_dc = t.origin_dc;
    decide.kind = wal::RecordKind::kDecide;
    decide.commit_decision = true;
    append(commit_group, t);
    append(participant, std::move(t));
    append(commit_group, decide);
    append(participant, std::move(decide));
  }
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    for (int g = 0; g < kGroups; ++g) {
      wal::WriteAheadLog* log = cluster->service(dc)->GroupLog(groups[g]);
      for (size_t i = 0; i < logs[g].size(); ++i) {
        (void)log->SetEntry(i + 1, logs[g][i]);
      }
    }
  }
  return groups;
}

/// The full end-of-run invariant check over a synthetic history. Its cost
/// must be linear in log records: a 4x larger history should take about
/// 4x as long, where a per-transaction log rescan would take about 16x.
void BM_CheckAllCross(benchmark::State& state) {
  core::Cluster cluster(*core::ClusterConfig::FromCode("VVV"));
  const std::vector<std::string> groups =
      BuildCheckerHistory(&cluster, static_cast<int>(state.range(0)));
  core::Checker checker(&cluster);
  for (auto _ : state) {
    const core::CheckReport report = checker.CheckAllCross(groups, {});
    if (!report.ok) {
      state.SkipWithError("checker flagged the synthetic history");
      break;
    }
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckAllCross)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- --json reporter

/// Console reporter that additionally accumulates every run into a
/// PerfJsonWriter snapshot.
class JsonSnapshotReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSnapshotReporter(bench::PerfJsonWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double iters = static_cast<double>(run.iterations);
      const double ns_per_op =
          iters > 0 ? run.real_accumulated_time * 1e9 / iters : 0;
      double items_per_s = 0;
      if (auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        items_per_s = it->second;
      }
      writer_->Add(run.benchmark_name(), ns_per_op, items_per_s);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::PerfJsonWriter* writer_;
};

}  // namespace
}  // namespace paxoscp

int main(int argc, char** argv) {
  const std::string json_path = paxoscp::bench::TakeJsonPathArg(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    paxoscp::bench::PerfJsonWriter writer("micro_substrate");
    paxoscp::JsonSnapshotReporter reporter(&writer);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!writer.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("perf snapshot written to %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
