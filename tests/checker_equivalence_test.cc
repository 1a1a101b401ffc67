// Reference-equivalence test for Checker::CheckAllCross. The checker
// indexes each merged log once (design note D13); its verdicts must equal,
// string for string and in order, those of the straightforward version it
// replaced, which rescans whole logs per cross-group transaction and scans
// each item's version chain per read. That version is kept below,
// unchanged apart from living in a test-only subclass, as the reference.
// Seeded random 3-4-group histories with injected anomalies are written
// into a Db's replicated logs through SetEntry and checked by both.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/checker.h"
#include "core/db.h"

namespace paxoscp::core {
namespace {

// ===================================================== reference checker

/// True when `t`'s reads and writes take part in the serial history:
/// ordinary records always do; cross-group prepares only with a canonical
/// commit decision; decide records never (they carry no reads or writes).
bool Effectful(const wal::TxnRecord& t,
               const std::map<TxnId, CrossFate>& decisions) {
  if (t.kind == wal::RecordKind::kData) return true;
  if (t.kind == wal::RecordKind::kDecide) return false;
  auto it = decisions.find(t.id);
  return it != decisions.end() && it->second == CrossFate::kCommitted;
}

/// One group's log plus the item namespace its rows live in (groups are
/// independent keyspaces: "row0" in group A and "row0" in group B are
/// different items in the global graph).
struct NamespacedLog {
  const std::map<LogPos, wal::LogEntry>* log = nullptr;
  std::string ns;
};

/// Builds the MVSG over the union of the given logs and reports cycles.
/// Cross-group transactions appear in several logs under one id, so they
/// are shared nodes — exactly what stitches the per-group serial orders
/// into one global graph.
void CheckMvsgOver(const std::vector<NamespacedLog>& logs,
                   const std::map<TxnId, CrossFate>& decisions,
                   CheckReport* report) {
  // Version order per item is the serial apply order. Edges:
  //   WW: each writer -> the next writer of the same item;
  //   WR: writer -> each reader of its version;
  //   RW: each reader of a version -> the writer of the next version.
  // One-copy serializability of the (global) history implies this graph
  // is acyclic.
  struct VersionInfo {
    TxnId writer;
    std::vector<TxnId> readers;
  };
  struct GlobalItem {
    std::string ns;
    wal::ItemId item;
    bool operator<(const GlobalItem& other) const {
      if (ns != other.ns) return ns < other.ns;
      return item < other.item;
    }
  };
  std::map<GlobalItem, std::vector<VersionInfo>> versions;
  std::vector<TxnId> order;
  std::map<TxnId, size_t> index;

  for (const NamespacedLog& nl : logs) {
    for (const auto& [pos, entry] : *nl.log) {
      for (const wal::TxnRecord& t : entry.txns) {
        if (!Effectful(t, decisions)) continue;
        if (index.count(t.id) == 0) {
          index[t.id] = order.size();
          order.push_back(t.id);
        }
        for (const wal::ReadRecord& r : t.reads) {
          auto& chain = versions[GlobalItem{nl.ns, r.item}];
          if (r.observed_writer == 0) {
            // Initial version: model as a virtual version 0 at the front.
            if (chain.empty() || chain.front().writer != 0) {
              chain.insert(chain.begin(), VersionInfo{0, {}});
            }
            chain.front().readers.push_back(t.id);
          } else {
            bool found = false;
            for (VersionInfo& v : chain) {
              if (v.writer == r.observed_writer) {
                v.readers.push_back(t.id);
                found = true;
                break;
              }
            }
            if (!found) {
              report->Violation("MVSG: txn " + TxnIdToString(t.id) +
                                " reads version of " + r.item.ToString() +
                                " written by unknown txn " +
                                TxnIdToString(r.observed_writer));
            }
          }
        }
        for (const wal::WriteRecord& w : t.writes) {
          versions[GlobalItem{nl.ns, w.item}].push_back(VersionInfo{t.id, {}});
        }
      }
    }
  }

  // Adjacency over txn indices (0 = virtual initial txn gets no node).
  const size_t n = order.size();
  std::vector<std::vector<size_t>> adj(n);
  auto add_edge = [&](TxnId from, TxnId to) {
    if (from == 0 || to == 0 || from == to) return;
    adj[index[from]].push_back(index[to]);
  };
  for (const auto& [item, chain] : versions) {
    for (size_t i = 0; i < chain.size(); ++i) {
      if (i + 1 < chain.size()) {
        add_edge(chain[i].writer, chain[i + 1].writer);  // WW
        for (TxnId reader : chain[i].readers) {
          add_edge(reader, chain[i + 1].writer);  // RW
        }
      }
      for (TxnId reader : chain[i].readers) {
        add_edge(chain[i].writer, reader);  // WR
      }
    }
  }

  // Cycle detection via iterative DFS with colors.
  enum Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(n, kWhite);
  for (size_t start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    std::vector<std::pair<size_t, size_t>> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < adj[node].size()) {
        const size_t child = adj[node][next++];
        if (color[child] == kGray) {
          report->Violation("MVSG cycle involving txn " +
                            TxnIdToString(order[child]));
          color[child] = kBlack;  // report once
        } else if (color[child] == kWhite) {
          color[child] = kGray;
          stack.emplace_back(child, 0);
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
      }
    }
  }
}

/// The cross-group checker as it was before indexing: same public
/// obligations, quadratic in log length.
class ReferenceChecker : public Checker {
 public:
  explicit ReferenceChecker(Cluster* cluster)
      : Checker(cluster), cluster_(cluster) {}

  CheckReport CheckReplication(const std::string& group,
                               std::map<LogPos, wal::LogEntry>* global_log);
  CheckReport CheckAllCross(const std::vector<std::string>& groups,
                            const std::vector<ClientOutcome>& outcomes);

 private:
  Cluster* cluster_;
};

CheckReport ReferenceChecker::CheckReplication(
    const std::string& group, std::map<LogPos, wal::LogEntry>* global_log) {
  CheckReport report;
  global_log->clear();
  std::map<LogPos, uint64_t> fingerprints;
  for (DcId dc = 0; dc < cluster_->num_datacenters(); ++dc) {
    const std::map<LogPos, wal::LogEntry> entries =
        cluster_->service(dc)->GroupLog(group)->AllEntries();
    for (const auto& [pos, entry] : entries) {
      const uint64_t fp = entry.Fingerprint();
      auto it = fingerprints.find(pos);
      if (it == fingerprints.end()) {
        fingerprints.emplace(pos, fp);
        global_log->emplace(pos, entry);
      } else if (it->second != fp) {
        report.Violation("(R1) datacenter " + std::to_string(dc) +
                         " disagrees on log position " + std::to_string(pos));
      }
    }
  }
  // Contiguity: positions are contested strictly in order (commit position
  // = read position + 1; promotion only advances past decided positions),
  // so the merged log must have no gaps.
  LogPos expected = 1;
  for (const auto& [pos, entry] : *global_log) {
    if (pos != expected) {
      report.Violation("log gap: expected position " +
                       std::to_string(expected) + ", found " +
                       std::to_string(pos));
    }
    expected = pos + 1;
  }
  report.max_position =
      global_log->empty() ? 0 : global_log->rbegin()->first;
  for (const auto& [pos, entry] : *global_log) {
    // Decide records are protocol bookkeeping, not transactions — they
    // count neither as committed transactions nor toward combination.
    int real_txns = 0;
    for (const wal::TxnRecord& t : entry.txns) {
      if (t.kind != wal::RecordKind::kDecide) ++real_txns;
    }
    report.committed_txns_in_log += real_txns;
    if (real_txns > 1) {
      report.combined_entries++;
      report.combined_txns += real_txns - 1;
    }
  }
  return report;
}

CheckReport ReferenceChecker::CheckAllCross(const std::vector<std::string>& groups,
                                   const std::vector<ClientOutcome>& outcomes) {
  CheckReport report;
  std::map<std::string, std::map<LogPos, wal::LogEntry>> logs;
  for (const std::string& group : groups) {
    CheckReport group_report = CheckReplication(group, &logs[group]);
    for (std::string& v : group_report.violations) {
      report.Violation("[" + group + "] " + std::move(v));
    }
    report.max_position =
        std::max(report.max_position, group_report.max_position);
    report.committed_txns_in_log += group_report.committed_txns_in_log;
    report.combined_entries += group_report.combined_entries;
    report.combined_txns += group_report.combined_txns;
  }

  // ---- Cross-group bookkeeping: prepares per transaction per group, and
  // the canonical fate from each transaction's commit group.
  struct PrepareSite {
    std::string group;
    LogPos pos = 0;
    size_t entry_index = 0;
    const wal::TxnRecord* record = nullptr;
  };
  std::map<TxnId, std::vector<PrepareSite>> prepares;
  for (const auto& [group, log] : logs) {
    for (const auto& [pos, entry] : log) {
      for (size_t i = 0; i < entry.txns.size(); ++i) {
        const wal::TxnRecord& t = entry.txns[i];
        if (t.kind == wal::RecordKind::kPrepare) {
          prepares[t.id].push_back(PrepareSite{group, pos, i, &t});
        }
      }
    }
  }

  std::map<TxnId, CrossFate> canonical;
  for (const auto& [id, sites] : prepares) {
    const wal::TxnRecord& first = *sites.front().record;
    // Participant lists must agree across every prepare of the txn.
    for (const PrepareSite& site : sites) {
      if (site.record->participants != first.participants ||
          site.record->cross_ts != first.cross_ts) {
        report.Violation("cross txn " + TxnIdToString(id) +
                         " has inconsistent prepare metadata across groups");
      }
    }
    if (first.participants.empty()) {
      report.Violation("cross txn " + TxnIdToString(id) +
                       " has an empty participant list");
      canonical[id] = CrossFate::kAborted;
      continue;
    }
    const std::string& commit_group = first.participants.front();
    auto cg = logs.find(commit_group);
    if (cg == logs.end()) {
      report.Violation("cross txn " + TxnIdToString(id) + " names '" +
                       commit_group +
                       "' as commit group, which is not among the checked "
                       "groups");
      canonical[id] = CrossFate::kAborted;
      continue;
    }
    // Canonical fate: the first decide record in the commit group's log.
    CrossFate fate = CrossFate::kUndecided;
    for (const auto& [pos, entry] : cg->second) {
      if (const wal::TxnRecord* d = entry.FindDecide(id)) {
        fate = d->commit_decision ? CrossFate::kCommitted
                                  : CrossFate::kAborted;
        break;
      }
    }
    canonical[id] = fate;

    // Atomicity: a committed transaction prepared in *every* participant
    // group, exactly once per group.
    if (fate == CrossFate::kCommitted) {
      for (const std::string& participant : first.participants) {
        int count = 0;
        for (const PrepareSite& site : sites) {
          if (site.group == participant) ++count;
        }
        if (count != 1) {
          report.Violation("atomicity: committed cross txn " +
                           TxnIdToString(id) + " has " +
                           std::to_string(count) + " prepares in group '" +
                           participant + "' (expected 1)");
        }
      }
    }
    // Prepares only in declared participant groups.
    for (const PrepareSite& site : sites) {
      if (std::find(first.participants.begin(), first.participants.end(),
                    site.group) == first.participants.end()) {
        report.Violation("cross txn " + TxnIdToString(id) +
                         " prepared in non-participant group '" + site.group +
                         "'");
      }
    }
    // Decision consistency: outside the commit group every decide record
    // must carry the canonical decision (they are propagated copies, and
    // they are what each group's replicas apply). Inside the commit group
    // later conflicting decides are legal race artifacts — only the first
    // counts.
    for (const auto& [group, log] : logs) {
      if (group == commit_group) continue;
      for (const auto& [pos, entry] : log) {
        for (const wal::TxnRecord& t : entry.txns) {
          if (t.kind != wal::RecordKind::kDecide || t.id != id) continue;
          const CrossFate recorded = t.commit_decision
                                         ? CrossFate::kCommitted
                                         : CrossFate::kAborted;
          if (fate == CrossFate::kUndecided || recorded != fate) {
            report.Violation(
                "atomicity: decide for cross txn " + TxnIdToString(id) +
                " in group '" + group + "' at position " +
                std::to_string(pos) +
                " disagrees with the commit group's canonical decision");
          }
        }
      }
    }
  }

  // ---- Shared commit order: committed prepares must appear in every
  // group's log in increasing (cross_ts, id) order (D8 — this is what
  // makes the union of the per-group serial orders acyclic).
  for (const auto& [group, log] : logs) {
    uint64_t last_ts = 0;
    TxnId last_id = 0;
    bool have_last = false;
    for (const auto& [pos, entry] : log) {
      for (const wal::TxnRecord& t : entry.txns) {
        if (t.kind != wal::RecordKind::kPrepare) continue;
        auto fate = canonical.find(t.id);
        if (fate == canonical.end() || fate->second != CrossFate::kCommitted) {
          continue;  // aborted/undecided prepares may be out of order
        }
        if (have_last && (t.cross_ts < last_ts ||
                          (t.cross_ts == last_ts && t.id < last_id))) {
          report.Violation("commit order: committed cross txn " +
                           TxnIdToString(t.id) + " at position " +
                           std::to_string(pos) + " of group '" + group +
                           "' is ordered before an older committed prepare");
        }
        last_ts = t.cross_ts;
        last_id = t.id;
        have_last = true;
      }
    }
  }

  // ---- Client-visible fates of cross transactions.
  for (const ClientOutcome& o : outcomes) {
    if (o.groups.empty()) continue;
    auto fate = canonical.find(o.id);
    const CrossFate f =
        fate == canonical.end() ? CrossFate::kUndecided : fate->second;
    if (o.unknown) continue;
    if (o.committed && f != CrossFate::kCommitted) {
      report.Violation("(L1) committed cross txn " + TxnIdToString(o.id) +
                       " is not canonically committed in the log");
    }
    if (!o.committed && f == CrossFate::kCommitted) {
      report.Violation("(L1) aborted cross txn " + TxnIdToString(o.id) +
                       " is canonically committed in the log");
    }
  }

  // ---- Per-group checks with canonical decisions, then the global MVSG.
  for (const auto& [group, log] : logs) {
    std::vector<ClientOutcome> group_outcomes;
    for (const ClientOutcome& o : outcomes) {
      if (o.groups.empty() && o.group == group) group_outcomes.push_back(o);
    }
    CheckReport group_report;
    if (!group_outcomes.empty()) {
      CheckOutcomes(log, group_outcomes, &group_report);
    }
    CheckOneCopySerializability(log, canonical, &group_report);
    for (std::string& v : group_report.violations) {
      report.Violation("[" + group + "] " + std::move(v));
    }
  }
  std::vector<NamespacedLog> namespaced;
  namespaced.reserve(logs.size());
  for (const auto& [group, log] : logs) {
    namespaced.push_back(NamespacedLog{&log, group});
  }
  CheckMvsgOver(namespaced, canonical, &report);
  return report;
}

// ===================================================== history generator

/// Anomalies a generated history may carry. Each history enables a random
/// subset; an enabled anomaly hits a random share of eligible records.
enum Anomaly : int {
  kMissingPrepare,       // committed txn with no prepare in a participant
  kDisagreeingDecide,    // propagated decide contradicting the canonical one
  kLateConflictDecide,   // later opposite decide inside the commit group
  kCommitOrder,          // committed prepare with an older cross timestamp
  kInconsistentPrepare,  // participant list or timestamp differs per group
  kNonParticipant,       // prepare in a group outside the participant list
  kEmptyParticipants,    // prepare naming no participants
  kUncheckedCommitGroup, // commit group left out of the checked groups
  kUnknownWriter,        // read observing a writer that never wrote
  kStaleRead,            // read of an overwritten version (RW/WW cycles)
  kReplicaDisagrees,     // one replica holds a different entry at a position
  kLogGap,               // a position missing at every replica
  kLyingOutcome,         // client outcome contradicting the log
  kOrphanDecide,         // decide for a transaction with no prepare
  kDuplicateTxn,         // one data record at two positions of a group
  kAnomalyCount,
};

/// The violation text each anomaly must provoke in at least one history
/// (empty: the anomaly is legal, so there is no text to expect).
constexpr const char* kExpectedText[kAnomalyCount] = {
    "prepares in group",
    "disagrees with the commit group's canonical decision",
    "",
    "commit order:",
    "inconsistent prepare metadata",
    "prepared in non-participant group",
    "empty participant list",
    "which is not among the checked groups",
    "written by unknown txn",
    "MVSG cycle involving txn",
    "(R1)",
    "log gap",
    "(L1)",
    "",
    "log positions",
};

constexpr int kDatacenters = 3;  // VVV

/// "<prefix><n>", built with += (GCC 12 -O2 flags the prepend-into-
/// temporary form with a spurious -Wrestrict).
std::string Name(const char* prefix, uint64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

class HistoryGen {
 public:
  explicit HistoryGen(uint64_t seed) : rng_(seed) {
    const int num_groups = 3 + static_cast<int>(rng_.Uniform(2));
    for (int g = 0; g < num_groups; ++g) {
      groups_.push_back(Name("g", g));
    }
    // One history in five is anomaly-free, so the accepting path is
    // compared too.
    const bool anomalous = rng_.Bernoulli(0.8);
    for (int a = 0; a < kAnomalyCount; ++a) {
      enabled_[a] = anomalous && rng_.Bernoulli(0.35);
    }
  }

  /// Generates the history and writes it into `db`'s logs.
  void Build(Db* db) {
    const int txns = static_cast<int>(rng_.UniformRange(20, 60));
    for (int i = 0; i < txns; ++i) {
      FlushDecides(/*all=*/false);
      if (rng_.Bernoulli(0.5)) {
        DataTxn();
      } else {
        CrossTxn();
      }
    }
    FlushDecides(/*all=*/true);
    WriteReplicas(db);
    checked_ = groups_;
    if (Hit(kUncheckedCommitGroup, 0.5)) checked_.erase(checked_.begin());
  }

  const std::vector<std::string>& checked_groups() const { return checked_; }
  const std::vector<ClientOutcome>& outcomes() const { return outcomes_; }
  bool injected(int anomaly) const { return injected_[anomaly]; }

 private:
  struct Version {
    TxnId writer = 0;
    LogPos pos = 0;
  };
  struct DelayedDecide {
    std::string group;
    wal::TxnRecord record;
    int delay = 0;
  };

  bool Hit(Anomaly a, double p) {
    if (!enabled_[a] || !rng_.Bernoulli(p)) return false;
    injected_[a] = true;
    return true;
  }

  TxnId NewId() {
    return MakeTxnId(static_cast<DcId>(rng_.Uniform(kDatacenters)), ++seq_);
  }

  const std::string& RandomGroup() {
    return groups_[rng_.Uniform(groups_.size())];
  }

  static wal::ItemId RandomItem(Rng* rng) {
    return wal::ItemId{rng->Bernoulli(0.8) ? "r" : "s",
                       Name("a", rng->Uniform(6))};
  }

  /// Fills `t`'s reads (observing the current serial state of `group`) and
  /// writes.
  void ReadsAndWrites(const std::string& group, wal::TxnRecord* t) {
    t->origin_dc = TxnIdDc(t->id);
    t->read_pos = logs_[group].size();
    const int reads = static_cast<int>(rng_.Uniform(4));
    for (int r = 0; r < reads; ++r) {
      const wal::ItemId item = RandomItem(&rng_);
      const std::vector<Version>& chain = versions_[group][item];
      Version seen = chain.empty() ? Version{} : chain.back();
      if (Hit(kStaleRead, 0.15) && !chain.empty()) {
        seen = chain.size() >= 2 ? chain[chain.size() - 2] : Version{};
      }
      if (Hit(kUnknownWriter, 0.03)) seen = Version{MakeTxnId(9, ++seq_), 1};
      t->reads.push_back(wal::ReadRecord{item, seen.writer, seen.pos});
    }
    // Distinct items: a transaction buffers one write per item.
    std::set<wal::ItemId> written;
    const int writes = 1 + static_cast<int>(rng_.Uniform(2));
    for (int w = 0; w < writes; ++w) {
      const wal::ItemId item = RandomItem(&rng_);
      if (written.insert(item).second) {
        t->writes.push_back(wal::WriteRecord{item, "v"});
      }
    }
  }

  void ApplyWrites(const std::string& group, const wal::TxnRecord& t,
                   LogPos pos) {
    for (const wal::WriteRecord& w : t.writes) {
      versions_[group][w.item].push_back(Version{t.id, pos});
    }
  }

  /// Appends `t` as a new entry of `group`, or (combination) to the last
  /// entry when that holds only data records. Returns the position.
  LogPos Append(const std::string& group, wal::TxnRecord t, bool combine) {
    std::vector<wal::LogEntry>& log = logs_[group];
    const bool can_combine =
        combine && !log.empty() &&
        std::all_of(log.back().txns.begin(), log.back().txns.end(),
                    [](const wal::TxnRecord& r) { return !r.IsCross(); });
    if (!can_combine) {
      log.emplace_back();
      log.back().winner_dc = t.origin_dc;
    }
    log.back().txns.push_back(std::move(t));
    return log.size();
  }

  void DataTxn() {
    const std::string& group = RandomGroup();
    wal::TxnRecord t;
    t.id = NewId();
    ReadsAndWrites(group, &t);
    const TxnId id = t.id;
    wal::TxnRecord applied = t;
    const LogPos pos = Append(group, std::move(t), rng_.Bernoulli(0.2));
    ApplyWrites(group, applied, pos);
    if (Hit(kDuplicateTxn, 0.05)) {
      ApplyWrites(group, applied,
                  Append(group, applied, /*combine=*/false));
    }
    ClientOutcome o;
    o.id = id;
    o.committed = true;
    o.position = pos;
    o.group = group;
    if (Hit(kLyingOutcome, 0.05)) o.committed = false;
    outcomes_.push_back(o);
  }

  void CrossTxn() {
    // Participants: 2-3 distinct groups, sorted; front() commits.
    std::vector<std::string> participants = groups_;
    for (size_t i = participants.size(); i > 1; --i) {
      std::swap(participants[i - 1], participants[rng_.Uniform(i)]);
    }
    participants.resize(2 + rng_.Uniform(2));
    std::sort(participants.begin(), participants.end());
    const TxnId id = NewId();
    uint64_t ts = ++cross_ts_;
    if (cross_ts_ > 3 && Hit(kCommitOrder, 0.15)) ts = cross_ts_ - 3;
    const double roll = rng_.NextDouble();
    const bool decided = roll < 0.92;
    const bool commit = roll < 0.75;

    const bool skip_one = commit && Hit(kMissingPrepare, 0.2);
    const size_t skipped = 1 + rng_.Uniform(participants.size() - 1);
    const bool empty = Hit(kEmptyParticipants, 0.05);
    for (size_t p = 0; p < participants.size(); ++p) {
      if (skip_one && p == skipped) continue;
      const std::string& group = participants[p];
      wal::TxnRecord t;
      t.id = id;
      t.kind = wal::RecordKind::kPrepare;
      t.cross_ts = ts;
      t.participants = empty ? std::vector<std::string>{} : participants;
      if (Hit(kInconsistentPrepare, 0.08)) {
        if (rng_.Bernoulli(0.5)) {
          t.participants.push_back("zz");
        } else {
          t.cross_ts += 1;
        }
      }
      ReadsAndWrites(group, &t);
      wal::TxnRecord applied = t;
      const LogPos pos = Append(group, std::move(t), /*combine=*/false);
      if (commit) ApplyWrites(group, applied, pos);
    }
    if (Hit(kNonParticipant, 0.1) && participants.size() < groups_.size()) {
      for (const std::string& g : groups_) {
        if (std::find(participants.begin(), participants.end(), g) !=
            participants.end()) {
          continue;
        }
        wal::TxnRecord t;
        t.id = id;
        t.kind = wal::RecordKind::kPrepare;
        t.cross_ts = ts;
        t.participants = participants;
        t.origin_dc = TxnIdDc(id);
        Append(g, std::move(t), /*combine=*/false);
        break;
      }
    }

    if (decided) {
      const int base = static_cast<int>(rng_.Uniform(3));
      for (size_t p = 0; p < participants.size(); ++p) {
        bool value = commit;
        if (p > 0 && Hit(kDisagreeingDecide, 0.1)) value = !value;
        Delay(participants[p], Decide(id, value),
              base + (p == 0 ? 0 : 1 + static_cast<int>(rng_.Uniform(4))));
      }
      if (Hit(kLateConflictDecide, 0.15)) {
        Delay(participants.front(), Decide(id, !commit),
              base + 1 + static_cast<int>(rng_.Uniform(3)));
      }
    }
    if (Hit(kOrphanDecide, 0.05)) {
      Delay(RandomGroup(), Decide(MakeTxnId(8, ++seq_), true), 0);
    }

    ClientOutcome o;
    o.id = id;
    o.groups = participants;
    o.unknown = !decided;
    o.committed = commit;
    if (Hit(kLyingOutcome, 0.05)) o.committed = !o.committed;
    outcomes_.push_back(o);
  }

  static wal::TxnRecord Decide(TxnId id, bool commit) {
    wal::TxnRecord d;
    d.id = id;
    d.origin_dc = TxnIdDc(id);
    d.kind = wal::RecordKind::kDecide;
    d.commit_decision = commit;
    return d;
  }

  void Delay(const std::string& group, wal::TxnRecord record, int delay) {
    delayed_.push_back(DelayedDecide{group, std::move(record), delay});
  }

  /// Appends decides whose delay ran out (all of them when `all`), in the
  /// order they were queued.
  void FlushDecides(bool all) {
    std::vector<DelayedDecide> keep;
    for (DelayedDecide& d : delayed_) {
      if (all || d.delay <= 0) {
        Append(d.group, std::move(d.record), /*combine=*/false);
      } else {
        --d.delay;
        keep.push_back(std::move(d));
      }
    }
    delayed_ = std::move(keep);
  }

  /// Writes every group's log to each replica. Replicas other than dc 0
  /// may miss a suffix (legal); injected anomalies drop a position everywhere or make one
  /// replica hold a different entry.
  void WriteReplicas(Db* db) {
    for (const std::string& group : groups_) {
      const std::vector<wal::LogEntry>& log = logs_[group];
      if (log.empty()) continue;
      LogPos gap = 0;
      if (log.size() > 2 && Hit(kLogGap, 0.15)) {
        gap = 1 + rng_.Uniform(log.size() - 1);
      }
      LogPos diverged = 0;
      DcId diverging_dc = 0;
      if (Hit(kReplicaDisagrees, 0.3)) {
        diverged = 1 + rng_.Uniform(log.size());
        diverging_dc = static_cast<DcId>(rng_.Uniform(kDatacenters));
      }
      for (DcId dc = 0; dc < kDatacenters; ++dc) {
        const LogPos missing_suffix =
            dc > 0 && rng_.Bernoulli(0.3) ? rng_.Uniform(3) : 0;
        wal::WriteAheadLog* wal = db->cluster()->service(dc)->GroupLog(group);
        for (LogPos pos = 1; pos + missing_suffix <= log.size(); ++pos) {
          if (pos == gap) continue;
          wal::LogEntry entry = log[pos - 1];
          if (pos == diverged && dc == diverging_dc) {
            entry.winner_dc = (entry.winner_dc + 1) % kDatacenters;
          }
          ASSERT_TRUE(wal->SetEntry(pos, entry).ok());
        }
      }
    }
  }

  Rng rng_;
  std::vector<std::string> groups_;
  std::vector<std::string> checked_;
  bool enabled_[kAnomalyCount] = {};
  bool injected_[kAnomalyCount] = {};
  uint64_t seq_ = 0;
  uint64_t cross_ts_ = 0;
  std::map<std::string, std::vector<wal::LogEntry>> logs_;
  std::map<std::string, std::map<wal::ItemId, std::vector<Version>>>
      versions_;
  std::vector<DelayedDecide> delayed_;
  std::vector<ClientOutcome> outcomes_;
};

ClusterConfig TestConfig(uint64_t seed) {
  ClusterConfig config = *ClusterConfig::FromCode("VVV");
  config.seed = seed;
  return config;
}

bool Mentions(const CheckReport& report, const std::string& text) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [&](const std::string& v) { return v.find(text) != std::string::npos; });
}

// ================================================================ tests

TEST(CheckerEquivalenceTest, IndexedCheckerMatchesReferenceOnRandomHistories) {
  constexpr uint64_t kHistories = 200;
  int injected[kAnomalyCount] = {};
  int provoked[kAnomalyCount] = {};
  int clean = 0;
  for (uint64_t seed = 1; seed <= kHistories; ++seed) {
    SCOPED_TRACE("history seed " + std::to_string(seed));
    Db db(TestConfig(seed));
    HistoryGen gen(seed);
    gen.Build(&db);
    if (HasFatalFailure()) return;

    Checker checker(db.cluster());
    ReferenceChecker reference(db.cluster());
    const CheckReport got =
        checker.CheckAllCross(gen.checked_groups(), gen.outcomes());
    const CheckReport want =
        reference.CheckAllCross(gen.checked_groups(), gen.outcomes());
    ASSERT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.ToString(), want.ToString());
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.combined_txns, want.combined_txns);

    if (want.ok) ++clean;
    for (int a = 0; a < kAnomalyCount; ++a) {
      if (!gen.injected(a)) continue;
      ++injected[a];
      if (*kExpectedText[a] != '\0' && Mentions(want, kExpectedText[a])) {
        ++provoked[a];
      }
    }
  }
  // Every anomaly was injected, and each that is a violation was caught
  // somewhere; some histories stay clean, so the accepting path is
  // compared too.
  for (int a = 0; a < kAnomalyCount; ++a) {
    EXPECT_GT(injected[a], 0) << "anomaly " << a << " never injected";
    if (*kExpectedText[a] != '\0') {
      EXPECT_GT(provoked[a], 0) << "anomaly " << a << " never provoked '"
                                << kExpectedText[a] << "'";
    }
  }
  EXPECT_GT(clean, 0);
}

}  // namespace
}  // namespace paxoscp::core
