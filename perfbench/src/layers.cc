#include "layers.h"

#include <chrono>
#include <map>

#include "wal/log.h"
#include "wal/log_entry.h"
#include "workload/generator.h"

namespace perfbench {

using paxoscp::LogPos;
using paxoscp::Timestamp;
using paxoscp::wal::LogEntry;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Each codec loop repeats until it has run this long, so per-entry times
/// are not dominated by timer resolution on small logs.
constexpr double kMinLoopSeconds = 0.02;

}  // namespace

CheckPass RunCheckPass(paxoscp::core::Cluster* cluster,
                       const std::vector<std::string>& groups,
                       const std::vector<paxoscp::core::ClientOutcome>& outcomes) {
  paxoscp::core::Checker checker(cluster);
  CheckPass pass;
  const auto start = Clock::now();
  const paxoscp::core::CheckReport report =
      groups.size() == 1 ? checker.CheckAll(groups.front(), outcomes)
                         : checker.CheckAllCross(groups, outcomes);
  pass.seconds = SecondsSince(start);
  pass.violations = report.violations.size();
  for (const std::string& group : groups) {
    std::map<LogPos, LogEntry> merged;
    pass.positions += static_cast<double>(
        checker.CheckReplication(group, &merged).max_position);
  }
  return pass;
}

WalPass RunWalPass(paxoscp::core::Cluster* cluster,
                   const std::vector<std::string>& groups) {
  std::vector<LogEntry> entries;
  for (const std::string& group : groups) {
    for (auto& [pos, entry] :
         cluster->service(0)->GroupLog(group)->AllEntries()) {
      entries.push_back(std::move(entry));
    }
  }
  WalPass pass;
  pass.entries = entries.size();
  if (entries.empty()) return pass;
  const double n = static_cast<double>(entries.size());

  std::vector<std::string> encoded(entries.size());
  size_t bytes = 0;
  int rounds = 0;
  auto start = Clock::now();
  do {
    bytes = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      encoded[i] = entries[i].Encode();
      bytes += encoded[i].size();
    }
    ++rounds;
  } while (SecondsSince(start) < kMinLoopSeconds);
  pass.encode_ns = SecondsSince(start) * 1e9 / (n * rounds);
  pass.bytes_per_entry = static_cast<double>(bytes) / n;

  rounds = 0;
  start = Clock::now();
  do {
    for (size_t i = 0; i < entries.size(); ++i) {
      auto decoded = LogEntry::Decode(encoded[i]);
      if (!decoded.ok() || !(*decoded == entries[i])) {
        pass.round_trip_ok = false;
      }
    }
    ++rounds;
  } while (SecondsSince(start) < kMinLoopSeconds);
  pass.decode_ns = SecondsSince(start) * 1e9 / (n * rounds);

  uint64_t sink = 0;
  rounds = 0;
  start = Clock::now();
  do {
    for (const LogEntry& entry : entries) sink ^= entry.Fingerprint();
    ++rounds;
  } while (SecondsSince(start) < kMinLoopSeconds);
  pass.fingerprint_ns = SecondsSince(start) * 1e9 / (n * rounds);
  // An opaque use keeps the fingerprints observable, so the loop cannot be
  // elided.
  asm volatile("" : : "r"(sink));
  return pass;
}

KvPass RunKvPass(paxoscp::core::Cluster* cluster,
                 const std::vector<std::string>& groups, const std::string& row,
                 int num_attributes) {
  // Reads sample the newest kRecentPositions snapshots of each row.
  constexpr LogPos kRecentPositions = 64;
  KvPass pass;
  paxoscp::kvstore::MultiVersionStore* store = cluster->store(0);
  std::vector<std::string> attributes;
  for (int i = 0; i < num_attributes; ++i) {
    attributes.push_back(paxoscp::workload::Generator::AttributeName(i));
  }
  size_t versions = 0;
  uint64_t reads = 0;
  size_t value_bytes = 0;
  double seconds = 0;
  for (const std::string& group : groups) {
    paxoscp::wal::WriteAheadLog* log = cluster->service(0)->GroupLog(group);
    const std::string key = log->DataKey(row);
    versions += store->VersionCount(key);
    const LogPos newest = log->AppliedThrough();
    const LogPos oldest = newest > kRecentPositions ? newest - kRecentPositions
                                                    : 0;
    const auto start = Clock::now();
    for (LogPos pos = oldest; pos <= newest; ++pos) {
      for (const std::string& attribute : attributes) {
        auto value =
            store->ReadAttr(key, attribute, static_cast<Timestamp>(pos));
        if (value.ok()) {
          value_bytes += value->size();
        } else {
          pass.reads_ok = false;
        }
        ++reads;
      }
    }
    seconds += SecondsSince(start);
  }
  pass.versions_per_row =
      static_cast<double>(versions) / static_cast<double>(groups.size());
  pass.read_attr_ns = seconds * 1e9 / static_cast<double>(reads);
  if (value_bytes == 0) pass.reads_ok = false;
  return pass;
}

}  // namespace perfbench
