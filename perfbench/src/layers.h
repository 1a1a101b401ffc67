// Per-layer passes over a finished cluster. Each pass calls only public
// functions of one layer (checker, WAL codec, multi-version store) and
// times them on the state the workload left behind.
#pragma once

#include <string>
#include <vector>

#include "core/checker.h"
#include "core/cluster.h"

namespace perfbench {

struct CheckPass {
  double seconds = 0;         // one full CheckAll / CheckAllCross pass
  size_t violations = 0;
  /// CheckReport::max_position summed over the groups (per-group
  /// CheckReplication, since CheckAllCross reports the max over groups).
  double positions = 0;
};

/// Re-runs the invariant checker over the final state: CheckAll for one
/// group, CheckAllCross for several.
CheckPass RunCheckPass(paxoscp::core::Cluster* cluster,
                       const std::vector<std::string>& groups,
                       const std::vector<paxoscp::core::ClientOutcome>& outcomes);

struct WalPass {
  size_t entries = 0;
  double bytes_per_entry = 0;
  double encode_ns = 0;        // per entry
  double decode_ns = 0;        // per entry
  double fingerprint_ns = 0;   // per entry
  bool round_trip_ok = true;   // every Decode(Encode(e)) == e
};

/// Times LogEntry::Encode, Decode and Fingerprint over every entry of
/// WriteAheadLog::AllEntries() of each group at datacenter 0.
WalPass RunWalPass(paxoscp::core::Cluster* cluster,
                   const std::vector<std::string>& groups);

struct KvPass {
  double versions_per_row = 0;
  double read_attr_ns = 0;  // per ReadAttr call
  bool reads_ok = true;     // every timed ReadAttr found its value
};

/// Counts the versions of each group's data row at datacenter 0 and times
/// MultiVersionStore::ReadAttr of every attribute at the row's most recent
/// positions.
KvPass RunKvPass(paxoscp::core::Cluster* cluster,
                 const std::vector<std::string>& groups, const std::string& row,
                 int num_attributes);

}  // namespace perfbench
