#include "txn/transaction.h"

#include <algorithm>

namespace paxoscp::txn {

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kBasicPaxos:
      return "paxos";
    case Protocol::kPaxosCP:
      return "paxos-cp";
  }
  return "?";
}

bool ActiveTxn::Read(const wal::ItemId& item, std::string* value) const {
  auto it = writes.find(item);
  if (it == writes.end()) return false;
  *value = it->second;
  return true;
}

bool ActiveTxn::HasRecordedRead(const wal::ItemId& item) const {
  for (const wal::ReadRecord& r : reads) {
    if (r.item == item) return true;
  }
  return false;
}

wal::TxnRecord ActiveTxn::ToRecord(DcId origin_dc) const {
  wal::TxnRecord record;
  record.id = id;
  record.origin_dc = origin_dc;
  record.read_pos = read_pos;
  record.reads = reads;
  // Canonical item order: the read-set is a set (conflict checks are
  // membership-only), but the parallel read fan-out appends entries in
  // response-arrival order, which would leak schedule order into the
  // record's encoding and hence the Paxos value identity. Writes keep
  // program order — apply order is list order.
  std::sort(record.reads.begin(), record.reads.end(),
            [](const wal::ReadRecord& a, const wal::ReadRecord& b) {
              return a.item < b.item;
            });
  record.writes.reserve(writes.size());
  for (const auto& [item, value] : writes) {
    record.writes.push_back(wal::WriteRecord{item, value});
  }
  return record;
}

bool PromotionConflicts(const wal::TxnRecord& txn,
                        const wal::LogEntry& winners) {
  return winners.WritesItemReadBy(txn);
}

}  // namespace paxoscp::txn
