// Tracing for the benchmark's traced run, recorded entirely from outside
// the library: wall-clock spans around each call the benchmark makes into a
// layer, and a virtual-time span for every service request delivered,
// captured by a wrapper endpoint registered through the public
// net::Network::RegisterEndpoint. Spans stay in memory and are written at
// the end as Chrome trace-event JSON.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/cluster.h"

namespace perfbench {

/// The service request types, named as txn::RequestName names them.
inline constexpr int kNumRequestTypes = 8;
inline constexpr std::array<const char*, kNumRequestTypes> kRequestTypes = {
    "begin",  "read",  "read_row",     "prepare",
    "accept", "apply", "claim_leader", "query_cross"};

class Trace {
 public:
  Trace();

  /// Wall-clock span from construction to destruction.
  class WallScope {
   public:
    WallScope(Trace* trace, std::string name);
    ~WallScope();
    WallScope(const WallScope&) = delete;
    WallScope& operator=(const WallScope&) = delete;

   private:
    Trace* trace_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Replaces every datacenter's endpoint of `cluster` with a wrapper that
  /// counts the delivered request by type (and whether it crossed regions),
  /// then runs TransactionService::Handle inside a timing coroutine that
  /// records the handler's virtual start and end. The response is passed
  /// through unchanged. The cluster must outlive the run it traces and must
  /// not restart services (a restart re-registers the plain endpoint).
  void TapRequests(paxoscp::core::Cluster* cluster);

  /// Delivered requests of type `type` (index into kRequestTypes).
  uint64_t delivered(int type) const { return delivered_[type]; }
  /// Delivered requests whose sender and receiver are in different regions.
  uint64_t wan_delivered() const { return wan_delivered_; }
  /// Handler durations (virtual microseconds) of requests of `type`.
  std::vector<int64_t> HandlerDurations(int type) const;

  /// Writes every span as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct WallSpan {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
  };
  struct RequestSpan {
    int type = 0;
    paxoscp::DcId from = paxoscp::kNoDc;
    paxoscp::DcId to = paxoscp::kNoDc;
    paxoscp::TimeMicros start = 0;
    paxoscp::TimeMicros end = 0;
    /// Range of txn_ids_ holding the ids the request carries.
    uint32_t txn_first = 0;
    uint32_t txn_count = 0;
  };

  friend struct RequestTap;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<WallSpan> wall_spans_;
  std::vector<RequestSpan> request_spans_;
  std::vector<paxoscp::TxnId> txn_ids_;
  std::array<uint64_t, kNumRequestTypes> delivered_{};
  uint64_t wan_delivered_ = 0;
};

}  // namespace perfbench
