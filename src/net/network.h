// Simulated multi-datacenter network. Substitutes for the paper's EC2
// deployment (Virginia x3, Oregon, California over UDP): point-to-point
// latencies come from an RTT matrix, messages can be lost or delayed, whole
// datacenters and individual links can be taken down, and every request is
// bounded by a timeout — exactly the failure model in paper §2.2 ("either
// the message arrives before a known timeout or it is lost").
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/coro.h"
#include "sim/simulator.h"

namespace paxoscp::net {

/// Outcome of a single RPC.
struct CallResult {
  Status status;       // OK, TimedOut, or Unavailable
  std::any response;   // valid iff status.ok()
};

/// Outcome of one target within a Broadcast.
struct TargetResult {
  DcId dc = kNoDc;
  Status status;
  std::any response;
};
using BroadcastResult = std::vector<TargetResult>;

/// A service endpoint: receives a request (with the caller's DcId) and
/// produces a response, possibly suspending (e.g. to learn a log entry).
/// The request is passed by pointer — it is owned by the network layer and
/// outlives the handler coroutine. (Coroutine parameters must be trivially
/// destructible on this toolchain; see sim/coro.h.)
using ServiceHandler =
    std::function<sim::Coro<std::any>(DcId from, const std::any* request)>;

/// Per-call timeout (paper §2.2: "either the message arrives before a known
/// timeout or it is lost", two seconds). A Broadcast waits until every
/// target responded or timed out, so the client keeps collecting votes
/// until this window closes and in practice sees "more than a simple
/// majority" of responses (§5).
inline constexpr TimeMicros kMessageTimeout = 2 * kSecond;

struct NetworkOptions {
  /// Probability that any single one-way message is silently dropped.
  double loss_probability = 0.0;
  /// One-way delay is rtt/2 * (1 + U(-jitter, +jitter)).
  double latency_jitter = 0.10;
  /// RNG seed for delay jitter and loss decisions.
  uint64_t seed = 1;

  // -- Adversarial delivery faults (docs/ARCHITECTURE.md, D10) --------------
  // All randomness below draws from a dedicated fault stream (never the
  // jitter/loss stream), so enabling these faults does not perturb the
  // delivery schedule of the messages they leave alone, and plans without
  // them replay byte-identically to a network that predates the feature.

  /// Probability that an inter-datacenter request is delivered twice: the
  /// copy travels independently (same outage-epoch capture, own delivery
  /// event), so the destination handler runs twice — the service-side
  /// idempotence this repo's 2PC records must provide.
  double duplicate_probability = 0.0;
  /// Probability that a one-way message is held back by an extra delay in
  /// (0, reorder_extra_max], letting later sends overtake it (delivery is
  /// already not FIFO under jitter; this widens the window adversarially).
  double reorder_probability = 0.0;
  /// Max extra delay of a reordered message, and max lag of a duplicate
  /// copy behind its original.
  TimeMicros reorder_extra_max = 200 * kMillisecond;
};

class Network {
 public:
  /// `rtt_matrix[a][b]` is the round-trip time between datacenters a and b
  /// in microseconds; the diagonal models intra-datacenter hops.
  Network(sim::Simulator* sim, std::vector<std::vector<TimeMicros>> rtt_matrix,
          NetworkOptions options);

  int num_datacenters() const { return static_cast<int>(rtt_.size()); }

  /// Installs the handler that serves requests arriving at `dc`.
  void RegisterEndpoint(DcId dc, ServiceHandler handler);

  /// Sends `request` from `from` to `to`; resolves with the response or
  /// TimedOut. `timeout` of 0 uses kMessageTimeout. The request is taken
  /// by reference and copied internally — callers in coroutines must pass a
  /// named object, never a temporary inside a co_await expression (see
  /// sim/coro.h on GCC 12 cross-suspension temporary hazards).
  sim::Future<CallResult> Call(DcId from, DcId to, const std::any& request,
                               TimeMicros timeout = 0);

  /// Sends `request` to every target in parallel and resolves once every
  /// target responded or timed out (`timeout` as in Call). The result
  /// vector is ordered as `targets`.
  sim::Future<BroadcastResult> Broadcast(DcId from,
                                         const std::vector<DcId>& targets,
                                         const std::any& request,
                                         TimeMicros timeout = 0);

  // -- Fault injection ------------------------------------------------------
  //
  // In-flight semantics (docs/ARCHITECTURE.md, design note D6): a message is
  // lost if its destination datacenter, or the directed link it travels,
  // goes down at any point between send and delivery — even if the fault
  // heals before the scheduled arrival (a down->up flap inside one flight
  // window still loses the message). A message whose *source* goes down
  // after it left is delivered normally, and responses already delivered to
  // the caller are never retracted. Implemented with per-destination and
  // per-directed-link outage epochs captured at send time.

  /// Takes a whole datacenter off the network (drops inbound and outbound).
  void SetDatacenterDown(DcId dc, bool down);
  bool IsDatacenterDown(DcId dc) const { return dc_down_[dc]; }

  /// Severs the (bidirectional) link between two datacenters.
  void SetLinkDown(DcId a, DcId b, bool down);

  /// Severs only the `from` -> `to` direction (asymmetric cut: requests one
  /// way still flow while the reverse direction is black-holed).
  void SetLinkOneWayDown(DcId from, DcId to, bool down);
  bool IsLinkDown(DcId from, DcId to) const { return link_down_[from][to]; }

  void set_loss_probability(double p) { options_.loss_probability = p; }
  double loss_probability() const { return options_.loss_probability; }

  // Adversarial delivery faults (see NetworkOptions). Setters are used by
  // the fault injector for kDuplicateBurst / kReorderBurst episodes.
  void set_duplicate_probability(double p) {
    options_.duplicate_probability = p;
  }
  double duplicate_probability() const { return options_.duplicate_probability; }
  void set_reorder_probability(double p) { options_.reorder_probability = p; }
  double reorder_probability() const { return options_.reorder_probability; }
  void set_reorder_extra_max(TimeMicros t) { options_.reorder_extra_max = t; }
  TimeMicros reorder_extra_max() const { return options_.reorder_extra_max; }

  // -- Statistics (used to verify the paper's message-complexity claim) -----

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t calls_started() const { return calls_started_; }
  uint64_t messages_duplicated() const { return messages_duplicated_; }
  uint64_t messages_reordered() const { return messages_reordered_; }
  void ResetStats();

  sim::Simulator* simulator() const { return sim_; }

 private:
  /// Samples the one-way delay from `from` to `to` using `rng` (the main
  /// jitter stream for regular legs, the fault stream for duplicate copies).
  TimeMicros SampleDelayFrom(Rng* rng, DcId from, DcId to);
  /// True if the message should be dropped (loss, outage, severed link),
  /// drawing the loss decision from `rng`.
  bool ShouldDropFrom(Rng* rng, DcId from, DcId to);
  /// Extra reorder delay for one leg: 0 unless a reorder fault is active, in
  /// which case a Bernoulli(reorder_probability) draw from the fault stream
  /// holds the message back by U(1, reorder_extra_max). Never touches rng_.
  TimeMicros MaybeReorderExtra(DcId from, DcId to);
  /// One message flight, started by Call: the request leg lands `delay`
  /// from now (dropped if its channel left `request_epoch` in flight), the
  /// destination's handler serves it, and the response leg, whose loss and
  /// delay are drawn from `rng`, sets `promise`. The original delivery
  /// passes rng_; a duplicated copy passes the fault stream, so the
  /// original's schedule — and every other message's — is unchanged. The
  /// tags name the two legs' events. `request` is copied before the first
  /// suspension (coroutine parameter rules: sim/coro.h, txn/client.h).
  sim::Task Deliver(DcId from, DcId to, TimeMicros delay,
                    uint64_t request_epoch, const std::any* request,
                    sim::Promise<CallResult> promise, Rng* rng,
                    const char* request_tag, const char* response_tag);
  /// Outage epoch of the `from` -> `to` channel. Captured when a message is
  /// sent; if it changed by delivery time the message crossed a fault window
  /// and is lost (see the in-flight semantics note above).
  uint64_t ChannelEpoch(DcId from, DcId to) const {
    return dc_epoch_[to] + link_epoch_[from][to];
  }

  sim::Simulator* sim_;
  std::vector<std::vector<TimeMicros>> rtt_;
  NetworkOptions options_;
  Rng rng_;
  /// Dedicated stream for duplication/reorder faults; only advanced while
  /// the corresponding probability is non-zero, so fault-free runs are
  /// bit-identical with the feature compiled in.
  Rng fault_rng_;
  std::vector<ServiceHandler> handlers_;
  std::vector<bool> dc_down_;
  std::vector<std::vector<bool>> link_down_;
  /// Incremented every time the datacenter / directed link goes down.
  std::vector<uint64_t> dc_epoch_;
  std::vector<std::vector<uint64_t>> link_epoch_;

  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t calls_started_ = 0;
  uint64_t messages_duplicated_ = 0;
  uint64_t messages_reordered_ = 0;
};

}  // namespace paxoscp::net
