#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "sim/race_hooks.h"

namespace paxoscp::net {

namespace {

struct BroadcastAggregator {
  std::vector<TargetResult> results;
  int resolved = 0;
};

}  // namespace

Network::Network(sim::Simulator* sim,
                 std::vector<std::vector<TimeMicros>> rtt_matrix,
                 NetworkOptions options)
    : sim_(sim),
      rtt_(std::move(rtt_matrix)),
      options_(options),
      rng_(options.seed),
      fault_rng_(options.seed ^ 0xd1b54a32d192ed03ULL) {
  const size_t n = rtt_.size();
  for (const auto& row : rtt_) {
    assert(row.size() == n && "rtt matrix must be square");
    (void)row;
  }
  handlers_.resize(n);
  dc_down_.assign(n, false);
  link_down_.assign(n, std::vector<bool>(n, false));
  dc_epoch_.assign(n, 0);
  link_epoch_.assign(n, std::vector<uint64_t>(n, 0));
}

void Network::RegisterEndpoint(DcId dc, ServiceHandler handler) {
  assert(dc >= 0 && dc < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "endpoint", dc});
  }
  handlers_[dc] = std::move(handler);
}

TimeMicros Network::SampleDelayFrom(Rng* rng, DcId from, DcId to) {
  const TimeMicros one_way = rtt_[from][to] / 2;
  if (options_.latency_jitter <= 0 || one_way == 0) {
    return std::max<TimeMicros>(one_way, 1);
  }
  // A consequential draw mutates the shared stream: two same-time events
  // both sampling here observe swapped values under a tie reorder.
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite,
                      {rng == &rng_ ? "net/rng" : "net/fault-rng"});
  }
  const double j = (rng->NextDouble() * 2 - 1) * options_.latency_jitter;
  const auto delayed = static_cast<TimeMicros>(
      static_cast<double>(one_way) * (1.0 + j));
  return std::max<TimeMicros>(delayed, 1);
}

bool Network::ShouldDropFrom(Rng* rng, DcId from, DcId to) {
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", from});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", to});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "link", from, to});
  }
  if (dc_down_[from] || dc_down_[to]) return true;
  if (link_down_[from][to]) return true;
  if (from != to && options_.loss_probability > 0) {
    // The Bernoulli below consumes a draw (Bernoulli(0) never does, so the
    // restructuring preserves the stream position of loss-free runs).
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite,
                        {rng == &rng_ ? "net/rng" : "net/fault-rng"});
    }
    if (rng->Bernoulli(options_.loss_probability)) return true;
  }
  return false;
}

TimeMicros Network::MaybeReorderExtra(DcId from, DcId to) {
  if (options_.reorder_probability <= 0 || from == to) return 0;
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
  }
  if (!fault_rng_.Bernoulli(options_.reorder_probability)) return 0;
  ++messages_reordered_;
  const TimeMicros max_extra =
      std::max<TimeMicros>(options_.reorder_extra_max, 1);
  return 1 + static_cast<TimeMicros>(
                 fault_rng_.Uniform(static_cast<uint64_t>(max_extra)));
}

sim::Future<CallResult> Network::Call(DcId from, DcId to,
                                      const std::any& request,
                                      TimeMicros timeout) {
  assert(from >= 0 && from < num_datacenters());
  assert(to >= 0 && to < num_datacenters());
  if (timeout <= 0) timeout = kMessageTimeout;
  ++calls_started_;

  sim::Promise<CallResult> promise(sim_);

  // Timeout: fires unless a response won the race first.
  sim_->ScheduleAfter(
      timeout,
      [promise] {
        promise.Set(CallResult{Status::TimedOut("rpc timeout"), {}});
      },
      "net/timeout");

  // Request leg.
  ++messages_sent_;
  if (ShouldDropFrom(&rng_, from, to)) {
    ++messages_dropped_;
    return promise.GetFuture();
  }
  const TimeMicros request_delay =
      SampleDelayFrom(&rng_, from, to) + MaybeReorderExtra(from, to);
  const uint64_t request_epoch = ChannelEpoch(from, to);
  Deliver(from, to, request_delay, request_epoch, &request, promise, &rng_,
          "net/request-leg", "net/response-leg");

  // Duplicate-delivery fault: with probability duplicate_probability (fault
  // stream), the request also arrives a second time, a little behind the
  // original. The destination handler runs twice — exactly the re-delivered
  // prepare/decide/apply the 2PC records must tolerate.
  if (options_.duplicate_probability > 0 && from != to) {
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
    }
    if (fault_rng_.Bernoulli(options_.duplicate_probability)) {
      // The copy is a message of its own: counted, lossy, and epoch-checked
      // like any other — it captured the same send-time epoch as the
      // original, so it still respects outage windows and heal gaps. Every
      // random draw on either of its legs comes from the fault stream,
      // leaving the schedule of all non-duplicated traffic untouched.
      ++messages_sent_;
      ++messages_duplicated_;
      if (ShouldDropFrom(&fault_rng_, from, to)) {
        ++messages_dropped_;
      } else {
        const TimeMicros max_lag =
            std::max<TimeMicros>(options_.reorder_extra_max, 1);
        const TimeMicros lag = 1 + static_cast<TimeMicros>(fault_rng_.Uniform(
                                       static_cast<uint64_t>(max_lag)));
        Deliver(from, to, request_delay + lag, request_epoch, &request,
                promise, &fault_rng_, "net/dup-request", "net/dup-response");
      }
    }
  }
  return promise.GetFuture();
}

sim::Task Network::Deliver(DcId from, DcId to, TimeMicros delay,
                           uint64_t request_epoch, const std::any* request,
                           sim::Promise<CallResult> promise, Rng* rng,
                           const char* request_tag,
                           const char* response_tag) {
  // Copied before the first suspension: the caller's request is gone by
  // the time the request leg lands.
  const std::any payload = *request;
  co_await sim::SleepFor(sim_, delay, request_tag);

  // Delivery-time check: drop if the destination is down, or if it (or the
  // link traversed) went down at any point while the message was in flight
  // — a heal before arrival does not resurrect it.
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", to});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "link", from, to});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "endpoint", to});
  }
  if (dc_down_[to] || ChannelEpoch(from, to) != request_epoch ||
      !handlers_[to]) {
    ++messages_dropped_;
    co_return;
  }
  // The flight owns a copy of the handler: RegisterEndpoint may replace the
  // endpoint while this handler is suspended.
  const ServiceHandler handler = handlers_[to];
  std::any response = co_await handler(from, &payload);

  // Response leg. For a duplicate copy a second response is invisible
  // client-side (sim::Promise is first-set-wins), but it still costs a
  // message and can be lost.
  ++messages_sent_;
  if (ShouldDropFrom(rng, to, from)) {
    ++messages_dropped_;
    co_return;
  }
  // Reorder faults hold back original messages only: a duplicate is
  // already a fault-stream message.
  TimeMicros response_delay = SampleDelayFrom(rng, to, from);
  if (rng == &rng_) response_delay += MaybeReorderExtra(to, from);
  const uint64_t response_epoch = ChannelEpoch(to, from);
  co_await sim::SleepFor(sim_, response_delay, response_tag);

  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", from});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "link", to, from});
  }
  if (dc_down_[from] || ChannelEpoch(to, from) != response_epoch) {
    ++messages_dropped_;
    co_return;
  }
  promise.Set(CallResult{Status::OK(), std::move(response)});
}

sim::Future<BroadcastResult> Network::Broadcast(
    DcId from, const std::vector<DcId>& targets, const std::any& request,
    TimeMicros timeout) {
  sim::Promise<BroadcastResult> promise(sim_);
  auto agg = std::make_shared<BroadcastAggregator>();
  const int n = static_cast<int>(targets.size());
  agg->results.resize(n);
  for (int i = 0; i < n; ++i) {
    agg->results[i].dc = targets[i];
    agg->results[i].status = Status::Unavailable("no response collected");
  }
  if (n == 0) {
    promise.Set(BroadcastResult{});
    return promise.GetFuture();
  }

  for (int i = 0; i < n; ++i) {
    // Each call resolves exactly once (response or timeout, first wins), so
    // the last one to resolve hands the whole vector over, moved.
    Call(from, targets[i], request, timeout)
        .OnReady([i, n, agg, promise](CallResult&& result) {
          agg->results[i].status = result.status;
          agg->results[i].response = std::move(result.response);
          if (++agg->resolved == n) promise.Set(std::move(agg->results));
        });
  }
  return promise.GetFuture();
}

void Network::SetDatacenterDown(DcId dc, bool down) {
  assert(dc >= 0 && dc < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "dc", dc});
  }
  if (down && !dc_down_[dc]) ++dc_epoch_[dc];
  dc_down_[dc] = down;
}

void Network::SetLinkDown(DcId a, DcId b, bool down) {
  SetLinkOneWayDown(a, b, down);
  SetLinkOneWayDown(b, a, down);
}

void Network::SetLinkOneWayDown(DcId from, DcId to, bool down) {
  assert(from >= 0 && from < num_datacenters());
  assert(to >= 0 && to < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "link", from, to});
  }
  if (down && !link_down_[from][to]) ++link_epoch_[from][to];
  link_down_[from][to] = down;
}

void Network::ResetStats() {
  messages_sent_ = 0;
  messages_dropped_ = 0;
  calls_started_ = 0;
  messages_duplicated_ = 0;
  messages_reordered_ = 0;
}

}  // namespace paxoscp::net
