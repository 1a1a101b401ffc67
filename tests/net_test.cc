// Unit tests for the simulated network: latency, timeouts, loss, outages,
// broadcast policies, endpoint replacement and the event shape of one
// message flight.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/network.h"
#include "sim/coro.h"
#include "sim/race_detector.h"

namespace paxoscp::net {
namespace {

constexpr TimeMicros kRtt = 10 * kMillisecond;

/// Echo service: replies with "<dc>:<payload>" after an optional delay.
ServiceHandler EchoHandler(sim::Simulator* sim, DcId dc,
                           TimeMicros service_time = 0) {
  return [sim, dc, service_time](DcId /*from*/,
                                 const std::any* request) -> sim::Coro<std::any> {
    if (service_time > 0) co_await sim::SleepFor(sim, service_time);
    co_return std::any(std::to_string(dc) + ":" +
                       std::any_cast<std::string>(*request));
  };
}

class NetworkTest : public ::testing::Test {
 protected:
  void Build(int dcs, NetworkOptions options = {}) {
    options.latency_jitter = 0;  // exact timing assertions
    std::vector<std::vector<TimeMicros>> rtt(
        dcs, std::vector<TimeMicros>(dcs, kRtt));
    for (int i = 0; i < dcs; ++i) rtt[i][i] = 1000;
    network_ = std::make_unique<Network>(&sim_, rtt, options);
    for (DcId dc = 0; dc < dcs; ++dc) {
      network_->RegisterEndpoint(dc, EchoHandler(&sim_, dc));
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> network_;
};

TEST_F(NetworkTest, CallDeliversResponse) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("ping")))
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(std::any_cast<std::string>(result->response), "1:ping");
}

TEST_F(NetworkTest, CallTakesOneRoundTrip) {
  Build(2);
  TimeMicros completed_at = -1;
  network_->Call(0, 1, std::any(std::string("x")))
      .OnReady([&](CallResult&&) { completed_at = sim_.Now(); });
  sim_.RunUntil(kRtt + kMillisecond);
  EXPECT_GE(completed_at, kRtt);            // one full round trip
  EXPECT_LE(completed_at, kRtt + 2);        // plus delivery events
}

TEST_F(NetworkTest, IntraDatacenterCallIsFast) {
  Build(2);
  TimeMicros completed_at = -1;
  network_->Call(0, 0, std::any(std::string("x")))
      .OnReady([&](CallResult&&) { completed_at = sim_.Now(); });
  sim_.RunUntil(5 * kMillisecond);
  EXPECT_GE(completed_at, 0);
  EXPECT_LE(completed_at, 2 * kMillisecond);
}

TEST_F(NetworkTest, TimeoutFiresWhenDestinationDown) {
  Build(2);
  network_->SetDatacenterDown(1, true);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, OutageMidFlightDropsDelivery) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // Take the destination down after the message left but before arrival.
  sim_.ScheduleAfter(kRtt / 4, [&] { network_->SetDatacenterDown(1, true); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, LinkDownBlocksOnlyThatPair) {
  Build(3);
  network_->SetLinkDown(0, 1, true);
  std::optional<CallResult> blocked, open;
  network_->Call(0, 1, std::any(std::string("x")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { blocked = std::move(r); });
  network_->Call(0, 2, std::any(std::string("x")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { open = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(blocked->status.IsTimedOut());
  EXPECT_TRUE(open->status.ok());
}

TEST_F(NetworkTest, TotalLossTimesOutEveryCall) {
  NetworkOptions options;
  options.loss_probability = 1.0;
  Build(2, options);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 20 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(result->status.IsTimedOut());
  EXPECT_GT(network_->messages_dropped(), 0u);
}

TEST_F(NetworkTest, BroadcastCollectsAllTargets) {
  Build(3);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, std::any(std::string("hi")))
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*result)[i].dc, i);
    ASSERT_TRUE((*result)[i].status.ok());
    EXPECT_EQ(std::any_cast<std::string>((*result)[i].response),
              std::to_string(i) + ":hi");
  }
}

TEST_F(NetworkTest, BroadcastWithDownTargetMarksItTimedOut) {
  Build(3);
  network_->SetDatacenterDown(2, true);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, std::any(std::string("hi")),
                      30 * kMillisecond)
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE((*result)[0].status.ok());
  EXPECT_TRUE((*result)[1].status.ok());
  EXPECT_TRUE((*result)[2].status.IsTimedOut());
}

TEST_F(NetworkTest, EmptyBroadcastResolvesImmediately) {
  Build(2);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {}, std::any(std::string("hi")))
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST_F(NetworkTest, MessageStatsCount) {
  Build(2);
  network_->Call(0, 1, std::any(std::string("x")));
  sim_.Run();
  EXPECT_EQ(network_->messages_sent(), 2u);  // request + response
  EXPECT_EQ(network_->calls_started(), 1u);
  network_->ResetStats();
  EXPECT_EQ(network_->messages_sent(), 0u);
}

TEST_F(NetworkTest, JitterStaysWithinBounds) {
  NetworkOptions options;
  options.latency_jitter = 0.1;
  options.seed = 9;
  std::vector<std::vector<TimeMicros>> rtt(2,
                                           std::vector<TimeMicros>(2, kRtt));
  Network network(&sim_, rtt, options);
  network.RegisterEndpoint(1, EchoHandler(&sim_, 1));
  for (int i = 0; i < 20; ++i) {
    TimeMicros start = sim_.Now();
    std::optional<CallResult> result;
    TimeMicros completed_at = -1;
    network.Call(0, 1, std::any(std::string("x")))
        .OnReady([&](CallResult&& r) {
          result = std::move(r);
          completed_at = sim_.Now();
        });
    sim_.Run();  // drains the response and the (losing) timeout event
    ASSERT_TRUE(result->status.ok());
    const TimeMicros elapsed = completed_at - start;
    EXPECT_GE(elapsed, static_cast<TimeMicros>(kRtt * 0.9) - 2);
    EXPECT_LE(elapsed, static_cast<TimeMicros>(kRtt * 1.1) + 2);
  }
}

// ---- In-flight outage semantics (ARCHITECTURE.md design note D6) --------
// Intended semantics, pinned here: a message is lost if its destination (or
// the directed link it travels) goes down at ANY point during its flight,
// even if the fault heals before the scheduled delivery; a message whose
// source dies after it left is still delivered; responses already delivered
// stand.

TEST_F(NetworkTest, DownUpFlapWithinFlightWindowLosesMessage) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // One-way delay is kRtt/2 = 5 ms. The destination flaps down at 1 ms and
  // is back UP at 2 ms — well before the delivery event at 5 ms. The
  // message crossed an outage window, so it must be lost; a delivery-time
  // check alone would (wrongly) deliver it.
  sim_.ScheduleAfter(1 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.ScheduleAfter(2 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, DownUpDownFlapsWithinOneTimeoutWindow) {
  Build(2);
  // dc1 flaps twice inside a single 50 ms RPC timeout: down 1-2 ms, up
  // 2-3 ms, down 3-4 ms, up from 4 ms.
  for (TimeMicros t : {1, 3}) {
    sim_.ScheduleAfter(t * kMillisecond,
                       [&] { network_->SetDatacenterDown(1, true); });
    sim_.ScheduleAfter((t + 1) * kMillisecond,
                       [&] { network_->SetDatacenterDown(1, false); });
  }
  // Sent before the first flap, delivery (5 ms) after the last: lost.
  std::optional<CallResult> flapped;
  network_->Call(0, 1, std::any(std::string("a")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { flapped = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(flapped.has_value());
  EXPECT_TRUE(flapped->status.IsTimedOut());

  // Sent after the last recovery, same timeout window: clean round trip.
  std::optional<CallResult> clean;
  network_->Call(0, 1, std::any(std::string("b")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { clean = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->status.ok()) << clean->status.ToString();
}

TEST_F(NetworkTest, BroadcastTargetFlappingMidFlightIsLostOthersStand) {
  Build(3);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, std::any(std::string("hi")),
                      50 * kMillisecond)
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  // dc2 goes down while the broadcast's requests are in flight and is back
  // before their arrival; dc0/dc1 deliveries already under way are
  // unaffected and their responses stand.
  sim_.ScheduleAfter(1 * kMillisecond,
                     [&] { network_->SetDatacenterDown(2, true); });
  sim_.ScheduleAfter(2 * kMillisecond,
                     [&] { network_->SetDatacenterDown(2, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE((*result)[0].status.ok());
  EXPECT_TRUE((*result)[1].status.ok());
  EXPECT_TRUE((*result)[2].status.IsTimedOut());
}

TEST_F(NetworkTest, ResponseInFlightFromDownedSourceStillArrives) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // The response leaves dc1 at ~5 ms (instant handler); dc1 dies at 7 ms
  // while its response is in flight. The message already left the downed
  // datacenter, so it is delivered.
  sim_.ScheduleAfter(7 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(std::any_cast<std::string>(result->response), "1:x");
}

// ---- Asymmetric (one-way) link cuts --------------------------------------

TEST_F(NetworkTest, OneWayLinkCutBlocksOnlyThatDirection) {
  Build(3);
  int handled_at_0 = 0, handled_at_1 = 0;
  network_->RegisterEndpoint(
      0, [&](DcId, const std::any*) -> sim::Coro<std::any> {
        ++handled_at_0;
        co_return std::any(std::string("pong0"));
      });
  network_->RegisterEndpoint(
      1, [&](DcId, const std::any*) -> sim::Coro<std::any> {
        ++handled_at_1;
        co_return std::any(std::string("pong1"));
      });
  network_->SetLinkOneWayDown(0, 1, true);

  // 0 -> 1: the request itself travels the cut direction, never arrives.
  std::optional<CallResult> forward;
  network_->Call(0, 1, std::any(std::string("x")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { forward = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(forward->status.IsTimedOut());
  EXPECT_EQ(handled_at_1, 0);

  // 1 -> 0: the request arrives and is served; only the response (which
  // travels 0 -> 1) is black-holed. The caller sees the same timeout but
  // the side effect happened — the asymmetry 2PC/Paxos must tolerate.
  std::optional<CallResult> reverse;
  network_->Call(1, 0, std::any(std::string("y")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { reverse = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(reverse->status.IsTimedOut());
  EXPECT_EQ(handled_at_0, 1);

  // Unrelated pairs are untouched.
  std::optional<CallResult> other;
  network_->Call(2, 1, std::any(std::string("z")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { other = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(other->status.ok());

  // Healing restores the direction.
  network_->SetLinkOneWayDown(0, 1, false);
  std::optional<CallResult> healed;
  network_->Call(0, 1, std::any(std::string("w")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { healed = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(healed->status.ok());
  EXPECT_EQ(handled_at_1, 2);
}

TEST_F(NetworkTest, OneWayCutMidFlightDropsTheResponse) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // Cut the response direction (1 -> 0) at 7 ms, while the response is in
  // flight (left dc1 at ~5 ms, due at ~10 ms); heal immediately after. The
  // in-flight response is lost even though the link is up at delivery time.
  sim_.ScheduleAfter(7 * kMillisecond,
                     [&] { network_->SetLinkOneWayDown(1, 0, true); });
  sim_.ScheduleAfter(8 * kMillisecond,
                     [&] { network_->SetLinkOneWayDown(1, 0, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

// ---- Adversarial delivery faults (ARCHITECTURE.md design note D10) -------
// Duplication re-delivers the REQUEST (the handler runs twice — the
// idempotence exercise); responses race into a first-set-wins promise, so
// the caller always sees exactly one result. All duplication/reorder
// randomness draws from a dedicated fault stream, so enabling the faults
// never perturbs the primary copies' delivery schedule.

TEST_F(NetworkTest, DuplicateDeliversHandlerTwice) {
  Build(2);
  network_->set_duplicate_probability(1.0);
  int handled = 0;
  network_->RegisterEndpoint(
      1, [&](DcId, const std::any*) -> sim::Coro<std::any> {
        ++handled;
        co_return std::any(std::string("pong"));
      });
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")))
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(handled, 2);  // both copies reach the handler
  EXPECT_EQ(network_->messages_duplicated(), 1u);
}

TEST_F(NetworkTest, ReorderHoldsMessageBackWithinBound) {
  NetworkOptions options;
  options.reorder_probability = 1.0;
  options.reorder_extra_max = 20 * kMillisecond;
  Build(2, options);
  std::optional<CallResult> result;
  TimeMicros completed_at = -1;
  network_->Call(0, 1, std::any(std::string("x")), 2 * kSecond)
      .OnReady([&](CallResult&& r) {
        result = std::move(r);
        completed_at = sim_.Now();
      });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok());
  // Both legs drew an extra in (0, 20 ms]; total must exceed the clean RTT
  // and stay under RTT + 2 * extra_max (plus delivery-event slack).
  EXPECT_GT(completed_at, kRtt);
  EXPECT_LE(completed_at, kRtt + 2 * options.reorder_extra_max + 2);
  EXPECT_EQ(network_->messages_reordered(), 2u);  // request + response
}

TEST_F(NetworkTest, DeliveryFaultsAreDeterministicPerSeed) {
  // Same seed, same call pattern -> identical delivery schedule, twice.
  auto run_once = [&](std::vector<TimeMicros>* completions,
                      uint64_t* duplicated, uint64_t* reordered) {
    sim::Simulator sim;
    NetworkOptions options;
    options.seed = 42;
    options.latency_jitter = 0.1;
    options.duplicate_probability = 0.3;
    options.reorder_probability = 0.3;
    options.reorder_extra_max = 15 * kMillisecond;
    std::vector<std::vector<TimeMicros>> rtt(
        3, std::vector<TimeMicros>(3, kRtt));
    Network network(&sim, rtt, options);
    for (DcId dc = 0; dc < 3; ++dc) {
      network.RegisterEndpoint(dc, EchoHandler(&sim, dc));
    }
    for (int i = 0; i < 40; ++i) {
      network.Call(0, 1 + i % 2, std::any(std::to_string(i)))
          .OnReady([&](CallResult&&) { completions->push_back(sim.Now()); });
      sim.Run();
    }
    *duplicated = network.messages_duplicated();
    *reordered = network.messages_reordered();
  };
  std::vector<TimeMicros> first, second;
  uint64_t dup1 = 0, dup2 = 0, re1 = 0, re2 = 0;
  run_once(&first, &dup1, &re1);
  run_once(&second, &dup2, &re2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(dup1, dup2);
  EXPECT_EQ(re1, re2);
  EXPECT_GT(dup1, 0u);  // the sweep actually exercised both faults
  EXPECT_GT(re1, 0u);
}

TEST_F(NetworkTest, FaultStreamNeverPerturbsPrimarySchedule) {
  // With jitter on (so the main RNG stream is live), enabling duplication
  // must leave every primary copy's completion time untouched: duplicate
  // scheduling and the duplicate's response leg draw only from the fault
  // stream.
  auto run_once = [&](double duplicate_probability,
                      std::vector<TimeMicros>* completions) {
    sim::Simulator sim;
    NetworkOptions options;
    options.seed = 7;
    options.latency_jitter = 0.1;
    options.duplicate_probability = duplicate_probability;
    std::vector<std::vector<TimeMicros>> rtt(
        2, std::vector<TimeMicros>(2, kRtt));
    Network network(&sim, rtt, options);
    network.RegisterEndpoint(1, EchoHandler(&sim, 1));
    for (int i = 0; i < 30; ++i) {
      network.Call(0, 1, std::any(std::to_string(i)))
          .OnReady([&](CallResult&&) { completions->push_back(sim.Now()); });
      sim.Run();
    }
  };
  std::vector<TimeMicros> clean, duplicated;
  run_once(0.0, &clean);
  run_once(1.0, &duplicated);
  EXPECT_EQ(clean, duplicated);
}

TEST_F(NetworkTest, DuplicateRespectsOutageWindows) {
  // The duplicate captures the same channel epoch as its original (D6): a
  // flap between the primary delivery and the duplicate's later delivery
  // kills the duplicate even though the link is up again when it arrives.
  NetworkOptions options;
  options.duplicate_probability = 1.0;
  options.reorder_extra_max = 20 * kMillisecond;  // bounds the dup lag
  Build(2, options);
  int handled = 0;
  network_->RegisterEndpoint(
      1, [&](DcId, const std::any*) -> sim::Coro<std::any> {
        ++handled;
        co_return std::any(std::string("pong"));
      });
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")), 100 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // Primary arrives at 5 ms; the duplicate lags it by (0, 20 ms]. Flap the
  // destination down/up in between: epoch bumped, duplicate dead on
  // arrival.
  sim_.ScheduleAfter(5 * kMillisecond + 100,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.ScheduleAfter(5 * kMillisecond + 200,
                     [&] { network_->SetDatacenterDown(1, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(handled, 1);  // only the primary copy was delivered
  EXPECT_EQ(network_->messages_duplicated(), 1u);
}

// ---- Endpoint replacement (the Cluster::RestartService pattern) -----------

TEST_F(NetworkTest, ReplacedEndpointAnswersInFlightRequestFromItsHandler) {
  Build(2);
  network_->RegisterEndpoint(1, EchoHandler(&sim_, 1, 20 * kMillisecond));
  std::optional<CallResult> in_flight;
  network_->Call(0, 1, std::any(std::string("a")))
      .OnReady([&](CallResult&& r) { in_flight = std::move(r); });
  // The request arrives at 5 ms and its handler sleeps until 25 ms; the
  // endpoint is replaced at 10 ms, while that handler is suspended. The
  // handler reads its captured dc after the sleep, so it must still be the
  // handler the request was delivered to.
  sim_.ScheduleAfter(10 * kMillisecond, [&] {
    network_->RegisterEndpoint(1, EchoHandler(&sim_, 7));
  });
  sim_.Run();
  ASSERT_TRUE(in_flight.has_value());
  ASSERT_TRUE(in_flight->status.ok()) << in_flight->status.ToString();
  EXPECT_EQ(std::any_cast<std::string>(in_flight->response), "1:a");

  std::optional<CallResult> next;
  network_->Call(0, 1, std::any(std::string("b")))
      .OnReady([&](CallResult&& r) { next = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(next.has_value());
  ASSERT_TRUE(next->status.ok()) << next->status.ToString();
  EXPECT_EQ(std::any_cast<std::string>(next->response), "7:b");
}

TEST_F(NetworkTest, CallToDatacenterWithoutEndpointTimesOut) {
  NetworkOptions options;
  options.latency_jitter = 0;
  std::vector<std::vector<TimeMicros>> rtt(2,
                                           std::vector<TimeMicros>(2, kRtt));
  Network network(&sim_, rtt, options);
  network.RegisterEndpoint(0, EchoHandler(&sim_, 0));  // dc1 has none
  std::optional<CallResult> result;
  network.Call(0, 1, std::any(std::string("x")), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
  EXPECT_EQ(network.messages_sent(), 1u);
  EXPECT_EQ(network.messages_dropped(), 1u);
}

// ---- Flight shape -------------------------------------------------------
// The events one call schedules are part of every fixed-seed output: event
// counts feed sim.events_per_txn, and insertion order is the tie-break (and
// the tie-shuffle key) among equal-time events. A rewrite of the delivery
// path must keep these counts and tags.

TEST_F(NetworkTest, FlightEventCountsArePinned) {
  Build(2);
  auto events_of_one_call = [&] {
    const uint64_t before = sim_.EventsExecuted();
    std::optional<CallResult> result;
    network_->Call(0, 1, std::any(std::string("x")), 50 * kMillisecond)
        .OnReady([&](CallResult&& r) { result = std::move(r); });
    sim_.Run();
    EXPECT_TRUE(result.has_value());
    return sim_.EventsExecuted() - before;
  };

  // Timeout, request leg, handler frame destroy, response leg, and the
  // caller's callback delivery.
  EXPECT_EQ(events_of_one_call(), 5u);

  // Response lost (the 1 -> 0 direction is cut): no response leg.
  network_->SetLinkOneWayDown(1, 0, true);
  EXPECT_EQ(events_of_one_call(), 4u);
  network_->SetLinkOneWayDown(1, 0, false);

  // Request lost at send: only the timeout and the callback delivery.
  network_->SetDatacenterDown(1, true);
  EXPECT_EQ(events_of_one_call(), 2u);
  network_->SetDatacenterDown(1, false);

  // Duplicated: each copy has its own request leg, handler frame destroy
  // and response leg; the caller still sees one callback.
  network_->set_duplicate_probability(1.0);
  EXPECT_EQ(events_of_one_call(), 8u);
}

TEST_F(NetworkTest, RaceDetectorSeesTheFourLegTags) {
  NetworkOptions options;
  options.duplicate_probability = 1.0;
  options.reorder_extra_max = 1;  // the duplicate lags by exactly 1 us
  Build(2, options);
  sim::RaceDetector detector;
  sim_.AttachRaceDetector(&detector);
  // A bystander writes the datacenter state each leg reads, at the leg's
  // delivery time, with no happens-before edge to it: request legs arrive
  // at dc1 at 5 ms (+1 us for the copy), responses at dc0 at 10 ms (+1 us).
  const std::pair<TimeMicros, DcId> bystanders[] = {
      {5 * kMillisecond, 1},
      {5 * kMillisecond + 1, 1},
      {10 * kMillisecond, 0},
      {10 * kMillisecond + 1, 0}};
  for (const auto& [when, dc] : bystanders) {
    sim_.ScheduleAt(
        when, [&, dc = dc] { network_->SetDatacenterDown(dc, false); },
        "bystander");
  }
  std::optional<CallResult> result;
  network_->Call(0, 1, std::any(std::string("x")))
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  detector.Finalize();
  sim_.AttachRaceDetector(nullptr);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();

  std::set<std::string> tags;
  for (const sim::RaceDetector::Report& report : detector.reports()) {
    tags.insert(report.tag_first);
    tags.insert(report.tag_second);
  }
  for (const char* leg : {"net/request-leg", "net/response-leg",
                          "net/dup-request", "net/dup-response"}) {
    EXPECT_EQ(tags.count(leg), 1u) << "no race report names " << leg;
  }
}

TEST_F(NetworkTest, RecoveredDatacenterServesAgain) {
  Build(2);
  network_->SetDatacenterDown(1, true);
  std::optional<CallResult> first, second;
  network_->Call(0, 1, std::any(std::string("a")), 20 * kMillisecond)
      .OnReady([&](CallResult&& r) { first = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(first->status.IsTimedOut());

  network_->SetDatacenterDown(1, false);
  network_->Call(0, 1, std::any(std::string("b")), 20 * kMillisecond)
      .OnReady([&](CallResult&& r) { second = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(second->status.ok());
}

}  // namespace
}  // namespace paxoscp::net
