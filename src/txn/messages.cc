#include "txn/messages.h"

#include <algorithm>
#include <any>

namespace paxoscp::txn {

const char* RequestName(const ServiceRequest& request) {
  struct Visitor {
    const char* operator()(const BeginRequest&) const { return "begin"; }
    const char* operator()(const ReadRequest&) const { return "read"; }
    const char* operator()(const ReadRowRequest&) const { return "read_row"; }
    const char* operator()(const PrepareRequest&) const { return "prepare"; }
    const char* operator()(const AcceptRequest&) const { return "accept"; }
    const char* operator()(const ApplyRequest&) const { return "apply"; }
    const char* operator()(const ClaimLeaderRequest&) const {
      return "claim_leader";
    }
    const char* operator()(const QueryCrossRequest&) const {
      return "query_cross";
    }
  };
  return std::visit(Visitor{}, request);
}

PrepareTally TallyPrepares(net::BroadcastResult* results,
                           paxos::Ballot* max_seen) {
  PrepareTally tally;
  for (net::TargetResult& tr : *results) {
    if (!tr.status.ok()) continue;
    paxos::PrepareResult& pr =
        std::get<PrepareResponse>(std::any_cast<ServiceResponse&>(tr.response))
            .result;
    if (pr.decided.has_value() && !tally.decided.has_value()) {
      tally.decided = std::move(pr.decided);
    }
    *max_seen = std::max(*max_seen, pr.next_bal);
    if (pr.promised) {
      ++tally.promised;
      tally.votes.push_back(
          paxos::LastVote{tr.dc, pr.vote_ballot, std::move(pr.vote_value)});
    }
  }
  return tally;
}

int TallyAccepts(const net::BroadcastResult& results,
                 paxos::Ballot* max_seen) {
  int accepted = 0;
  for (const net::TargetResult& tr : results) {
    if (!tr.status.ok()) continue;
    const paxos::AcceptResult& ar =
        std::get<AcceptResponse>(
            std::any_cast<const ServiceResponse&>(tr.response))
            .result;
    if (ar.accepted) {
      ++accepted;
    } else {
      *max_seen = std::max(*max_seen, ar.next_bal);
    }
  }
  return accepted;
}

void BroadcastApply(net::Network* network, DcId from,
                    const std::vector<DcId>& targets, ApplyRequest request) {
  network->Broadcast(from, targets,
                     std::any(ServiceRequest(std::move(request))));
}

}  // namespace paxoscp::txn
