#include "trace.h"

#include <any>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <variant>

#include "sim/coro.h"
#include "txn/messages.h"
#include "txn/service.h"

namespace perfbench {

using paxoscp::DcId;
using paxoscp::TimeMicros;

namespace {

int RequestTypeIndex(const paxoscp::txn::ServiceRequest& request) {
  const char* name = paxoscp::txn::RequestName(request);
  for (int i = 0; i < kNumRequestTypes; ++i) {
    if (std::strcmp(name, kRequestTypes[i]) == 0) return i;
  }
  std::fprintf(stderr, "perfbench: unknown request type %s\n", name);
  std::abort();
}

}  // namespace

/// The timing coroutine lives here so it can reach Trace's spans.
struct RequestTap {
  static paxoscp::sim::Coro<std::any> Timed(
      Trace* trace, paxoscp::sim::Simulator* sim,
      paxoscp::txn::TransactionService* service, DcId from, size_t span,
      const std::any* request) {
    std::any response = co_await service->Handle(from, request);
    trace->request_spans_[span].end = sim->Now();
    co_return response;
  }
};

Trace::Trace() : epoch_(std::chrono::steady_clock::now()) {}

Trace::WallScope::WallScope(Trace* trace, std::string name)
    : trace_(trace),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {}

Trace::WallScope::~WallScope() {
  const auto end = std::chrono::steady_clock::now();
  using Us = std::chrono::duration<double, std::micro>;
  trace_->wall_spans_.push_back(WallSpan{
      std::move(name_), Us(start_ - trace_->epoch_).count(),
      Us(end - start_).count()});
}

void Trace::TapRequests(paxoscp::core::Cluster* cluster) {
  paxoscp::sim::Simulator* sim = cluster->simulator();
  const auto& datacenters = cluster->config().datacenters;
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    paxoscp::txn::TransactionService* service = cluster->service(dc);
    cluster->network()->RegisterEndpoint(
        dc, [this, sim, service, dc, &datacenters](DcId from,
                                                   const std::any* request) {
          const auto& req =
              std::any_cast<const paxoscp::txn::ServiceRequest&>(*request);
          RequestSpan span;
          span.type = RequestTypeIndex(req);
          span.from = from;
          span.to = dc;
          span.start = sim->Now();
          span.end = -1;  // set when the handler responds
          span.txn_first = static_cast<uint32_t>(txn_ids_.size());
          if (const auto* q =
                  std::get_if<paxoscp::txn::QueryCrossRequest>(&req)) {
            txn_ids_.push_back(q->txn);
          } else if (const auto* a =
                         std::get_if<paxoscp::txn::AcceptRequest>(&req)) {
            for (const auto& t : a->value.txns) txn_ids_.push_back(t.id);
          } else if (const auto* p =
                         std::get_if<paxoscp::txn::ApplyRequest>(&req)) {
            for (const auto& t : p->value.txns) txn_ids_.push_back(t.id);
          }
          span.txn_count =
              static_cast<uint32_t>(txn_ids_.size()) - span.txn_first;
          ++delivered_[span.type];
          if (datacenters[from].region != datacenters[dc].region) {
            ++wan_delivered_;
          }
          request_spans_.push_back(span);
          return RequestTap::Timed(this, sim, service, from,
                                   request_spans_.size() - 1, request);
        });
  }
}

std::vector<int64_t> Trace::HandlerDurations(int type) const {
  std::vector<int64_t> out;
  for (const RequestSpan& s : request_spans_) {
    if (s.type == type && s.end >= 0) out.push_back(s.end - s.start);
  }
  return out;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  std::FILE* f = file.get();
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"host wall clock\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
               "\"args\":{\"name\":\"virtual time (requests by receiving "
               "dc)\"}}");
  for (const WallSpan& s : wall_spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"wall\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                 s.name.c_str(), s.start_us, s.dur_us);
  }
  // Requests overlap freely on one datacenter, so each is an async span
  // (begin/end pair keyed by its index) rather than a nested slice.
  for (size_t i = 0; i < request_spans_.size(); ++i) {
    const RequestSpan& s = request_spans_[i];
    if (s.end < 0) continue;
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                 "\"id\":%zu,\"pid\":2,\"tid\":%d,\"ts\":%" PRId64
                 ",\"args\":{\"from\":%d,\"to\":%d,\"txns\":[",
                 kRequestTypes[s.type], i, s.to, s.start, s.from, s.to);
    for (uint32_t k = 0; k < s.txn_count; ++k) {
      std::fprintf(f, "%s%" PRIu64, k == 0 ? "" : ",",
                   txn_ids_[s.txn_first + k]);
    }
    std::fprintf(f,
                 "]}},\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                 "\"id\":%zu,\"pid\":2,\"tid\":%d,\"ts\":%" PRId64 "}",
                 kRequestTypes[s.type], i, s.to, s.end);
  }
  std::fprintf(f, "\n]}\n");
  return std::fflush(f) == 0 && std::ferror(f) == 0;
}

}  // namespace perfbench
