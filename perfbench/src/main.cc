// The paxoscp benchmark (see ../README.md for the metric, layer and
// workload map). One process runs one workload at one seed:
//
//   perfbench --workload paper-cp|cross-multihome|outage-cp --seed N
//             --seconds S --trace 0|1 [--trace-out trace.json]
//
// --trace 0 prints the end-to-end metrics: virtual-time outcomes of the
// seeded run, plus host time of repeated identical runs for S seconds.
// --trace 1 prints the per-layer metrics: the same untraced runs, then one
// traced run (request wrappers on every endpoint) that must reproduce the
// untraced outcome exactly, then timed passes over the checker, the WAL
// codec and the store. Everything is driven through public functions.
// The last line of stdout is one JSON object with the verdict and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "core/checker.h"
#include "core/cluster.h"
#include "core/config.h"
#include "fault/fault_plan.h"
#include "layers.h"
#include "trace.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace {

using namespace paxoscp;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- build

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// ------------------------------------------------------------- workloads

/// Transactions per run. Large enough that a seed's virtual-time outcome
/// (commit rate, p99, worst minute) varies little from seed to seed, small
/// enough that one run takes at most a few seconds of host time.
constexpr int kPaperTxns = 8000;
constexpr int kCrossTxns = 4000;
constexpr int kOutageTxns = 4000;

constexpr TimeMicros kWindow = 10 * kSecond;
constexpr size_t kSpanWindows = 6;
/// Outage schedule of outage-cp: dc2 is down [40 s, 80 s) of every 120 s.
constexpr TimeMicros kOutagePeriod = 120 * kSecond;
constexpr TimeMicros kOutageStart = 40 * kSecond;
constexpr TimeMicros kOutageLength = 40 * kSecond;
constexpr DcId kOutageVictim = 2;

/// Cluster builds timed for setup_s before every run. One build takes a
/// few microseconds and the host's speed drifts over seconds, so setup_s is
/// the median over batches spread across the whole measurement.
constexpr int kSetupBatch = 101;
constexpr int kMinTimedReps = 3;

struct Workload {
  std::string name;
  core::ClusterConfig cluster;
  workload::RunnerConfig runner;
  fault::FaultPlan plan;
  std::vector<std::string> groups;
  /// paper-cp and outage-cp must pass the checker; cross-multihome reports
  /// its violations as measured (a known 2PC defect, see README.md).
  bool expect_clean_check = true;
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The paper's §6 client workload (the fig benches' PaperWorkload): 10 ops
/// at 50% reads over 100 attributes, 4 open-loop clients at 1 txn/s each,
/// starts staggered by 250 ms, Paxos-CP.
workload::RunnerConfig PaperRunner(uint64_t seed, int txns) {
  workload::RunnerConfig config;
  config.workload.num_attributes = 100;
  config.workload.ops_per_txn = 10;
  config.workload.read_fraction = 0.5;
  config.total_txns = txns;
  config.num_threads = 4;
  config.stagger = 250 * kMillisecond;
  config.target_rate_tps = 1.0;
  config.client.protocol = txn::Protocol::kPaxosCP;
  config.seed = seed;
  return config;
}

/// Virtual time over which the open-loop clients are scheduled to start
/// their transactions (each issues total / threads at 1 txn/s).
TimeMicros ArrivalSpan(const workload::RunnerConfig& config) {
  return static_cast<TimeMicros>(config.total_txns / config.num_threads) *
         kSecond;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  const uint64_t runner_seed = SplitMix64(seed);
  const uint64_t cluster_seed = SplitMix64(seed ^ 0x636c7573746572ULL);
  Workload w;
  w.name = name;
  if (name == "paper-cp" || name == "outage-cp") {
    const int txns = name == "paper-cp" ? kPaperTxns : kOutageTxns;
    w.cluster = *core::ClusterConfig::FromCode("VVV");
    w.runner = PaperRunner(runner_seed, txns);
    if (name == "outage-cp") {
      w.cluster.loss_probability = 0.01;
      // Cover the whole arrival schedule; every cycle ends with the victim
      // back up.
      for (TimeMicros base = 0; base + kOutageStart < ArrivalSpan(w.runner);
           base += kOutagePeriod) {
        w.plan.events.push_back({base + kOutageStart,
                                 fault::FaultKind::kDatacenterDown,
                                 kOutageVictim, kNoDc, 0, 0});
        w.plan.events.push_back({base + kOutageStart + kOutageLength,
                                 fault::FaultKind::kDatacenterUp,
                                 kOutageVictim, kNoDc, 0, 0});
      }
      w.plan.Normalize();
    }
  } else if (name == "cross-multihome") {
    w.cluster = core::ClusterConfig::PaperTestbed();  // V V V O C
    w.runner = PaperRunner(runner_seed, kCrossTxns);
    w.runner.workload.num_groups = 4;
    w.runner.workload.cross_fraction = 0.5;
    w.runner.thread_dcs = {0, 1, 3, 4};  // one client per V, V, O, C
    w.expect_clean_check = false;
  } else {
    return std::nullopt;
  }
  w.cluster.seed = cluster_seed;
  w.runner.availability_window = kWindow;
  for (int g = 0; g < std::max(w.runner.workload.num_groups, 1); ++g) {
    w.groups.push_back(workload::Generator::GroupName(w.runner.workload, g));
  }
  return w;
}

/// Setup as measured by setup_s: build the cluster and arm the fault plan.
std::unique_ptr<core::Cluster> BuildCluster(const Workload& w) {
  auto cluster = std::make_unique<core::Cluster>(w.cluster);
  if (!w.plan.events.empty()) cluster->ApplyFaultPlan(w.plan);
  return cluster;
}

// ------------------------------------------------------------------ runs

struct RunResult {
  workload::RunStats stats;
  double host_seconds = 0;
  uint64_t events = 0;
  perfbench::AllocCounts allocs;
};

RunResult Run(const Workload& w, core::Cluster* cluster) {
  RunResult r;
  const uint64_t events_before = cluster->simulator()->EventsExecuted();
  const perfbench::AllocCounts allocs_before = perfbench::AllocSnapshot();
  const auto start = Clock::now();
  r.stats = workload::RunExperiment(cluster, w.runner);
  r.host_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const perfbench::AllocCounts allocs_after = perfbench::AllocSnapshot();
  r.events = cluster->simulator()->EventsExecuted() - events_before;
  r.allocs.allocs = allocs_after.allocs - allocs_before.allocs;
  r.allocs.bytes = allocs_after.bytes - allocs_before.bytes;
  return r;
}

/// Every virtual-time quantity of a run, in canonical text. Two runs of one
/// seed, traced or not, must produce the same string byte for byte.
std::string VirtualSignature(const workload::RunStats& s) {
  std::ostringstream os;
  os.precision(17);
  auto histogram = [&os](const char* name, const Histogram& h) {
    os << name << ' ' << h.count() << ' ' << h.Percentile(50) << ' '
       << h.Percentile(99) << ' ' << h.max() << ' ' << h.Mean() << '\n';
  };
  os << "outcomes " << s.attempted << ' ' << s.committed << ' ' << s.read_only
     << ' ' << s.aborted << ' ' << s.failed << ' ' << s.all_threads_finished
     << '\n';
  os << "rounds";
  for (int c : s.commits_by_round) os << ' ' << c;
  os << "\nfast " << s.fast_path_commits << " combined " << s.combined_entries
     << ' ' << s.combined_txns << '\n';
  histogram("committed", s.latency_committed);
  histogram("aborted", s.latency_aborted);
  for (const Histogram& h : s.latency_by_round) histogram("round", h);
  os << "cross " << s.cross_attempted << ' ' << s.cross_committed << ' '
     << s.cross_aborted << ' ' << s.cross_unknown << ' '
     << s.cross_unavailable << '\n';
  histogram("cross", s.latency_cross);
  histogram("cross_decision", s.latency_cross_decision);
  os << "messages " << s.messages_sent << " duration " << s.virtual_duration
     << '\n';
  os << "windows";
  for (const workload::WindowCounts& c : s.windows) {
    os << ' ' << c.attempted << '/' << c.committed << '/' << c.read_only
       << '/' << c.aborted << '/' << c.unavailable;
  }
  os << "\ncheck " << s.check.ok << ' ' << s.check.max_position << '\n';
  for (const std::string& v : s.check.violations) os << v << '\n';
  return os.str();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of exact samples (0 when empty).
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Lowest commit rate over any kSpanWindows consecutive availability
/// windows (the worst minute) inside the arrival schedule. A single 10 s
/// window holds as few as 4 transactions while clients wait out timeouts,
/// so its rate is mostly sampling noise; a minute holds enough to be steady
/// from seed to seed. Windows past the last scheduled arrival only hold
/// transactions that started late, so they are left out.
double MinWindowCommitRate(const Workload& w, const workload::RunStats& s) {
  const TimeMicros arrivals = ArrivalSpan(w.runner);
  size_t full = 0;
  while (full < s.windows.size() &&
         static_cast<TimeMicros>(full + 1) * kWindow <= arrivals) {
    ++full;
  }
  double lowest = 1;
  for (size_t i = 0; i + kSpanWindows <= full; ++i) {
    int attempted = 0;
    int committed = 0;
    for (size_t k = i; k < i + kSpanWindows; ++k) {
      attempted += s.windows[k].attempted;
      committed += s.windows[k].committed + s.windows[k].read_only;
    }
    if (attempted > 0) {
      lowest = std::min(lowest, static_cast<double>(committed) / attempted);
    }
  }
  return lowest;
}

/// The cross-group 2PC defect recorded in README.md ("Known defect") shows
/// up as these checker violation kinds; any other kind is a new failure.
bool IsKnownCrossDefect(const std::string& violation) {
  for (const char* kind :
       {"disagrees with the commit group's canonical decision",
        " has 0 prepares in group ", "(L1) committed "}) {
    if (violation.find(kind) != std::string::npos) return true;
  }
  return false;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : ms) {
    std::printf("  %-36s %16.7g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Self-check failures; any entry makes the run incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  void Print() const {
    for (const std::string& f : failures_) {
      std::printf("SELF-CHECK FAILED: %s\n", f.c_str());
    }
    if (failures_.empty()) std::printf("self-checks: OK\n");
  }

 private:
  std::vector<std::string> failures_;
};

/// Prints the self-check verdict and, as the last line of stdout, the JSON
/// result. A metric that is not a finite number fails the run (and is
/// printed as 0 so the line stays valid JSON).
void PrintResult(Checks* checks, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    checks->Expect(std::isfinite(m.value), m.name + " is not a finite number");
  }
  checks->Print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks->ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(),
                std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The fig4 `VVV/paxos-cp` cell (runner seed 7, cluster seed 11, 500 txns)
/// must come out exactly as bench/fig4_replicas reports it.
void CrossCheckFig4(Checks* checks) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 11;
  core::Cluster built(cluster);
  const workload::RunStats s =
      workload::RunExperiment(&built, PaperRunner(7, 500));
  char msgs[32];
  std::snprintf(msgs, sizeof(msgs), "%.1f", s.messages_per_attempt);
  std::printf("fig4 VVV/paxos-cp cross-check: %d commits, %d aborts, %s "
              "msgs/attempt (expected 418, 81, 28.8)\n",
              s.committed, s.aborted, msgs);
  checks->Expect(s.committed == 418 && s.aborted == 81 &&
                     std::strcmp(msgs, "28.8") == 0 && s.check.ok,
                 "paper-cp at seeds 7/11 and 500 txns does not reproduce the "
                 "fig4 VVV/paxos-cp cell");
}

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out = "perfbench-trace.json";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0 && args->trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper-cp|cross-multihome|outage-cp "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  std::printf("build: %s, flags \"%s\", %s, NDEBUG %s\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
              kOptimizedBuild ? "on" : "off");
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host metrics from a build "
                 "without optimization and NDEBUG\n");
    return 2;
  }
  const std::optional<Workload> made = MakeWorkload(args.workload, args.seed);
  if (!made) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *made;
  std::printf("workload %s, seed %llu (runner seed %llu, cluster seed %llu), "
              "%d txns\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w.runner.seed),
              static_cast<unsigned long long>(w.cluster.seed),
              w.runner.total_txns);
  Checks checks;

  std::vector<double> setup_samples;
  auto time_setups = [&w, &setup_samples] {
    for (int i = 0; i < kSetupBatch; ++i) {
      const auto start = Clock::now();
      std::unique_ptr<core::Cluster> cluster = BuildCluster(w);
      setup_samples.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
  };

  // The reference run and the timed repetitions share the measuring budget:
  // all of --seconds with --trace 0, half of it with --trace 1, which leaves
  // the rest for the traced run and the layer passes.
  const double budget = args.trace == 0 ? args.seconds : args.seconds / 2;
  const auto measure_start = Clock::now();
  auto elapsed = [&measure_start] {
    return std::chrono::duration<double>(Clock::now() - measure_start).count();
  };

  // Reference run: fixes the virtual-time outcome and warms the heap.
  RunResult ref;
  {
    time_setups();
    std::unique_ptr<core::Cluster> cluster = BuildCluster(w);
    ref = Run(w, cluster.get());
  }
  const workload::RunStats& s = ref.stats;
  const std::string signature = VirtualSignature(s);
  checks.Expect(s.all_threads_finished, "not every client thread finished");
  checks.Expect(s.attempted == w.runner.total_txns,
                "attempted != configured transactions");

  // Host time: identical runs, each checked against the reference outcome,
  // for as long as another one still fits in the budget.
  std::vector<double> host_seconds;
  while (static_cast<int>(host_seconds.size()) < kMinTimedReps ||
         elapsed() + host_seconds.back() <= budget) {
    time_setups();
    std::unique_ptr<core::Cluster> cluster = BuildCluster(w);
    const RunResult rep = Run(w, cluster.get());
    host_seconds.push_back(rep.host_seconds);
    checks.Expect(VirtualSignature(rep.stats) == signature,
                  "a repeated run of the same seed changed the virtual-time "
                  "outcome");
    checks.Expect(rep.events == ref.events,
                  "a repeated run of the same seed executed a different "
                  "number of events");
  }
  const double run_s = Median(host_seconds);
  const double setup_s = Median(setup_samples);

  const size_t violations = s.check.violations.size();
  size_t unexplained = 0;
  for (const std::string& v : s.check.violations) {
    if (w.expect_clean_check || !IsKnownCrossDefect(v)) {
      ++unexplained;
      if (unexplained <= 5) std::printf("checker: %s\n", v.c_str());
    }
  }
  checks.Expect(unexplained == 0,
                w.expect_clean_check
                    ? "checker violations on " + w.name
                    : "checker violations beyond the recorded 2PC defect");
  if (w.name == "paper-cp") CrossCheckFig4(&checks);
  const double peak_rss_mb = PeakRssMb();

  const double attempted = s.attempted;
  const double commits = s.committed + s.read_only;
  const double failed_frac = Ratio(s.failed, attempted);
  std::printf("%d attempted, %d committed, %d read-only, %d aborted, "
              "%d failed; %zu timed runs, median %.4f s\n",
              s.attempted, s.committed, s.read_only, s.aborted, s.failed,
              host_seconds.size(), run_s);
  const std::vector<Metric> e2e = {
      {"commit_rate", s.CommitRate(), "fraction"},
      {"commit_p50_ms", s.latency_committed.Percentile(50) / 1e3, "ms"},
      {"commit_p99_ms", s.latency_committed.Percentile(99) / 1e3, "ms"},
      {"min_window_commit_rate", MinWindowCommitRate(w, s), "fraction"},
      {"completed_frac", 1 - failed_frac, "fraction"},
      {"sim_txn_per_s", attempted / run_s, "txn/s"},
      {"setup_s", setup_s, "s"},
  };
  PrintMetrics("end-to-end (untraced runs):", e2e);
  // Zero on some workloads or not steady across seeds, so they are printed
  // here and carried in the per-layer set rather than bounded.
  PrintMetrics("also end-to-end, reported unbounded:",
               {{"failed_frac", failed_frac, "fraction"},
                {"check_violations", static_cast<double>(violations),
                 "count"},
                {"peak_rss_mb", peak_rss_mb, "MB"},
                {"commit_latency_samples",
                 static_cast<double>(s.latency_committed.count()), "count"}});
  if (args.trace == 0) {
    PrintResult(&checks, s.attempted, s.failed, e2e);
    return 0;
  }

  // ---- Traced run: same workload with request wrappers on every endpoint.
  perfbench::Trace trace;
  std::unique_ptr<core::Cluster> cluster;
  {
    perfbench::Trace::WallScope span(&trace, "cluster setup");
    cluster = BuildCluster(w);
  }
  trace.TapRequests(cluster.get());
  RunResult traced;
  {
    perfbench::Trace::WallScope span(&trace, "RunExperiment");
    traced = Run(w, cluster.get());
  }
  checks.Expect(VirtualSignature(traced.stats) == signature,
                "the traced run did not reproduce the untraced outcome");

  perfbench::CheckPass check_pass;
  {
    perfbench::Trace::WallScope span(&trace, "checker pass");
    check_pass = perfbench::RunCheckPass(cluster.get(), w.groups, s.outcomes);
  }
  checks.Expect(check_pass.violations == violations,
                "a second checker pass disagrees with the run's verdict");
  perfbench::WalPass wal_pass;
  {
    perfbench::Trace::WallScope span(&trace, "wal pass");
    wal_pass = perfbench::RunWalPass(cluster.get(), w.groups);
  }
  checks.Expect(wal_pass.round_trip_ok && wal_pass.entries > 0,
                "LogEntry decode(encode(e)) != e");
  perfbench::KvPass kv_pass;
  {
    perfbench::Trace::WallScope span(&trace, "kvstore pass");
    kv_pass = perfbench::RunKvPass(cluster.get(), w.groups,
                                   w.runner.workload.row,
                                   w.runner.workload.num_attributes);
  }
  checks.Expect(kv_pass.reads_ok, "ReadAttr missed a value of a loaded row");

  uint64_t learn_instances = 0;
  uint64_t reads_served = 0;
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    learn_instances += cluster->service(dc)->learn_instances();
    reads_served += cluster->service(dc)->reads_served();
  }
  const net::Network* network = cluster->network();
  const bool trace_written = trace.WriteChromeJson(args.trace_out);
  checks.Expect(trace_written, "could not write " + args.trace_out);
  if (trace_written) std::printf("trace written to %s\n", args.trace_out.c_str());

  const double committed = s.committed;
  double promotions = 0;
  for (size_t r = 0; r < s.commits_by_round.size(); ++r) {
    promotions += static_cast<double>(r) * s.commits_by_round[r];
  }
  auto round_p50_ms = [&s](size_t round) {
    return round < s.latency_by_round.size()
               ? s.latency_by_round[round].Percentile(50) / 1e3
               : 0.0;
  };
  std::vector<Metric> layers = {
      {"sim.events_per_txn", Ratio(ref.events, attempted), "events/txn"},
      {"sim.ns_per_event", Ratio(run_s * 1e9, ref.events), "ns"},
      {"host.allocs_per_txn", Ratio(ref.allocs.allocs, attempted),
       "allocs/txn"},
      {"host.alloc_bytes_per_txn", Ratio(ref.allocs.bytes, attempted),
       "B/txn"},
      {"net.msgs_per_commit", Ratio(s.messages_sent, commits), "msgs/commit"},
      {"net.calls_per_attempt", Ratio(network->calls_started(), attempted),
       "calls/attempt"},
      {"net.dropped_frac",
       Ratio(network->messages_dropped(), network->messages_sent()),
       "fraction"},
  };
  for (int t = 0; t < perfbench::kNumRequestTypes; ++t) {
    layers.push_back({std::string("net.req.") + perfbench::kRequestTypes[t] +
                          "_per_attempt",
                      Ratio(trace.delivered(t), attempted), "reqs/attempt"});
  }
  layers.push_back({"net.wan_reqs_per_commit",
                    Ratio(trace.wan_delivered(), commits), "reqs/commit"});
  for (int t = 0; t < perfbench::kNumRequestTypes; ++t) {
    const std::vector<int64_t> d = trace.HandlerDurations(t);
    layers.push_back({std::string("txn.handler_p50_ms.") +
                          perfbench::kRequestTypes[t],
                      Percentile(d, 50) / 1e3, "ms"});
    layers.push_back({std::string("txn.handler_p99_ms.") +
                          perfbench::kRequestTypes[t],
                      Percentile(d, 99) / 1e3, "ms"});
  }
  const double promoted =
      committed - (s.commits_by_round.empty() ? 0 : s.commits_by_round[0]);
  layers.insert(
      layers.end(),
      {
          {"txn.promotions_per_commit", Ratio(promotions, committed),
           "promotions"},
          {"txn.promoted_commit_frac", Ratio(promoted, committed), "fraction"},
          {"txn.commit_r0_p50_ms", round_p50_ms(0), "ms"},
          {"txn.commit_r1_p50_ms", round_p50_ms(1), "ms"},
          {"txn.fast_path_frac", Ratio(s.fast_path_commits, committed),
           "fraction"},
          {"txn.cross_commit_p50_ms", s.latency_cross.Percentile(50) / 1e3,
           "ms"},
          {"txn.cross_decision_p50_ms",
           s.latency_cross_decision.Percentile(50) / 1e3, "ms"},
          {"txn.learn_instances_per_attempt", Ratio(learn_instances, attempted),
           "count/attempt"},
          {"txn.reads_served_per_attempt", Ratio(reads_served, attempted),
           "count/attempt"},
          {"txn.failed_frac", Ratio(s.failed, attempted), "fraction"},
          {"paxos.positions_per_commit", Ratio(check_pass.positions, committed),
           "positions"},
          {"paxos.combined_txn_frac", Ratio(s.combined_txns, committed),
           "fraction"},
          {"wal.bytes_per_entry", wal_pass.bytes_per_entry, "B"},
          {"wal.encode_ns", wal_pass.encode_ns, "ns"},
          {"wal.decode_ns", wal_pass.decode_ns, "ns"},
          {"wal.fingerprint_ns", wal_pass.fingerprint_ns, "ns"},
          {"kvstore.versions_per_row", kv_pass.versions_per_row, "versions"},
          {"kvstore.read_attr_ns", kv_pass.read_attr_ns, "ns"},
          {"core.check_s", check_pass.seconds, "s"},
          {"core.check_violations", static_cast<double>(violations), "count"},
          {"host.peak_rss_mb", peak_rss_mb, "MB"},
          {"trace.overhead_frac", traced.host_seconds / run_s - 1, "fraction"},
      });
  PrintMetrics("per-layer (events and allocations from the untraced run, "
               "requests and handler times from the traced run):",
               layers);
  PrintResult(&checks, s.attempted, s.failed, layers);
  return 0;
}
