// Self-healing 2PC (docs/ARCHITECTURE.md, D10): a coordinator that crashes
// between prepare and decide leaves a pending prepare pinning every
// replica's SafeReadPos until *someone* finishes the transaction. This
// bench runs a cross-group workload whose coordinators always crash
// mid-2PC and compares the read-frontier pin time with the service-side
// recovery daemon off during the run (pins survive to the end of it; only
// the post-run quiesce, which starts the daemon then, heals them) and on
// (each pin is closed within the recovery-timer envelope, with no client
// help at all — a run that had the daemon gets no post-run quiesce).
//
// Expected shape: daemon-off max pin is essentially the distance from the
// first crash to the end of the run (tens of seconds); daemon-on max pin
// is bounded by base timer + jitter + a couple of recovery rounds.
//
//   ./build/bench/fig_recovery [--json <path>]
#include "core/checker.h"
#include "experiment_common.h"

using namespace paxoscp;

namespace {

constexpr TimeMicros kRecoveryTimer = 1 * kSecond;
/// Daemon-on pin bound: base timer (1s) + default jitter (<= 0.5s) + slack
/// for the query/decide walk and a few backoff retries (the decide walk
/// can lose Paxos rounds to the live workload). Well above anything a
/// healthy daemon produces, well below the daemon-off end-of-run pins.
constexpr TimeMicros kPinBound = 8 * kSecond;

workload::RunnerConfig RecoveryWorkload() {
  workload::RunnerConfig config =
      bench::PaperWorkload(txn::Protocol::kPaxosCP);
  config.workload.num_groups = 2;
  config.workload.cross_fraction = 0.3;
  config.workload.groups_per_cross_txn = 2;
  config.workload.num_attributes = 60;
  config.total_txns = 240;
  // Every cross coordinator abandons its transaction once one prepare has
  // been decided, leaving the other group's prepare unfinished — recovery
  // must force-abort through the missing leg (the hard recovery path).
  config.client.crash_after_prepares = 1;
  return config;
}

std::string Seconds(TimeMicros t) {
  return workload::FormatDouble(static_cast<double>(t) / kSecond, 2) + " s";
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig_recovery");
  workload::PrintExperimentHeader(
      "Self-healing 2PC - SafeReadPos pin time with the recovery daemon "
      "off vs on (VVV, 2 groups, 30% cross, every coordinator crashes "
      "mid-prepare, 240 txns)",
      "daemon off: pending prepares pin the read frontier until the "
      "post-run quiesce; daemon on: replicas decide crashed transactions "
      "themselves within the timer envelope (D10), no client recovery");

  // Daemon off: the post-run quiesce (D8) is the only thing that ever
  // heals the stranded prepares, so the checker stays green but every pin
  // measured during the run survives to the end of it.
  core::Cluster off_cluster(bench::PaperCluster("VVV"));
  workload::RunnerConfig off_config = RecoveryWorkload();
  workload::RunStats off =
      perf.Run("recovery/daemon_off", &off_cluster, off_config);

  // Daemon on, so no post-run quiesce: only the in-run daemon may heal —
  // green checker here *is* the self-healing claim.
  core::Cluster on_cluster(bench::PaperCluster("VVV"));
  workload::RunnerConfig on_config = RecoveryWorkload();
  on_config.recovery_timer = kRecoveryTimer;
  workload::RunStats on =
      perf.Run("recovery/daemon_on", &on_cluster, on_config);

  std::vector<std::vector<std::string>> rows;
  for (const auto& [label, stats] :
       {std::pair<const char*, const workload::RunStats*>{"daemon off", &off},
        {"daemon on", &on}}) {
    rows.push_back(
        {label, std::to_string(stats->cross_attempted),
         std::to_string(stats->cross_committed),
         std::to_string(stats->recoveries_started),
         std::to_string(stats->recoveries_decided),
         std::to_string(stats->recoveries_forced_abort),
         Seconds(stats->max_safe_read_pin),
         stats->check.ok ? "OK" : "VIOLATED"});
  }
  workload::PrintTable({"cell", "x-attempts", "x-commits", "rec-start",
                        "rec-decided", "rec-forced-abort", "max pin",
                        "serializability"},
                       rows);

  // Shape gates. Daemon-off pins must dwarf the daemon-on envelope (they
  // last to the end of the run), daemon-on pins must fit inside it, and
  // the daemon must actually have decided transactions — including at
  // least one it could only finish by forcing an abort.
  const bool off_pins_long = off.max_safe_read_pin >= 2 * kPinBound;
  const bool on_pins_bounded =
      on.max_safe_read_pin > 0 && on.max_safe_read_pin <= kPinBound;
  const bool daemon_worked =
      on.recoveries_decided >= 1 && on.recoveries_forced_abort >= 1;
  std::printf(
      "\nmax SafeReadPos pin: daemon off %s, daemon on %s (bound %s) -> %s\n",
      Seconds(off.max_safe_read_pin).c_str(),
      Seconds(on.max_safe_read_pin).c_str(), Seconds(kPinBound).c_str(),
      off_pins_long && on_pins_bounded && daemon_worked
          ? "daemon keeps the read frontier fresh (D10 shape)"
          : "UNEXPECTED: recovery shape not reproduced");

  const bool ok = off.check.ok && on.check.ok && off.all_threads_finished &&
                  on.all_threads_finished && off_pins_long &&
                  on_pins_bounded && daemon_worked;
  return ok ? 0 : 1;
}
