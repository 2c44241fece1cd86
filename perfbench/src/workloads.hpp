#pragma once
// The three workloads and the metric sets they report. Every workload
// fills every field: a metric a workload cannot exercise reads 0 in the
// per-layer table (see the README for which workload moves which row).

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// End-to-end metrics. Host-clock values are medians over the run's
/// repetitions; virtual-clock values come from the workload's runs.
struct EndToEnd {
  double runs_per_s = 0.0;
  double cpu_ms_per_krun = 0.0;
  double invoke_p50_us = 0.0;
  double sustained_rate_per_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double jct_p50_s = 0.0;
  double jct_p99_s = 0.0;
  double interactive_jct_p99_s = 0.0;
  double fidelity_mean = 0.0;
  double qpu_utilization = 0.0;
  double completed_frac = 0.0;
};

/// Per-layer metrics, measured from outside the program: the benchmark's
/// own timings around its calls plus the program's existing counters,
/// histograms and run traces.
struct Layers {
  // sched / moo, core.sched_service
  double sched_optimize_s = 0.0;
  double sched_preprocess_s = 0.0;
  double sched_select_s = 0.0;
  double sched_cycle_ms_p50 = 0.0;
  double sched_cycle_ms_p99 = 0.0;
  double sched_cycles = 0.0;
  double sched_batch_mean = 0.0;
  // core.engine + prep: invoke return -> task visible in the pending queue
  double engine_handoff_us_p50 = 0.0;
  double engine_handoff_us_p99 = 0.0;
  double engine_handoff_hit_us = 0.0;
  double prep_handoff_miss_us = 0.0;
  double prep_hits = 0.0;
  double prep_misses = 0.0;
  double prep_hit_ratio = 0.0;
  // core.engine + core.monitor: settle after dispatch
  double engine_settle_us_per_run = 0.0;
  double engine_events_per_run = 0.0;
  double engine_step_self_us_per_run = 0.0;
  double engine_submit_to_park_us_p50 = 0.0;
  // core.monitor
  double fleet_advance_clock_us_p50 = 0.0;
  double fleet_advance_clock_us_p99 = 0.0;
  double fleet_recalibrate_ms = 0.0;
  // api, obs
  double api_query_us_p50 = 0.0;
  double api_query_us_p99 = 0.0;
  double obs_snapshot_us_p50 = 0.0;
  double obs_snapshot_us_p99 = 0.0;
  double obs_health_us_p50 = 0.0;
  double obs_trace_overhead = 0.0;
  // api, core.queue
  double api_invoke_refused = 0.0;
  double sched_jobs_filtered = 0.0;
  double sched_jobs_expired = 0.0;
  double queue_wait_virtual_s_p50 = 0.0;
  double queue_wait_virtual_s_p99 = 0.0;
  double queue_wait_wall_ms_p50 = 0.0;
  double queue_hwm = 0.0;
  // end-to-end latencies, from the untraced repetitions of a traced run:
  // host CPU steal moves them by more than any usable bound, so they are
  // reported here, without one
  double e2e_invoke_us_p99 = 0.0;
  double e2e_cp_latency_ms_p50 = 0.0;
  double e2e_cp_latency_ms_p99 = 0.0;
  // the benchmark itself
  double bench_layer_coverage = 0.0;
  double bench_generator_late_ms_p50 = 0.0;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  EndToEnd e2e;
  Layers layers;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e);
std::vector<Metric> per_layer_metrics(const Layers& l);

/// Names of the lockstep workloads (closed loop, deterministic).
bool is_lockstep_workload(const std::string& name);
WorkloadResult run_lockstep(const Options& options);
/// The open-loop workload.
WorkloadResult run_open_serving(const Options& options);

/// Fleet QPU names in index order.
std::vector<std::string> fleet_names(qon::api::QonductorClient& client);

/// Reads the registry-backed per-layer rows (scheduler stages, cycles,
/// prep cache, engine events, queue) from a snapshot taken before and one
/// taken after the measured runs, plus getSchedulerStats for the bounded
/// per-cycle and queue-wait histories.
void registry_layers(qon::api::QonductorClient& client, const qon::api::MetricsSnapshot& before,
                     const qon::api::MetricsSnapshot& after, std::size_t runs, Layers& layers);

}  // namespace perfbench
