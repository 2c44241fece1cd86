// The metric lists, in the order BENCHMARK.json names them, and the
// registry-backed per-layer rows shared by every workload.

#include "obs/delta.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = qon::api;

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"runs_per_s", e.runs_per_s, "1/s"},
      {"cpu_ms_per_krun", e.cpu_ms_per_krun, "ms"},
      {"invoke_p50_us", e.invoke_p50_us, "us"},
      {"sustained_rate_per_s", e.sustained_rate_per_s, "1/s"},
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"jct_p50_s", e.jct_p50_s, "s"},
      {"jct_p99_s", e.jct_p99_s, "s"},
      {"interactive_jct_p99_s", e.interactive_jct_p99_s, "s"},
      {"fidelity_mean", e.fidelity_mean, "ratio"},
      {"qpu_utilization", e.qpu_utilization, "ratio"},
      {"completed_frac", e.completed_frac, "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const Layers& l) {
  return {
      {"sched.optimize_s", l.sched_optimize_s, "s"},
      {"sched.preprocess_s", l.sched_preprocess_s, "s"},
      {"sched.select_s", l.sched_select_s, "s"},
      {"sched.cycle_ms.p50", l.sched_cycle_ms_p50, "ms"},
      {"sched.cycle_ms.p99", l.sched_cycle_ms_p99, "ms"},
      {"sched.cycles", l.sched_cycles, "count"},
      {"sched.batch_mean", l.sched_batch_mean, "count"},
      {"engine.handoff_us.p50", l.engine_handoff_us_p50, "us"},
      {"engine.handoff_us.p99", l.engine_handoff_us_p99, "us"},
      {"engine.handoff_hit_us", l.engine_handoff_hit_us, "us"},
      {"prep.handoff_miss_us", l.prep_handoff_miss_us, "us"},
      {"prep.hits", l.prep_hits, "count"},
      {"prep.misses", l.prep_misses, "count"},
      {"prep.hit_ratio", l.prep_hit_ratio, "ratio"},
      {"engine.settle_us_per_run", l.engine_settle_us_per_run, "us"},
      {"engine.events_per_run", l.engine_events_per_run, "count"},
      {"engine.step_self_us_per_run", l.engine_step_self_us_per_run, "us"},
      {"engine.submit_to_park_us.p50", l.engine_submit_to_park_us_p50, "us"},
      {"fleet.advance_clock_us.p50", l.fleet_advance_clock_us_p50, "us"},
      {"fleet.advance_clock_us.p99", l.fleet_advance_clock_us_p99, "us"},
      {"fleet.recalibrate_ms", l.fleet_recalibrate_ms, "ms"},
      {"api.query_us.p50", l.api_query_us_p50, "us"},
      {"api.query_us.p99", l.api_query_us_p99, "us"},
      {"obs.snapshot_us.p50", l.obs_snapshot_us_p50, "us"},
      {"obs.snapshot_us.p99", l.obs_snapshot_us_p99, "us"},
      {"obs.health_us.p50", l.obs_health_us_p50, "us"},
      {"obs.trace_overhead", l.obs_trace_overhead, "ratio"},
      {"api.invoke_refused", l.api_invoke_refused, "count"},
      {"sched.jobs_filtered", l.sched_jobs_filtered, "count"},
      {"sched.jobs_expired", l.sched_jobs_expired, "count"},
      {"queue.wait_virtual_s.p50", l.queue_wait_virtual_s_p50, "s"},
      {"queue.wait_virtual_s.p99", l.queue_wait_virtual_s_p99, "s"},
      {"queue.wait_wall_ms.p50", l.queue_wait_wall_ms_p50, "ms"},
      {"queue.hwm", l.queue_hwm, "count"},
      {"e2e.invoke_us.p99", l.e2e_invoke_us_p99, "us"},
      {"e2e.cp_latency_ms.p50", l.e2e_cp_latency_ms_p50, "ms"},
      {"e2e.cp_latency_ms.p99", l.e2e_cp_latency_ms_p99, "ms"},
      {"bench.layer_coverage", l.bench_layer_coverage, "ratio"},
      {"bench.generator_late_ms.p50", l.bench_generator_late_ms_p50, "ms"},
  };
}

std::vector<std::string> fleet_names(api::QonductorClient& client) {
  std::vector<std::string> names;
  for (const auto& backend : client.backend().fleet().backends) names.push_back(backend->name());
  return names;
}

void registry_layers(api::QonductorClient& client, const api::MetricsSnapshot& before,
                     const api::MetricsSnapshot& after, std::size_t runs, Layers& layers) {
  const api::MetricsSnapshot delta = qon::obs::snapshot_delta(before, after);
  layers.sched_optimize_s = histogram_sum(delta, "qon_sched_cycle_optimize_seconds");
  layers.sched_preprocess_s = histogram_sum(delta, "qon_sched_cycle_preprocess_seconds");
  layers.sched_select_s = histogram_sum(delta, "qon_sched_cycle_select_seconds");
  layers.sched_cycles = metric_value(delta, "qon_sched_cycles_total");
  const double scheduled = metric_value(delta, "qon_sched_jobs_scheduled_total");
  layers.sched_jobs_filtered = metric_value(delta, "qon_sched_jobs_filtered_total");
  layers.sched_jobs_expired = metric_value(delta, "qon_sched_jobs_expired_total");
  if (layers.sched_cycles > 0) {
    layers.sched_batch_mean =
        (scheduled + layers.sched_jobs_filtered + layers.sched_jobs_expired) / layers.sched_cycles;
  }
  layers.prep_hits = metric_value(delta, "qon_prep_cache_hits_total");
  layers.prep_misses = metric_value(delta, "qon_prep_cache_misses_total");
  const double lookups = layers.prep_hits + layers.prep_misses;
  layers.prep_hit_ratio = lookups > 0 ? layers.prep_hits / lookups : 0.0;
  if (runs > 0) {
    layers.engine_events_per_run =
        metric_value(delta, "qon_engine_events_total") / static_cast<double>(runs);
  }
  layers.api_invoke_refused = qon::obs::sum_metric_family(delta, "qon_admission_shed_total");
  layers.queue_hwm = metric_value(after, "qon_sched_queue_high_watermark");

  const auto stats = client.getSchedulerStats();
  if (!stats.ok()) return;
  std::vector<double> cycle_ms;
  for (const api::SchedulerCycleInfo& c : stats->stats.recent_cycles) {
    cycle_ms.push_back(c.cycle_latency_seconds * 1e3);
  }
  layers.sched_cycle_ms_p50 = quantile(cycle_ms, 0.50);
  layers.sched_cycle_ms_p99 = quantile(cycle_ms, 0.99);
  layers.queue_wait_virtual_s_p50 = quantile(stats->stats.recent_queue_waits, 0.50);
  layers.queue_wait_virtual_s_p99 = quantile(stats->stats.recent_queue_waits, 0.99);
}

}  // namespace perfbench
