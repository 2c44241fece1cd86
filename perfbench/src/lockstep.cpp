// The two closed-loop lockstep workloads. One engine worker; arrivals are
// admitted in groups of exactly queue_threshold parked tasks, so every
// scheduling cycle is a threshold cycle at a deterministic virtual instant
// and a run's virtual outcome is a pure function of the inputs. The run
// repeats the same input set in fresh orchestrators until --seconds have
// passed: host-clock metrics are medians over those repetitions, the
// virtual-clock metrics and the digest must agree across all of them.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <thread>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = qon::api;
namespace core = qon::core;

namespace {

struct LockstepSpec {
  std::size_t num_qpus;
  std::size_t threshold;
  InputSpec inputs;
  double recalibrate_every_s;  ///< 0 = never
  double offline_at_s;         ///< one QPU goes offline here; < 0 = never
  double online_at_s;          ///< ... and back online here
};

LockstepSpec spec_for(const std::string& workload) {
  LockstepSpec spec{};
  if (workload == "diurnal_lockstep") {
    spec.num_qpus = 8;
    spec.threshold = 100;
    spec.inputs.arrivals.kind = qon::campaign::ArrivalKind::kDiurnal;
    spec.inputs.arrivals.rate_per_hour = 1500.0;  // the measured IBM 1100-2050 jobs/h band
    spec.inputs.count = 10000;
    spec.inputs.images_per_tenant = 1;
    spec.recalibrate_every_s = 0.0;
    spec.offline_at_s = -1.0;
    spec.online_at_s = -1.0;
  } else {  // fleet_scale_cold
    spec.num_qpus = 32;
    spec.threshold = 1000;
    spec.inputs.arrivals.kind = qon::campaign::ArrivalKind::kDiurnal;
    spec.inputs.arrivals.rate_per_hour = 6000.0;  // the diurnal band, scaled to 4x the fleet
    spec.inputs.count = 4000;
    spec.inputs.images_per_tenant = 334;  // ~1000 images against a 512-entry prep cache
    spec.recalibrate_every_s = 600.0;
    spec.offline_at_s = 300.0;
    spec.online_at_s = 1500.0;
  }
  return spec;
}

core::QonductorConfig make_config(const LockstepSpec& spec, bool tracing) {
  core::QonductorConfig config;
  config.num_qpus = spec.num_qpus;
  config.executor_threads = 1;
  config.trajectory_width_limit = 0;  // QPU time is modelled, not simulated
  config.scheduler_service.queue_threshold = spec.threshold;
  // A group parks within milliseconds; the linger only guards against a
  // timer cycle firing on a slow machine before the group is complete.
  config.scheduler_service.linger = std::chrono::milliseconds(10000);
  config.scheduler_service.queue_capacity = 4 * spec.threshold;
  config.retention.max_terminal_runs = 4 * spec.threshold;
  config.telemetry.tracing = tracing;
  config.telemetry.metrics = true;
  return config;
}

/// What one repetition measured.
struct Trial {
  bool traced = false;
  std::size_t runs = 0;
  std::size_t refused = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU minus the client thread's
  std::vector<double> invoke_us;
  std::vector<double> cp_latency_ms;
  std::vector<double> group_wall_us;  ///< first member's clock advance -> group reaped
  std::uint64_t digest = 0;
  std::vector<RunRecord> records;  ///< kept for the first trial only
  // per-layer timings (the benchmark's own)
  std::vector<double> handoff_us;
  std::vector<double> handoff_hit_us;
  std::vector<double> handoff_miss_us;
  std::vector<double> advance_us;
  std::vector<double> recalibrate_ms;
  std::vector<double> query_us;
  std::vector<double> snapshot_us;
  std::vector<double> health_us;
  double invoke_total_us = 0.0;
  double handoff_total_us = 0.0;
  double reap_total_us = 0.0;
  double advance_total_us = 0.0;
  double cycle_wall_s = 0.0;  ///< summed wall time of the scheduling cycles
  double trace_read_us = 0.0;  ///< getRunTrace calls inside the reaps
  double scrape_us = 0.0;      ///< getMetrics + getHealth after each reap
  Layers layers;
  TraceTotals trace;
};

Trial run_trial(const LockstepSpec& spec, const Inputs& inputs, bool traced, bool keep_records,
                SpanRecorder& spans, Checker& checker) {
  Trial trial;
  trial.traced = traced;
  const double setup_start = now_us();
  api::QonductorClient client(make_config(spec, traced));
  const auto ids = deploy_images(client, inputs);
  trial.setup_s = since_us(setup_start) * 1e-6;
  if (!ids.ok()) {
    checker.fail("deploy: " + ids.status().to_string());
    return trial;
  }
  core::Qonductor& backend = client.backend();
  core::SchedulerService* sched = backend.schedulerService();
  const std::vector<std::string> names = fleet_names(client);
  const std::string churn_qpu = names.back();

  const auto before = client.getMetrics();
  if (!before.ok()) {
    checker.fail("getMetrics: " + before.status().to_string());
    return trial;
  }

  struct InFlight {
    api::RunHandle handle;
    double invoked_us;
  };
  std::vector<InFlight> group;
  group.reserve(spec.threshold);
  double next_recalibrate = spec.recalibrate_every_s;
  bool offline_done = spec.offline_at_s < 0.0;
  bool online_done = spec.online_at_s < 0.0;

  double group_start_us = 0.0;
  const auto reap_group = [&] {
    const double reap_start = now_us();
    const std::uint32_t reap_span = spans.begin("reap_group");
    // A lockstep run is due for scheduling once its group is complete, i.e.
    // when the group's last member is invoked; the wait for the group to
    // fill is the benchmark's pacing, not control-plane latency.
    const double due_us = group.back().invoked_us;
    for (const InFlight& f : group) {
      const std::uint32_t span = spans.begin("wait+getRun", f.handle.id(), reap_span);
      RunRecord rec = settle_record(client, f.handle, names, trial.query_us, checker);
      trial.cp_latency_ms.push_back(since_us(due_us) * 1e-3);
      spans.end(span);
      if (traced) {
        const double t0 = now_us();
        const std::uint32_t tspan = spans.begin("getRunTrace", rec.id, reap_span);
        api::GetRunTraceRequest request;
        request.run = rec.id;
        const auto trace = client.getRunTrace(request);
        spans.end(tspan);
        trial.trace_read_us += since_us(t0);
        if (trace.ok()) {
          add_trace(trace->trace, trial.trace);
        } else {
          checker.fail("getRunTrace(" + std::to_string(rec.id) + "): " + trace.status().to_string());
        }
      }
      trial.records.push_back(rec);
      ++trial.runs;
    }
    spans.end(reap_span);
    trial.reap_total_us += since_us(reap_start);
    trial.group_wall_us.push_back(since_us(group_start_us));
    group.clear();
    if (traced) {
      double t0 = now_us();
      const std::uint32_t mspan = spans.begin("getMetrics");
      const auto snap = client.getMetrics();
      spans.end(mspan);
      trial.snapshot_us.push_back(since_us(t0));
      t0 = now_us();
      const std::uint32_t hspan = spans.begin("getHealth");
      const auto health = client.getHealth();
      spans.end(hspan);
      trial.health_us.push_back(since_us(t0));
      trial.scrape_us += trial.snapshot_us.back() + trial.health_us.back();
      checker.expect(snap.ok() && health.ok(), "getMetrics/getHealth failed mid-run");
    }
  };

  const double cpu0 = process_cpu_seconds() - thread_cpu_seconds();
  const double wall0 = now_us();
  for (const Arrival& arrival : inputs.arrivals) {
    double t0 = now_us();
    if (group.empty()) group_start_us = t0;
    const std::uint32_t aspan = spans.begin("advanceFleetClock");
    backend.advanceFleetClock(arrival.at);
    spans.end(aspan);
    const double advance = since_us(t0);
    trial.advance_us.push_back(advance);
    trial.advance_total_us += advance;

    // Fleet churn at its virtual instants.
    while (spec.recalibrate_every_s > 0.0 && arrival.at >= next_recalibrate) {
      t0 = now_us();
      const std::uint32_t span = spans.begin("recalibrateFleet");
      backend.recalibrateFleet();
      spans.end(span);
      trial.recalibrate_ms.push_back(since_us(t0) * 1e-3);
      trial.advance_total_us += since_us(t0);
      next_recalibrate += spec.recalibrate_every_s;
    }
    if (!offline_done && arrival.at >= spec.offline_at_s) {
      backend.monitor().set_qpu_online(churn_qpu, false);
      offline_done = true;
    }
    if (!online_done && arrival.at >= spec.online_at_s) {
      backend.monitor().set_qpu_online(churn_qpu, true);
      online_done = true;
    }

    const api::InvokeRequest request = make_request(inputs, arrival, *ids);
    const double invoked = now_us();
    const std::uint32_t ispan = spans.begin("invoke");
    api::Result<api::RunHandle> handle = client.invoke(request);
    const double invoke_us = since_us(invoked);
    spans.end(ispan, handle.ok() ? handle->id() : 0);
    trial.invoke_us.push_back(invoke_us);
    trial.invoke_total_us += invoke_us;
    if (!handle.ok()) {
      ++trial.refused;
      checker.fail("invoke refused: " + handle.status().to_string());
      continue;
    }
    const api::RunId id = handle->id();
    group.push_back({std::move(*handle), invoked});
    if (group.size() < spec.threshold) {
      // Hand-off: wait until the engine step has parked the task in the
      // pending queue, so the group's last member deterministically trips
      // the threshold. Bounded so a stuck stack fails instead of hanging.
      const double h0 = now_us();
      const std::uint32_t hspan = spans.begin("handoff", id);
      const std::uint64_t misses = backend.prepCacheMisses();
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (sched->queue_depth() != group.size()) {
        if (std::chrono::steady_clock::now() > deadline) {
          checker.fail("hand-off of run " + std::to_string(id) + " did not reach the queue");
          break;
        }
        std::this_thread::yield();
      }
      spans.end(hspan);
      const double handoff = since_us(h0);
      trial.handoff_us.push_back(handoff);
      (backend.prepCacheMisses() != misses ? trial.handoff_miss_us : trial.handoff_hit_us)
          .push_back(handoff);
      trial.handoff_total_us += handoff;
    } else {
      reap_group();
    }
  }
  if (!group.empty()) {
    checker.fail("input count is not a multiple of the queue threshold");
    sched->shutdown();  // flush the partial group so every handle settles
    reap_group();
  }
  trial.wall_s = since_us(wall0) * 1e-6;
  trial.cpu_s = process_cpu_seconds() - thread_cpu_seconds() - cpu0;

  check_runs(trial.records, names.size(), checker);
  trial.digest = run_digest(trial.records);
  if (!keep_records) trial.records.clear();
  check_drained(client, checker);
  const auto after = client.getMetrics();
  if (after.ok()) {
    registry_layers(client, before->snapshot, after->snapshot, trial.runs, trial.layers);
    trial.cycle_wall_s = histogram_sum(after->snapshot, "qon_sched_cycle_latency_seconds") -
                         histogram_sum(before->snapshot, "qon_sched_cycle_latency_seconds");
  }
  return trial;
}

}  // namespace

bool is_lockstep_workload(const std::string& name) {
  return name == "diurnal_lockstep" || name == "fleet_scale_cold";
}

WorkloadResult run_lockstep(const Options& options) {
  const LockstepSpec spec = spec_for(options.workload);
  const Inputs inputs = make_inputs(spec.inputs, options.seed);

  WorkloadResult result;
  Checker checker;
  SpanRecorder spans(options.trace);
  std::vector<Trial> trials;
  const double start = now_us();
  // The first repetition warms the process up (allocator, page faults)
  // and only feeds the checks. Then at least three measured repetitions
  // for a median; in a traced run they alternate untraced / traced, so the
  // tracing cost is the difference.
  const std::size_t min_trials = options.trace ? 5 : 4;
  double first_trial_rss_mb = 0.0;
  while (trials.size() < min_trials || since_us(start) * 1e-6 < options.seconds) {
    const bool traced = options.trace && trials.size() % 2 == 0 && !trials.empty();
    if (traced) spans.clear();  // keep the spans of the last traced repetition
    SpanRecorder untraced(false);
    trials.push_back(
        run_trial(spec, inputs, traced, trials.empty(), traced ? spans : untraced, checker));
    const Trial& t = trials.back();
    // Peak RSS through the first repetition: later ones only add the
    // benchmark's own samples, whose count depends on machine speed.
    if (trials.size() == 1) first_trial_rss_mb = peak_rss_mb();
    std::printf("repetition %zu%s: %zu runs, setup %.3f s, wall %.3f s, digest %016" PRIx64 "\n",
                trials.size(), trials.size() == 1 ? " (warm-up)" : t.traced ? " (traced)" : "",
                t.runs, t.setup_s, t.wall_s, t.digest);
    if (!checker.ok()) break;
    if (since_us(start) * 1e-6 > 150.0) break;  // stay inside the run's time limit
  }

  // Determinism: every repetition of the same inputs yields the same runs.
  for (const Trial& t : trials) {
    checker.expect(t.digest == trials.front().digest,
                   "lockstep digest differs between repetitions of the same inputs");
    checker.expect(t.runs + t.refused == inputs.arrivals.size(),
                   "attempted != refused + settled in a repetition");
  }

  // Host-clock figures pool the measured untraced repetitions: throughput
  // from the median group wall, latency percentiles as medians over
  // windows, so a host stall that hits a few groups does not move them.
  std::vector<double> group_wall_us, cpu, invoke_us, cp_ms, setup, wall_untraced, wall_traced;
  for (std::size_t i = 1; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    setup.push_back(t.setup_s);
    if (t.traced) {
      // Only the program's tracing counts: the benchmark's own reads in a
      // traced repetition (getRunTrace per run, getMetrics and getHealth
      // per group) are taken out of its wall.
      const double reads_s = (t.trace_read_us + t.scrape_us) * 1e-6;
      wall_traced.push_back((t.wall_s - reads_s) /
                            static_cast<double>(std::max<std::size_t>(t.runs, 1)));
      continue;
    }
    wall_untraced.push_back(t.wall_s / static_cast<double>(std::max<std::size_t>(t.runs, 1)));
    group_wall_us.insert(group_wall_us.end(), t.group_wall_us.begin(), t.group_wall_us.end());
    cpu.push_back(t.cpu_s * 1e3 / (static_cast<double>(t.runs) / 1000.0));
    invoke_us.insert(invoke_us.end(), t.invoke_us.begin(), t.invoke_us.end());
    cp_ms.insert(cp_ms.end(), t.cp_latency_ms.begin(), t.cp_latency_ms.end());
  }
  const Trial& first = trials.front();
  const std::vector<RunRecord>& records = first.records;

  EndToEnd& e = result.e2e;
  e.runs_per_s = static_cast<double>(spec.threshold) * 1e6 / median(group_wall_us);
  e.cpu_ms_per_krun = median(cpu);
  e.invoke_p50_us = windowed_quantile(invoke_us, kLatencyWindow, 0.50);
  // Closed loop: the rate the loop sustains is its completion rate.
  e.sustained_rate_per_s = e.runs_per_s;
  const std::vector<double> extra = time_setups(make_config(spec, false), inputs, kSetupBudgetS);
  setup.insert(setup.end(), extra.begin(), extra.end());
  e.setup_s = median(setup);
  e.peak_rss_mb = first_trial_rss_mb;
  const VirtualOutcome v = virtual_outcome(records, spec.num_qpus);
  e.jct_p50_s = v.jct_p50_s;
  e.jct_p99_s = v.jct_p99_s;
  e.interactive_jct_p99_s = v.interactive_jct_p99_s;
  e.fidelity_mean = v.fidelity_mean;
  e.qpu_utilization = v.qpu_utilization;
  e.completed_frac = static_cast<double>(v.completed) / static_cast<double>(inputs.arrivals.size());

  result.attempted = inputs.arrivals.size();
  result.failed = inputs.arrivals.size() - v.completed;
  std::printf("digest %016" PRIx64 " over %zu runs\n", first.digest, first.runs);

  // Per-layer table: from the last traced repetition in a traced run.
  if (options.trace) {
    const Trial* traced = nullptr;
    for (const Trial& t : trials) {
      if (t.traced) traced = &t;
    }
    if (traced != nullptr) {
      Layers l = traced->layers;
      l.engine_handoff_us_p50 = quantile(traced->handoff_us, 0.50);
      l.engine_handoff_us_p99 = quantile(traced->handoff_us, 0.99);
      l.engine_handoff_hit_us = quantile(traced->handoff_hit_us, 0.50);
      l.prep_handoff_miss_us = quantile(traced->handoff_miss_us, 0.50);
      // Settle: group reap wall minus the cycle wall and the trace reads it
      // contains.
      l.engine_settle_us_per_run =
          (traced->reap_total_us - traced->cycle_wall_s * 1e6 - traced->trace_read_us) /
          static_cast<double>(std::max<std::size_t>(traced->runs, 1));
      const double runs = static_cast<double>(std::max<std::size_t>(traced->trace.runs, 1));
      l.engine_step_self_us_per_run = traced->trace.engine_step_self_us / runs;
      l.engine_submit_to_park_us_p50 = quantile(traced->trace.submit_to_park_us, 0.50);
      l.queue_wait_wall_ms_p50 = quantile(traced->trace.queue_wait_wall_us, 0.50) * 1e-3;
      l.fleet_advance_clock_us_p50 = quantile(traced->advance_us, 0.50);
      l.fleet_advance_clock_us_p99 = quantile(traced->advance_us, 0.99);
      l.fleet_recalibrate_ms = mean(traced->recalibrate_ms);
      l.api_query_us_p50 = quantile(traced->query_us, 0.50);
      l.api_query_us_p99 = quantile(traced->query_us, 0.99);
      l.obs_snapshot_us_p50 = quantile(traced->snapshot_us, 0.50);
      l.obs_snapshot_us_p99 = quantile(traced->snapshot_us, 0.99);
      l.obs_health_us_p50 = quantile(traced->health_us, 0.50);
      l.obs_trace_overhead = median(wall_traced) / median(wall_untraced) - 1.0;
      // Layer time over the repetition's wall, both without the
      // benchmark's own reads.
      l.bench_layer_coverage =
          (traced->invoke_total_us + traced->handoff_total_us + traced->reap_total_us -
           traced->trace_read_us + traced->advance_total_us) /
          (traced->wall_s * 1e6 - traced->trace_read_us - traced->scrape_us);
      l.e2e_invoke_us_p99 = windowed_quantile(invoke_us, kLatencyWindow, 0.99);
      l.e2e_cp_latency_ms_p50 = windowed_quantile(cp_ms, kLatencyWindow, 0.50);
      l.e2e_cp_latency_ms_p99 = windowed_quantile(cp_ms, kLatencyWindow, 0.99);
      result.layers = l;
    }
    const std::string path = ".bench_build/spans_" + options.workload + ".jsonl";
    if (spans.write_jsonl(path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }
  }
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
