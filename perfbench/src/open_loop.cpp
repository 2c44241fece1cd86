// The open-loop workload. One client thread sends requests on a fixed wall
// schedule at a few fixed rates (below, around and above the knee), each rate
// against a fresh orchestrator with the serving defaults: two engine
// workers, the 2 ms real-time linger, the admission gate on. Between sends
// the same thread polls its outstanding runs with getRun and scrapes
// getMetrics and getHealth on a fixed period. Control-plane latency runs
// from when a request was due, so a stalled generator charges the wait to
// the requests behind it.
//
// Each request carries the virtual arrival instant of a diurnal stream
// (advanceFleetClock before invoke), so the virtual outcomes are those of
// the paper's everyday traffic compressed onto the wall schedule. Batching
// depends on real-time races here, so virtual outcomes vary from run to run.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = qon::api;
namespace core = qon::core;

namespace {

/// Offered rates, runs per wall second. The first kServingPhases lie well
/// below the knee (11k-13k/s on a quiet 4-vCPU host): the pooled latencies and
/// virtual outcomes come from them. The next ones step through the knee and
/// place sustained_rate_per_s. The overload rate comes last, three times:
/// the median of its settled runs over wall time is the saturation
/// throughput, runs_per_s.
constexpr double kRates[] = {1000.0,  2500.0,  5000.0,  7500.0, 10000.0,
                             12500.0, 16000.0, 16000.0, 16000.0};
constexpr std::size_t kPhases = sizeof(kRates) / sizeof(kRates[0]);
constexpr std::size_t kServingPhases = 3;
constexpr std::size_t kOverloadPhase = kPhases - 3;  ///< the first overload phase
/// Shares of --seconds spent sending at the serving rates and at the rest.
constexpr double kServingShare = 0.35;
constexpr double kKneeShare = 0.5;
/// The rate the per-layer table is traced at: the highest serving rate.
constexpr std::size_t kLayerPhase = kServingPhases - 1;
/// A rate is sustained when control-plane p99 stays under this limit. A
/// backlog that grows through the send window shows up as p99 above it.
constexpr double kP99LimitMs = 250.0;
constexpr double kPollPeriodUs = 1000.0;
constexpr double kScrapePeriodUs = 50000.0;
constexpr std::size_t kNumQpus = 8;
/// Virtual arrival rate of the replayed diurnal stream. The wall schedule
/// compresses it, so a scheduling delay of d wall seconds moves a run's
/// virtual outcome by about d * wall_rate / virtual_rate; a busy virtual
/// fleet keeps that coupling small next to QPU queueing.
constexpr double kVirtualRatePerHour = 10800.0;

core::QonductorConfig make_config(bool tracing) {
  core::QonductorConfig config;
  config.num_qpus = kNumQpus;
  config.trajectory_width_limit = 0;  // QPU time is modelled, not simulated
  // Serving defaults otherwise: 2 engine workers, threshold 100, 2 ms linger.
  config.admission.max_live_runs = 100000;  // the gate is on, above any backlog here
  config.retention.max_terminal_runs = 16384;
  config.telemetry.tracing = tracing;
  config.telemetry.metrics = true;
  return config;
}

struct Phase {
  double rate = 0.0;
  bool traced = false;
  std::size_t sent = 0;
  std::size_t refused = 0;
  std::size_t completed = 0;
  double setup_s = 0.0;
  double send_window_s = 0.0;
  double wall_s = 0.0;  ///< send window plus drain
  double cpu_s = 0.0;   ///< process CPU minus the client thread's
  std::vector<double> invoke_us;
  std::vector<double> cp_latency_ms;
  std::vector<double> late_ms;
  std::vector<double> advance_us;
  std::vector<double> query_us;
  std::vector<double> snapshot_us;
  std::vector<double> health_us;
  double call_total_us = 0.0;
  std::vector<RunRecord> records;
  Layers layers;
  TraceTotals trace;

  double achieved_rate() const { return static_cast<double>(sent) / send_window_s; }
  double cp_p99_ms() const { return quantile(cp_latency_ms, 0.99); }
  bool sustained() const { return refused == 0 && cp_p99_ms() <= kP99LimitMs; }
};

Phase run_phase(double rate, double window_s, const Inputs& inputs, bool traced,
                SpanRecorder& spans, Checker& checker) {
  Phase phase;
  phase.rate = rate;
  phase.traced = traced;
  const double setup_start = now_us();
  api::QonductorClient client(make_config(traced));
  const auto ids = deploy_images(client, inputs);
  phase.setup_s = since_us(setup_start) * 1e-6;
  if (!ids.ok()) {
    checker.fail("deploy: " + ids.status().to_string());
    return phase;
  }
  core::Qonductor& backend = client.backend();
  const std::vector<std::string> names = fleet_names(client);
  const auto before = client.getMetrics();

  struct Outstanding {
    api::RunHandle handle;
    double due_us;
  };
  std::vector<Outstanding> outstanding;
  const std::size_t total = std::min(inputs.arrivals.size(),
                                     static_cast<std::size_t>(rate * window_s));
  const double period_us = 1e6 / rate;

  const auto poll_pass = [&] {
    const std::uint32_t pass = spans.begin("poll_pass");
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      Outstanding& o = outstanding[i];
      const double q0 = now_us();
      const std::uint32_t span = spans.begin("getRun", o.handle.id(), pass);
      const auto info = client.getRun(o.handle.id());
      spans.end(span);
      const double q1 = now_us();
      phase.query_us.push_back(q1 - q0);
      phase.call_total_us += q1 - q0;
      // A run evicted from the bounded run table is answered by its handle.
      const bool terminal = info.ok() ? info->status == api::RunStatus::kCompleted ||
                                            info->status == api::RunStatus::kFailed ||
                                            info->status == api::RunStatus::kCancelled
                                      : o.handle.poll() != api::RunStatus::kPending &&
                                            o.handle.poll() != api::RunStatus::kRunning;
      if (!terminal) {
        if (kept != i) outstanding[kept] = std::move(o);
        ++kept;
        continue;
      }
      phase.cp_latency_ms.push_back((q1 - o.due_us) * 1e-3);
      std::vector<double> unused;
      phase.records.push_back(settle_record(client, o.handle, names, unused, checker));
      if (traced) {
        api::GetRunTraceRequest request;
        request.run = o.handle.id();
        const std::uint32_t tspan = spans.begin("getRunTrace", o.handle.id(), pass);
        const auto trace = client.getRunTrace(request);
        spans.end(tspan);
        if (trace.ok()) add_trace(trace->trace, phase.trace);
      }
    }
    outstanding.resize(kept);
    spans.end(pass);
  };
  const auto scrape = [&] {
    double t0 = now_us();
    const std::uint32_t mspan = spans.begin("getMetrics");
    const auto snap = client.getMetrics();
    spans.end(mspan);
    phase.snapshot_us.push_back(since_us(t0));
    phase.call_total_us += since_us(t0);
    t0 = now_us();
    const std::uint32_t hspan = spans.begin("getHealth");
    const auto health = client.getHealth();
    spans.end(hspan);
    phase.health_us.push_back(since_us(t0));
    phase.call_total_us += since_us(t0);
    checker.expect(snap.ok() && health.ok(), "getMetrics/getHealth failed mid-run");
  };

  const double cpu0 = process_cpu_seconds() - thread_cpu_seconds();
  const double start = now_us();
  double next_poll = start + kPollPeriodUs;
  double next_scrape = start + kScrapePeriodUs;
  std::size_t next = 0;
  while (next < total) {
    const double now = now_us();
    const double due = start + static_cast<double>(next) * period_us;
    if (now >= due) {
      const Arrival& arrival = inputs.arrivals[next];
      const double a0 = now_us();
      const std::uint32_t aspan = spans.begin("advanceFleetClock");
      backend.advanceFleetClock(arrival.at);
      spans.end(aspan);
      const double invoked = now_us();
      phase.advance_us.push_back(invoked - a0);
      phase.late_ms.push_back((a0 - due) * 1e-3);
      const std::uint32_t ispan = spans.begin("invoke");
      auto handle = client.invoke(make_request(inputs, arrival, *ids));
      const double done = now_us();
      spans.end(ispan, handle.ok() ? handle->id() : 0);
      phase.invoke_us.push_back(done - invoked);
      phase.call_total_us += done - a0;
      ++next;
      ++phase.sent;
      if (!handle.ok()) {
        ++phase.refused;
        checker.fail("invoke refused: " + handle.status().to_string());
        continue;
      }
      outstanding.push_back({std::move(*handle), due});
      // Keep polling on period even while the generator runs behind.
      if (now < next_poll) continue;
    }
    if (now >= next_poll) {
      poll_pass();
      next_poll = now_us() + kPollPeriodUs;
    } else if (now >= next_scrape) {
      scrape();
      next_scrape += kScrapePeriodUs;
    } else {
      std::this_thread::yield();
    }
  }
  phase.send_window_s = since_us(start) * 1e-6;

  const auto drain_deadline = now_us() + 60e6;
  while (!outstanding.empty() && now_us() < drain_deadline) {
    poll_pass();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  checker.expect(outstanding.empty(), std::to_string(outstanding.size()) +
                                          " runs still outstanding 60 s after the last send");
  phase.wall_s = since_us(start) * 1e-6;
  phase.cpu_s = process_cpu_seconds() - thread_cpu_seconds() - cpu0;

  for (const RunRecord& r : phase.records) {
    if (r.status == api::RunStatus::kCompleted) ++phase.completed;
  }
  check_runs(phase.records, names.size(), checker);
  checker.expect(phase.records.size() + phase.refused == phase.sent,
                 "attempted != refused + settled at rate " + std::to_string(rate));
  check_drained(client, checker);
  const auto after = client.getMetrics();
  if (before.ok() && after.ok()) {
    registry_layers(client, before->snapshot, after->snapshot, phase.records.size(), phase.layers);
  }
  return phase;
}

/// The achieved rate at which control-plane p99 reaches the limit. Rates are
/// tried in order; the first one that is not sustained ends the search, and
/// the crossing is interpolated on log p99 between it and the rate before
/// it, so the figure moves smoothly with capacity rather than in grid
/// steps. When every rate is sustained, the last one's achieved rate.
double sustained_rate(const std::vector<Phase>& phases) {
  double rate = 0.0;
  for (std::size_t i = 0; i < phases.size() && i < kPhases; ++i) {
    const Phase& p = phases[i];
    if (p.sustained()) {
      rate = p.achieved_rate();
      continue;
    }
    if (i == 0 || p.refused > 0) return rate;
    const double below = phases[i - 1].cp_p99_ms();
    const double share = std::log(kP99LimitMs / below) / std::log(p.cp_p99_ms() / below);
    return rate + share * (p.achieved_rate() - rate);
  }
  return rate;
}

}  // namespace

WorkloadResult run_open_serving(const Options& options) {
  InputSpec input_spec;
  input_spec.arrivals.kind = qon::campaign::ArrivalKind::kDiurnal;
  input_spec.arrivals.rate_per_hour = kVirtualRatePerHour;
  input_spec.images_per_tenant = 1;
  const double serving_window_s =
      std::max(0.5, kServingShare * options.seconds / static_cast<double>(kServingPhases));
  const double knee_window_s = std::max(
      0.25, kKneeShare * options.seconds / static_cast<double>(kPhases - kServingPhases));
  const auto window_s = [&](std::size_t phase) {
    return phase < kServingPhases ? serving_window_s : knee_window_s;
  };
  // Enough arrivals for the longest phase.
  for (std::size_t i = 0; i < kPhases; ++i) {
    input_spec.count =
        std::max(input_spec.count, static_cast<std::size_t>(kRates[i] * window_s(i)) + 1);
  }
  const Inputs inputs = make_inputs(input_spec, options.seed);

  WorkloadResult result;
  Checker checker;
  SpanRecorder spans(options.trace);
  std::vector<Phase> phases;
  double serving_rss_mb = 0.0;
  // Every rate untraced; a traced run then plays the layer rate once more,
  // traced, for the per-layer table.
  const std::size_t runs = options.trace ? kPhases + 1 : kPhases;
  for (std::size_t n = 0; n < runs && checker.ok(); ++n) {
    const bool traced = n == kPhases;
    SpanRecorder unrecorded(false);
    const std::size_t i = traced ? kLayerPhase : n;
    phases.push_back(
        run_phase(kRates[i], window_s(i), inputs, traced, traced ? spans : unrecorded, checker));
    const Phase& p = phases.back();
    // Peak RSS through the serving rates: the backlog at higher rates
    // depends on how far the machine falls behind.
    if (phases.size() == kServingPhases) serving_rss_mb = peak_rss_mb();
    std::printf(
        "rate %6.0f/s%s: sent %zu in %.2f s (achieved %.0f/s), settled %.0f/s over %.2f s, "
        "cp p50 %.2f ms p99 %.2f ms, generator late p50 %.3f ms, %s\n",
        p.rate, p.traced ? " (traced)" : "", p.sent, p.send_window_s, p.achieved_rate(),
        static_cast<double>(p.records.size()) / p.wall_s, p.wall_s,
        quantile(p.cp_latency_ms, 0.5), p.cp_p99_ms(), quantile(p.late_ms, 0.5),
        p.sustained() ? "sustained" : "not sustained");
  }

  EndToEnd& e = result.e2e;
  std::vector<double> invoke_us, cp_ms, setup;
  std::vector<RunRecord> records;
  double cpu = 0.0, settled = 0.0;
  for (std::size_t i = 0; i < phases.size() && i < kPhases; ++i) {
    const Phase& p = phases[i];
    if (i < kServingPhases) {
      invoke_us.insert(invoke_us.end(), p.invoke_us.begin(), p.invoke_us.end());
      cp_ms.insert(cp_ms.end(), p.cp_latency_ms.begin(), p.cp_latency_ms.end());
      records.insert(records.end(), p.records.begin(), p.records.end());
    }
    setup.push_back(p.setup_s);
    cpu += p.cpu_s;
    settled += static_cast<double>(p.records.size());
    result.attempted += p.sent;
    result.failed += p.sent - p.completed;
  }
  e.sustained_rate_per_s = sustained_rate(phases);
  std::vector<double> saturation;
  for (std::size_t i = kOverloadPhase; i < phases.size() && i < kPhases; ++i) {
    saturation.push_back(static_cast<double>(phases[i].records.size()) / phases[i].wall_s);
  }
  e.runs_per_s = median(saturation);
  e.cpu_ms_per_krun = cpu * 1e3 / (settled / 1000.0);
  e.invoke_p50_us = windowed_quantile(invoke_us, kLatencyWindow, 0.50);
  const std::vector<double> extra = time_setups(make_config(false), inputs, kSetupBudgetS);
  setup.insert(setup.end(), extra.begin(), extra.end());
  e.setup_s = median(setup);
  e.peak_rss_mb = serving_rss_mb;
  const VirtualOutcome v = virtual_outcome(records, kNumQpus);
  e.jct_p50_s = v.jct_p50_s;
  e.jct_p99_s = v.jct_p99_s;
  e.interactive_jct_p99_s = v.interactive_jct_p99_s;
  e.fidelity_mean = v.fidelity_mean;
  e.qpu_utilization = v.qpu_utilization;
  e.completed_frac = result.attempted > 0
                         ? static_cast<double>(result.attempted - result.failed) /
                               static_cast<double>(result.attempted)
                         : 0.0;

  if (options.trace && phases.size() == kPhases + 1) {
    const Phase& untraced = phases[kLayerPhase];
    const Phase& traced = phases[kPhases];
    Layers l = traced.layers;
    const double runs = static_cast<double>(std::max<std::size_t>(traced.trace.runs, 1));
    l.engine_step_self_us_per_run = traced.trace.engine_step_self_us / runs;
    l.engine_submit_to_park_us_p50 = quantile(traced.trace.submit_to_park_us, 0.50);
    l.engine_handoff_us_p50 = l.engine_submit_to_park_us_p50;
    l.engine_handoff_us_p99 = quantile(traced.trace.submit_to_park_us, 0.99);
    l.queue_wait_wall_ms_p50 = quantile(traced.trace.queue_wait_wall_us, 0.50) * 1e-3;
    l.fleet_advance_clock_us_p50 = quantile(traced.advance_us, 0.50);
    l.fleet_advance_clock_us_p99 = quantile(traced.advance_us, 0.99);
    l.api_query_us_p50 = quantile(traced.query_us, 0.50);
    l.api_query_us_p99 = quantile(traced.query_us, 0.99);
    l.obs_snapshot_us_p50 = quantile(traced.snapshot_us, 0.50);
    l.obs_snapshot_us_p99 = quantile(traced.snapshot_us, 0.99);
    l.obs_health_us_p50 = quantile(traced.health_us, 0.50);
    // The schedule fixes the open loop's wall time; tracing shows in CPU.
    const double cpu_traced = traced.cpu_s / static_cast<double>(traced.records.size());
    const double cpu_untraced = untraced.cpu_s / static_cast<double>(untraced.records.size());
    l.obs_trace_overhead = cpu_traced / cpu_untraced - 1.0;
    // Share of the client thread's time spent inside calls to the program.
    l.bench_layer_coverage = traced.call_total_us / (traced.wall_s * 1e6);
    l.bench_generator_late_ms_p50 = quantile(traced.late_ms, 0.50);
    l.e2e_invoke_us_p99 = windowed_quantile(invoke_us, kLatencyWindow, 0.99);
    l.e2e_cp_latency_ms_p50 = windowed_quantile(cp_ms, kLatencyWindow, 0.50);
    l.e2e_cp_latency_ms_p99 = windowed_quantile(cp_ms, kLatencyWindow, 0.99);
    result.layers = l;
    const std::string path = ".bench_build/spans_" + options.workload + ".jsonl";
    if (spans.write_jsonl(path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }
  }
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
