// Telemetry overhead benchmark — the acceptance gate for the observability
// subsystem. The bench_burst 1k batch-mode configuration is run twice, with
// full telemetry (tracing + metrics) and with telemetry off, measuring
// per-invoke call latency (wall µs), end-to-end run latency (virtual
// seconds, submit -> finish) and burst throughput. The p95 end-to-end
// on/off ratio is the headline number: the budget is <= 5% regression.
// Emits BENCH_obs_overhead.json plus the telemetry-on run's exported
// artifacts — BENCH_obs_metrics.json (registry snapshot) and
// BENCH_obs_trace.jsonl (one run's Chrome trace_event timeline).

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "bench_util.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "obs/export.hpp"

namespace {

constexpr std::size_t kRuns = 1000;

struct Scenario {
  std::string telemetry;
  std::size_t completed = 0;
  double invoke_p50_us = 0.0;  ///< wall latency of the invoke() call itself
  double invoke_p95_us = 0.0;
  double e2e_p50_s = 0.0;  ///< virtual seconds, submit -> finish
  double e2e_p95_s = 0.0;
  double wall_seconds = 0.0;
  double throughput = 0.0;  ///< completed runs per wall second
};

Scenario run_burst(bool telemetry_on, bool export_artifacts) {
  using namespace qon;
  core::QonductorConfig config;
  config.num_qpus = 8;
  config.seed = 4242;
  config.trajectory_width_limit = 0;  // analytic model: isolate orchestration cost
  config.executor_threads = 2;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 200;
  config.scheduler_service.max_batch_size = 500;
  config.scheduler_service.queue_capacity = 0;
  config.scheduler_service.linger = std::chrono::milliseconds(20);
  config.telemetry.tracing = telemetry_on;
  config.telemetry.metrics = telemetry_on;
  if (telemetry_on) {
    // The health pillar rides the telemetry-on arm so the 5% budget also
    // covers watchdog heartbeats and per-settle SLO recording.
    config.health.slo_seconds[static_cast<std::size_t>(api::Priority::kStandard)] =
        3600.0;
    obs::SloRule rule;
    rule.name = "standard-burn";
    rule.priority = api::Priority::kStandard;
    config.health.alert_rules.push_back(std::move(rule));
  }
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "obs-overhead";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 512));
  const auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) throw std::runtime_error(created.status().to_string());
  api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    throw std::runtime_error(deployed.status().to_string());
  }

  // Individual invoke() calls so the front-door latency distribution is
  // observable — invokeAll would amortize it away.
  api::InvokeRequest request;
  request.image = created->image;
  std::vector<api::RunHandle> handles;
  handles.reserve(kRuns);
  std::vector<double> invoke_us;
  invoke_us.reserve(kRuns);
  Stopwatch wall;
  for (std::size_t i = 0; i < kRuns; ++i) {
    const auto call_start = std::chrono::steady_clock::now();
    auto handle = client.invoke(request);
    invoke_us.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - call_start)
                            .count());
    if (!handle.ok()) throw std::runtime_error(handle.status().to_string());
    handles.push_back(std::move(*handle));
  }

  Scenario scenario;
  scenario.telemetry = telemetry_on ? "on" : "off";
  std::vector<double> e2e;
  e2e.reserve(kRuns);
  for (const auto& handle : handles) {
    if (handle.wait() == api::RunStatus::kCompleted) ++scenario.completed;
    const auto info = handle.info();
    if (info.ok() && info->finished_at >= info->submitted_at) {
      e2e.push_back(info->finished_at - info->submitted_at);
    }
  }
  scenario.wall_seconds = wall.seconds();
  scenario.invoke_p50_us = percentile(invoke_us, 50.0);
  scenario.invoke_p95_us = percentile(invoke_us, 95.0);
  scenario.e2e_p50_s = percentile(e2e, 50.0);
  scenario.e2e_p95_s = percentile(e2e, 95.0);
  scenario.throughput =
      scenario.wall_seconds > 0.0 ? scenario.completed / scenario.wall_seconds : 0.0;

  if (telemetry_on && export_artifacts) {
    const auto metrics = client.getMetrics();
    if (metrics.ok()) {
      const std::string path = bench::artifact_path("BENCH_obs_metrics.json");
      std::ofstream out(path);
      out << obs::render_json(metrics->snapshot);
      std::cout << "wrote " << path << "\n";
    }
    const auto health = client.getHealth();
    if (health.ok()) {
      const std::string path = bench::artifact_path("BENCH_obs_health.json");
      std::ofstream out(path);
      out << obs::render_health_json(*health);
      std::cout << "wrote " << path << "\n";
    }
    api::GetRunTraceRequest trace_request;
    trace_request.run = handles.back().id();
    const auto trace = client.getRunTrace(trace_request);
    if (trace.ok()) {
      const std::string path = bench::artifact_path("BENCH_obs_trace.jsonl");
      std::ofstream out(path);
      out << obs::chrome_trace_events(trace->trace);
      std::cout << "wrote " << path << "\n";
    }
  }
  return scenario;
}

}  // namespace

int main() {
  using namespace qon;
  bench::print_header("Telemetry overhead",
                      "bench_burst 1k batch config, full telemetry vs telemetry off");

  // Interleave off/on/off/on and keep the better pair half to damp
  // machine-noise asymmetry in CI; report every measured scenario.
  std::vector<Scenario> scenarios;
  scenarios.push_back(run_burst(false, false));  // warm-up + off sample
  scenarios.push_back(run_burst(true, true));
  scenarios.push_back(run_burst(false, false));
  scenarios.push_back(run_burst(true, false));

  TextTable table({"telemetry", "completed", "invoke p50 [us]", "invoke p95 [us]",
                   "e2e p50 [s]", "e2e p95 [s]", "runs/s", "wall [s]"});
  for (const auto& s : scenarios) {
    table.add_row({s.telemetry, std::to_string(s.completed),
                   TextTable::num(s.invoke_p50_us, 1), TextTable::num(s.invoke_p95_us, 1),
                   TextTable::num(s.e2e_p50_s, 2), TextTable::num(s.e2e_p95_s, 2),
                   TextTable::num(s.throughput, 0), TextTable::num(s.wall_seconds, 2)});
  }
  table.print(std::cout, "telemetry on/off at 1k burst, executor_threads = 2");

  // Best-of-two per arm: the overhead claim should not hinge on one noisy run.
  const double off_p95 = std::min(scenarios[0].e2e_p95_s, scenarios[2].e2e_p95_s);
  const double on_p95 = std::min(scenarios[1].e2e_p95_s, scenarios[3].e2e_p95_s);
  const double ratio = off_p95 > 0.0 ? on_p95 / off_p95 : 1.0;

  const std::string json_path = bench::artifact_path("BENCH_obs_overhead.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"obs_overhead\",\n  \"runs\": " << kRuns
       << ",\n  \"executor_threads\": 2,\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    json << "    {\"telemetry\": \"" << s.telemetry << "\", \"completed\": " << s.completed
         << ", \"invoke_p50_us\": " << s.invoke_p50_us
         << ", \"invoke_p95_us\": " << s.invoke_p95_us
         << ", \"e2e_p50_s\": " << s.e2e_p50_s << ", \"e2e_p95_s\": " << s.e2e_p95_s
         << ", \"throughput_runs_per_s\": " << s.throughput
         << ", \"wall_seconds\": " << s.wall_seconds << "}"
         << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"e2e_p95_on_off_ratio\": " << ratio
       << ",\n  \"budget_ratio\": 1.05\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  bench::print_comparison("telemetry e2e p95 overhead", "<= 5% (budget)",
                          bench::pct(ratio - 1.0) + " (on/off ratio " +
                              TextTable::num(ratio, 3) + ")");
  return 0;
}
