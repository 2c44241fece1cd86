// Burst scheduling: the batch-scheduling job manager in action (§7). A
// client fans out a burst of workflow runs; instead of each quantum task
// greedily grabbing a QPU, the tasks park in the scheduler service's
// pending queue and scheduling cycles — fired by the queue-size threshold
// or the timer — assign whole batches through the hybrid scheduler
// (NSGA-II + MCDM). getSchedulerStats shows the cycles as they happened:
// batch sizes, queue waits, and the Fig. 9c per-stage timings.

#include <iostream>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace {

constexpr std::size_t kRuns = 32;

/// Deploys the burst image and runs the whole burst to completion.
/// Returns the wall-clock seconds the burst took.
double run_burst(qon::api::QonductorClient& client) {
  qon::api::CreateWorkflowRequest create;
  create.name = "burst";
  create.tasks.push_back(qon::workflow::HybridTask::quantum(
      "ghz", qon::circuit::ghz(4), 1000));
  const auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) {
    std::cerr << created.status().to_string() << "\n";
    return -1.0;
  }
  qon::api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    std::cerr << deployed.status().to_string() << "\n";
    return -1.0;
  }

  std::vector<qon::api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = created->image;
  qon::Stopwatch wall;
  const auto handles = client.invokeAll(requests);
  if (!handles.ok()) {
    std::cerr << handles.status().to_string() << "\n";
    return -1.0;
  }
  for (const auto& handle : *handles) handle.wait();
  return wall.seconds();
}

}  // namespace

int main() {
  using namespace qon;

  core::QonductorConfig config;
  config.num_qpus = 4;
  config.seed = 90;
  config.executor_threads = kRuns;  // the whole burst can park at once
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 8;   // fire at 8 pending jobs…
  config.scheduler_service.max_batch_size = 12;   // …and cap a cycle at 12
  config.scheduler_service.linger = std::chrono::milliseconds(50);
  api::QonductorClient client(config);

  std::cout << "submitting a burst of " << kRuns << " runs...\n";
  const double wall = run_burst(client);
  if (wall < 0.0) return 1;

  const auto stats_response = client.getSchedulerStats();
  if (!stats_response.ok()) {
    std::cerr << stats_response.status().to_string() << "\n";
    return 1;
  }
  const api::SchedulerStats& stats = stats_response->stats;

  TextTable cycles({"cycle", "trigger", "batch", "scheduled", "queue after",
                    "mean wait [s]", "optimize [ms]"});
  for (const auto& cycle : stats.recent_cycles) {
    cycles.add_row({std::to_string(cycle.cycle),
                    api::cycle_trigger_name(cycle.trigger),
                    std::to_string(cycle.batch_size),
                    std::to_string(cycle.scheduled),
                    std::to_string(cycle.queue_depth_after),
                    TextTable::num(cycle.mean_queue_wait_seconds, 1),
                    TextTable::num(cycle.optimize_seconds * 1e3, 2)});
  }
  cycles.print(std::cout, "scheduling cycles (getSchedulerStats)");

  auto waits = stats.recent_queue_waits;
  TextTable summary({"metric", "value"});
  summary.add_row({"cycles", std::to_string(stats.cycles)});
  summary.add_row({"jobs scheduled", std::to_string(stats.jobs_scheduled)});
  summary.add_row({"largest batch", std::to_string(stats.max_batch_size_seen)});
  summary.add_row({"queue high watermark", std::to_string(stats.queue_high_watermark)});
  summary.add_row({"queue wait p50 [s]", TextTable::num(percentile(waits, 50.0), 1)});
  summary.add_row({"queue wait p95 [s]", TextTable::num(percentile(waits, 95.0), 1)});
  summary.print(std::cout, "burst summary");

  std::cout << "\ndispatched " << stats.jobs_scheduled << " jobs in " << stats.cycles
            << " hybrid-scheduler cycles; the burst took " << TextTable::num(wall * 1e3, 0)
            << " ms wall.\n";
  return 0;
}
