// Overload benchmark — the front door under a flood. 50k invocations (7:2:1
// batch:standard:interactive) are fired at a 4k-slot pending queue with the
// admission gate bounding live runs. The interesting numbers: the admission
// decision stays microseconds-flat for the interactive class even while the
// gate sheds batch work (invoke never blocks on queue capacity), and the
// engine workers ride the capacity waitlist instead of convoying in push
// (waitlist_parks > 0 is asserted — a zero means this bench stopped
// exercising the overload path and must be retuned). The scheduler's first
// cycle is held at its QPU snapshot until every admitted run has been
// handed to the queue, so the overflow reaches the waitlist on any core
// count instead of depending on the scheduler losing a race. Emits
// BENCH_overload.json so future admission changes diff against this
// baseline.

#include <chrono>
#include <cstddef>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "bench_util.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

int main() {
  using namespace qon;
  bench::print_header("overload", "50k-run flood vs a 4k queue behind the admission gate");

  constexpr std::size_t kInvokes = 50000;
  core::QonductorConfig config;
  config.num_qpus = 8;
  config.seed = 20250807;
  config.trajectory_width_limit = 0;  // analytic model: isolate orchestration cost
  config.executor_threads = 4;
  config.scheduler_service.queue_capacity = 4096;
  config.scheduler_service.queue_threshold = 4096;  // cycles fire full or on linger
  config.scheduler_service.max_batch_size = 512;
  config.scheduler_service.linger = std::chrono::milliseconds(5);
  config.admission.max_live_runs = 6000;
  // No run settles while the hold lasts, so live runs climb to the admission
  // bound (6000): more than the queue (4096) plus the held cycle's batch
  // (512) plus the runs the workers are still stepping can absorb.
  std::promise<void> release_scheduler;
  config.health.scheduler_fault_injection =
      [released = release_scheduler.get_future().share()] { released.wait(); };
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "overload";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(3), 128));
  const auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) throw std::runtime_error(created.status().to_string());
  api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    throw std::runtime_error(deployed.status().to_string());
  }

  // The flood: 7:2:1 batch:standard:interactive, per-invoke admission
  // latency sampled for the interactive class (the paper's latency-critical
  // tier — the gate must answer in microseconds whether it admits or sheds).
  std::vector<api::RunHandle> admitted;
  std::vector<double> interactive_us;
  interactive_us.reserve(kInvokes / 10 + 1);
  std::size_t shed_with_hint = 0;
  Stopwatch wall;
  for (std::size_t i = 0; i < kInvokes; ++i) {
    api::InvokeRequest request;
    request.image = created->image;
    const std::size_t slot = i % 10;
    request.preferences.priority = slot == 0   ? api::Priority::kInteractive
                                   : slot <= 2 ? api::Priority::kStandard
                                               : api::Priority::kBatch;
    const bool sample = request.preferences.priority == api::Priority::kInteractive;
    const auto before = std::chrono::steady_clock::now();
    auto handle = client.invoke(request);
    if (sample) {
      interactive_us.push_back(
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - before)
              .count());
    }
    if (handle.ok()) {
      admitted.push_back(*std::move(handle));
    } else if (handle.status().code() == api::StatusCode::kResourceExhausted &&
               handle.status().retry_after_seconds().has_value()) {
      ++shed_with_hint;
    } else {
      throw std::runtime_error("unexpected invoke failure: " + handle.status().to_string());
    }
  }
  const double flood_seconds = wall.seconds();

  // Every admitted run's only pre-park event is posted by now; once the
  // workers have popped them all, at most executor_threads runs are not yet
  // parked in the queue or on its waitlist. Then let the cycles drain.
  while (client.backend().runEngine().stats().queue_depth > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release_scheduler.set_value();

  std::size_t completed = 0;
  for (const auto& handle : admitted) {
    if (handle.wait() == api::RunStatus::kCompleted) ++completed;
  }
  const double drain_seconds = wall.seconds() - flood_seconds;

  const auto admission = client.getAdmissionStats();
  if (!admission.ok()) throw std::runtime_error(admission.status().to_string());
  const auto& stats = admission->stats;
  const auto lane = [](api::Priority p) { return static_cast<std::size_t>(p); };
  const std::uint64_t total_shed = stats.shed[lane(api::Priority::kBatch)] +
                                   stats.shed[lane(api::Priority::kStandard)] +
                                   stats.shed[lane(api::Priority::kInteractive)];

  TextTable table({"metric", "value"});
  table.add_row({"invocations", std::to_string(kInvokes)});
  table.add_row({"admitted", std::to_string(admitted.size())});
  table.add_row({"completed", std::to_string(completed)});
  table.add_row({"shed (batch)", std::to_string(stats.shed[lane(api::Priority::kBatch)])});
  table.add_row({"shed (standard)", std::to_string(stats.shed[lane(api::Priority::kStandard)])});
  table.add_row(
      {"shed (interactive)", std::to_string(stats.shed[lane(api::Priority::kInteractive)])});
  table.add_row({"interactive admit p50 [us]", TextTable::num(percentile(interactive_us, 50.0), 2)});
  table.add_row({"interactive admit p95 [us]", TextTable::num(percentile(interactive_us, 95.0), 2)});
  table.add_row({"waitlist parks", std::to_string(stats.waitlist_parks)});
  table.add_row({"waitlist high watermark", std::to_string(stats.waitlist_high_watermark)});
  table.add_row({"flood wall time [s]", TextTable::num(flood_seconds, 2)});
  table.add_row({"drain wall time [s]", TextTable::num(drain_seconds, 2)});
  table.print(std::cout, "overload front door");

  const std::string json_path = bench::artifact_path("BENCH_overload.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"overload\",\n"
       << "  \"invocations\": " << kInvokes << ",\n"
       << "  \"queue_capacity\": " << config.scheduler_service.queue_capacity << ",\n"
       << "  \"max_live_runs\": " << config.admission.max_live_runs << ",\n"
       << "  \"admitted\": " << admitted.size() << ",\n"
       << "  \"completed\": " << completed << ",\n"
       << "  \"shed_batch\": " << stats.shed[lane(api::Priority::kBatch)] << ",\n"
       << "  \"shed_standard\": " << stats.shed[lane(api::Priority::kStandard)] << ",\n"
       << "  \"shed_interactive\": " << stats.shed[lane(api::Priority::kInteractive)] << ",\n"
       << "  \"interactive_admit_p50_us\": " << percentile(interactive_us, 50.0) << ",\n"
       << "  \"interactive_admit_p95_us\": " << percentile(interactive_us, 95.0) << ",\n"
       << "  \"waitlist_parks\": " << stats.waitlist_parks << ",\n"
       << "  \"waitlist_high_watermark\": " << stats.waitlist_high_watermark << ",\n"
       << "  \"flood_wall_seconds\": " << flood_seconds << ",\n"
       << "  \"drain_wall_seconds\": " << drain_seconds << "\n"
       << "}\n";
  std::cout << "\nwrote " << json_path << "\n";

  bench::print_comparison("overload sheds instead of queueing unboundedly",
                          "graceful degradation under flood (Qonductor design goal)",
                          std::to_string(total_shed) + " shed, all with retry-after hints");

  // Sanity gates: the flood must actually exercise both overload paths.
  if (admitted.size() != completed) {
    std::cerr << "FAIL: " << (admitted.size() - completed) << " admitted runs did not complete\n";
    return 1;
  }
  if (total_shed == 0 || shed_with_hint != total_shed) {
    std::cerr << "FAIL: expected every shed to be RESOURCE_EXHAUSTED with a retry-after hint "
              << "(shed=" << total_shed << ", with-hint=" << shed_with_hint << ")\n";
    return 1;
  }
  if (stats.waitlist_parks == 0) {
    std::cerr << "FAIL: the flood never hit the capacity waitlist — overload path untested\n";
    return 1;
  }
  if (stats.waitlist_depth != 0) {
    std::cerr << "FAIL: " << stats.waitlist_depth << " tasks stranded on the waitlist\n";
    return 1;
  }
  return 0;
}
