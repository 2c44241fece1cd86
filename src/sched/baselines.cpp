#include "sched/baselines.hpp"

#include <cmath>

namespace qon::sched {

namespace {

bool feasible(const QuantumJob& job, const QpuState& qpu, std::size_t q) {
  return qpu.online && job.qubits <= qpu.size && q < job.est_exec_seconds.size() &&
         std::isfinite(job.est_exec_seconds[q]);
}

}  // namespace

std::vector<int> assign_best_fidelity_fcfs(const SchedulingInput& input) {
  std::vector<int> assignment(input.jobs.size(), -1);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    const auto& job = input.jobs[j];
    int best = -1;
    double best_fid = -1.0;
    for (std::size_t q = 0; q < input.qpus.size(); ++q) {
      if (!feasible(job, input.qpus[q], q)) continue;
      if (job.est_fidelity[q] > best_fid) {
        best_fid = job.est_fidelity[q];
        best = static_cast<int>(q);
      }
    }
    assignment[j] = best;
  }
  return assignment;
}

std::vector<int> assign_least_busy(const SchedulingInput& input) {
  std::vector<int> assignment(input.jobs.size(), -1);
  std::vector<double> waits;
  waits.reserve(input.qpus.size());
  for (const auto& q : input.qpus) waits.push_back(q.queue_wait_seconds);

  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    const auto& job = input.jobs[j];
    int best = -1;
    double best_wait = 0.0;
    for (std::size_t q = 0; q < input.qpus.size(); ++q) {
      if (!feasible(job, input.qpus[q], q)) continue;
      if (best < 0 || waits[q] < best_wait) {
        best_wait = waits[q];
        best = static_cast<int>(q);
      }
    }
    assignment[j] = best;
    if (best >= 0) {
      waits[static_cast<std::size_t>(best)] +=
          job.est_exec_seconds[static_cast<std::size_t>(best)];
    }
  }
  return assignment;
}

std::vector<int> assign_random_feasible(const SchedulingInput& input, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> assignment(input.jobs.size(), -1);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    std::vector<int> options;
    for (std::size_t q = 0; q < input.qpus.size(); ++q) {
      if (feasible(input.jobs[j], input.qpus[q], q)) options.push_back(static_cast<int>(q));
    }
    if (!options.empty()) {
      assignment[j] = options[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
    }
  }
  return assignment;
}

}  // namespace qon::sched
