#include "sched/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qon::sched {

SchedulingProblem::SchedulingProblem(const SchedulingInput& input)
    : num_jobs_(input.jobs.size()), num_qpus_(input.qpus.size()) {
  if (input.jobs.empty()) throw std::invalid_argument("SchedulingProblem: no jobs");
  if (input.qpus.empty()) throw std::invalid_argument("SchedulingProblem: no QPUs");
  const std::size_t nq = num_qpus_;
  nearest_.resize(num_jobs_ * nq);
  exec_.resize(num_jobs_ * nq);
  error_.resize(num_jobs_ * nq);
  queue_wait_.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) queue_wait_[q] = input.qpus[q].queue_wait_seconds;

  std::vector<bool> feasible(nq);
  for (std::size_t j = 0; j < num_jobs_; ++j) {
    const auto& job = input.jobs[j];
    if (job.est_fidelity.size() != nq || job.est_exec_seconds.size() != nq) {
      throw std::invalid_argument("SchedulingProblem: estimate arity mismatch for job " +
                                  std::to_string(job.id));
    }
    bool any = false;
    for (std::size_t q = 0; q < nq; ++q) {
      const auto& qpu = input.qpus[q];
      feasible[q] =
          qpu.online && job.qubits <= qpu.size && std::isfinite(job.est_exec_seconds[q]);
      any = any || feasible[q];
      exec_[j * nq + q] = job.est_exec_seconds[q];
      error_[j * nq + q] = 1.0 - job.est_fidelity[q];
    }
    if (!any) {
      throw std::invalid_argument("SchedulingProblem: job " + std::to_string(job.id) +
                                  " has no feasible QPU (filter it first)");
    }
    // Nearest feasible index for every gene value: one sweep up records the
    // closest feasible QPU at or below each index, one sweep down picks
    // between it and the closest one above. The lower index wins a tie.
    int* row = &nearest_[j * nq];
    int below = -1;
    for (std::size_t q = 0; q < nq; ++q) {
      if (feasible[q]) below = static_cast<int>(q);
      row[q] = below;
    }
    int above = -1;
    for (int gene = static_cast<int>(nq) - 1; gene >= 0; --gene) {
      const auto q = static_cast<std::size_t>(gene);
      if (feasible[q]) above = gene;
      if (row[q] < 0 || (above >= 0 && above - gene < gene - row[q])) row[q] = above;
    }
  }
}

std::size_t SchedulingProblem::num_variables() const { return num_jobs_; }

int SchedulingProblem::lower_bound(std::size_t) const { return 0; }

int SchedulingProblem::upper_bound(std::size_t) const {
  return static_cast<int>(num_qpus_) - 1;
}

void SchedulingProblem::repair(std::vector<int>& genome) const {
  const int hi = static_cast<int>(num_qpus_) - 1;
  for (std::size_t j = 0; j < genome.size(); ++j) {
    genome[j] = nearest_[j * num_qpus_ + static_cast<std::size_t>(std::clamp(genome[j], 0, hi))];
  }
}

void SchedulingProblem::evaluate(const std::vector<int>& genome,
                                 std::vector<double>& objectives) const {
  const std::size_t n = num_jobs_;
  const std::size_t nq = num_qpus_;
  if (genome.size() != n) throw std::invalid_argument("SchedulingProblem: genome size");

  // Eq. 1, computed in O(N + Q): the co-assignment sum
  //   sum_k t_k [x_i == x_k]
  // is the per-QPU total execution time of the assignment.
  thread_local std::vector<double> qpu_exec;
  qpu_exec.assign(nq, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto q = static_cast<std::size_t>(genome[k]);
    qpu_exec[q] += exec_[k * nq + q];
  }
  double jct_sum = 0.0;
  double error_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = static_cast<std::size_t>(genome[i]);
    jct_sum += queue_wait_[q] + qpu_exec[q];
    error_sum += error_[i * nq + q];
  }
  objectives.resize(2);
  objectives[0] = jct_sum / static_cast<double>(n);
  objectives[1] = error_sum / static_cast<double>(n);
}

double SchedulingProblem::mean_execution_time(const std::vector<int>& genome) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    acc += exec_[i * num_qpus_ + static_cast<std::size_t>(genome[i])];
  }
  return acc / static_cast<double>(genome.size());
}

}  // namespace qon::sched
