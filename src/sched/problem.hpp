#pragma once
// The scheduling optimization problem of Eq. 1: decision variable x_i is
// the QPU assigned to job i; objectives are mean JCT and mean error
// (1 - mean fidelity), both minimized, subject to q_i <= s_{x_i}.

#include "moo/problem.hpp"
#include "sched/job.hpp"

namespace qon::sched {

/// Eq. 1 as a moo::IntegerProblem. The constructor flattens everything the
/// NSGA-II hot path reads into row-major per-(job, QPU) tables: the nearest
/// feasible QPU for every gene value (size + online filters, lowest index
/// on equidistant ties), the execution time and the error 1 - fidelity.
/// repair() is then a clamp plus one lookup per gene and evaluate() never
/// touches the job records. Jobs with no feasible QPU must be filtered out
/// before construction (see preprocess_jobs).
class SchedulingProblem : public moo::IntegerProblem {
 public:
  explicit SchedulingProblem(const SchedulingInput& input);

  std::size_t num_variables() const override;
  int lower_bound(std::size_t i) const override;
  int upper_bound(std::size_t i) const override;
  std::size_t num_objectives() const override { return 2; }

  /// objectives[0] = mean JCT (Eq. 1 f1), objectives[1] = mean error (f2).
  void evaluate(const std::vector<int>& genome,
                std::vector<double>& objectives) const override;

  /// Clamps each gene to [0, Q-1], then snaps it to the nearest feasible QPU.
  void repair(std::vector<int>& genome) const override;

  /// Mean execution time of the assignment (Fig. 10a's metric).
  double mean_execution_time(const std::vector<int>& genome) const;

 private:
  std::size_t num_jobs_;
  std::size_t num_qpus_;
  std::vector<int> nearest_;       ///< [job * Q + gene] -> feasible QPU
  std::vector<double> exec_;       ///< [job * Q + qpu] -> est. exec seconds
  std::vector<double> error_;      ///< [job * Q + qpu] -> 1 - est. fidelity
  std::vector<double> queue_wait_; ///< [qpu] -> w_x
};

}  // namespace qon::sched
