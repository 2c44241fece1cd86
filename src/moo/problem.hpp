#pragma once
// Multi-objective optimization problem interface. Qonductor's scheduling
// problem (Eq. 1) is an integer-assignment problem: variable i is the QPU
// index assigned to job i. All objectives are minimized.

#include <cstddef>
#include <vector>

namespace qon::moo {

/// An integer-vector multi-objective minimization problem.
class IntegerProblem {
 public:
  virtual ~IntegerProblem() = default;

  /// Number of decision variables (genome length).
  virtual std::size_t num_variables() const = 0;

  /// Inclusive bounds for variable i.
  virtual int lower_bound(std::size_t i) const = 0;
  virtual int upper_bound(std::size_t i) const = 0;

  /// Number of objectives (all minimized).
  virtual std::size_t num_objectives() const = 0;

  /// Evaluates a genome; must fill `objectives` (size num_objectives()).
  /// Infeasible assignments should be repaired or penalized here.
  virtual void evaluate(const std::vector<int>& genome,
                        std::vector<double>& objectives) const = 0;

  /// Optional repair hook: clamp/adjust a genome into feasibility.
  /// Default: clamp to bounds.
  virtual void repair(std::vector<int>& genome) const;
};

/// True when objective vector `a` Pareto-dominates `b` (<= everywhere,
/// < somewhere).
bool dominates(const std::vector<double>& a, const std::vector<double>& b);

/// Same test over two rows of `m` objectives.
inline bool dominates(const double* a, const double* b, std::size_t m) {
  bool strictly_better = false;
  for (std::size_t k = 0; k < m; ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly_better = true;
  }
  return strictly_better;
}

/// Indices of the non-dominated members of `objectives`.
std::vector<std::size_t> non_dominated_indices(
    const std::vector<std::vector<double>>& objectives);

}  // namespace qon::moo
