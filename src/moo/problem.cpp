#include "moo/problem.hpp"

#include <algorithm>

namespace qon::moo {

void IntegerProblem::repair(std::vector<int>& genome) const {
  for (std::size_t i = 0; i < genome.size(); ++i) {
    genome[i] = std::clamp(genome[i], lower_bound(i), upper_bound(i));
  }
}

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  return dominates(a.data(), b.data(), a.size());
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<std::vector<double>>& objectives) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < objectives.size() && !dominated; ++j) {
      if (i != j && dominates(objectives[j], objectives[i])) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

}  // namespace qon::moo
