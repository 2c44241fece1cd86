#include "moo/nsga2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qon::moo {

namespace {

struct Individual {
  std::vector<int> genome;
  std::vector<double> objectives;
  std::size_t rank = 0;
  double crowding = 0.0;
};

// Buffers reused across every ranking of one run, so a generation allocates
// nothing once they have grown to the merged population size.
struct RankScratch {
  std::vector<const double*> rows;  ///< objective row of each individual
  std::vector<std::size_t> order;
  std::vector<std::size_t> rank;
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<double> value;  ///< one objective over the current front
  std::vector<double> distance;
};

bool lexicographic_less(const double* a, const double* b, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    if (a[k] < b[k]) return true;
    if (b[k] < a[k]) return false;
  }
  return false;
}

// Efficient Non-dominated Sort, binary-search variant (Zhang et al. 2015).
// Visiting rows in lexicographic order places every dominator of a row
// before the row itself. A row placed in front k+1 is dominated by some
// member of front k, so "front k holds a dominator of x" is monotone in k
// and a binary search finds the first front without one. Fills `s.rank`.
void ens_ranks(std::size_t m, RankScratch& s) {
  const std::size_t n = s.rows.size();
  s.rank.resize(n);
  s.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.order[i] = i;
  std::sort(s.order.begin(), s.order.end(), [&s, m](std::size_t a, std::size_t b) {
    return lexicographic_less(s.rows[a], s.rows[b], m);
  });
  std::size_t num_fronts = 0;
  for (const std::size_t x : s.order) {
    const double* row = s.rows[x];
    auto dominated_in = [&](const std::vector<std::size_t>& front) {
      // The latest member sits closest to x in lexicographic order, so it
      // is the likeliest dominator: scan backwards.
      for (auto it = front.rbegin(); it != front.rend(); ++it) {
        if (dominates(s.rows[*it], row, m)) return true;
      }
      return false;
    };
    std::size_t lo = 0;
    std::size_t hi = num_fronts;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (dominated_in(s.fronts[mid])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == num_fronts) {
      if (s.fronts.size() == num_fronts) s.fronts.emplace_back();
      s.fronts[num_fronts++].clear();
    }
    s.fronts[lo].push_back(x);
    s.rank[x] = lo;
  }
}

// Crowding distance of one front (indices into `s.rows`) into
// `s.distance`. Ties in an objective keep std::sort's order over the
// front's index order, so the values depend on that order.
void crowding_into(std::size_t m_count, const std::vector<std::size_t>& front,
                   RankScratch& s) {
  const double inf = std::numeric_limits<double>::infinity();
  s.distance.assign(front.size(), 0.0);
  if (front.empty()) return;
  auto& order = s.order;
  auto& value = s.value;
  order.resize(front.size());
  value.resize(front.size());
  for (std::size_t m = 0; m < m_count; ++m) {
    for (std::size_t i = 0; i < front.size(); ++i) {
      order[i] = i;
      value[i] = s.rows[front[i]][m];
    }
    std::sort(order.begin(), order.end(),
              [&value](std::size_t a, std::size_t b) { return value[a] < value[b]; });
    s.distance[order.front()] = inf;
    s.distance[order.back()] = inf;
    const double span = value[order.back()] - value[order.front()];
    if (span <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      s.distance[order[i]] += (value[order[i + 1]] - value[order[i - 1]]) / span;
    }
  }
}

void point_rows(const std::vector<std::vector<double>>& objectives, RankScratch& s) {
  s.rows.resize(objectives.size());
  for (std::size_t i = 0; i < objectives.size(); ++i) s.rows[i] = objectives[i].data();
}

}  // namespace

std::vector<std::size_t> fast_non_dominated_sort(
    const std::vector<std::vector<double>>& objectives) {
  RankScratch s;
  point_rows(objectives, s);
  ens_ranks(objectives.empty() ? 0 : objectives[0].size(), s);
  return s.rank;
}

std::vector<double> crowding_distance(const std::vector<std::vector<double>>& objectives,
                                      const std::vector<std::size_t>& front) {
  RankScratch s;
  point_rows(objectives, s);
  crowding_into(front.empty() ? 0 : objectives[front[0]].size(), front, s);
  return s.distance;
}

namespace {

// Binary tournament over pop[0, n): lower rank wins; ties broken by larger
// crowding.
const Individual& tournament(const std::vector<Individual>& pop, std::size_t n, Rng& rng) {
  const auto& a =
      pop[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
  const auto& b =
      pop[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

// Crossover with exponentially distributed spread (paper §7): children are
// placed at 0.5((1±beta) p1 + (1∓beta) p2) with beta ~ Exp(lambda), rounded
// back to integers.
void exponential_crossover(const std::vector<int>& p1, const std::vector<int>& p2,
                           std::vector<int>& c1, std::vector<int>& c2,
                           const Nsga2Config& cfg, Rng& rng) {
  c1 = p1;
  c2 = p2;
  if (!rng.bernoulli(cfg.crossover_prob)) return;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    if (!rng.bernoulli(cfg.crossover_rate_per_gene)) continue;
    const double beta = rng.exponential(cfg.exponential_lambda);
    const double a = static_cast<double>(p1[i]);
    const double b = static_cast<double>(p2[i]);
    const double child1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b);
    const double child2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b);
    c1[i] = static_cast<int>(std::lround(child1));
    c2[i] = static_cast<int>(std::lround(child2));
  }
}

// Polynomial mutation (Deb): perturbs within the parent's vicinity with a
// polynomial probability distribution of index eta.
void polynomial_mutation(std::vector<int>& genome, const std::vector<int>& lower,
                         const std::vector<int>& upper, const Nsga2Config& cfg, Rng& rng) {
  const double p_gene = cfg.mutation_prob_per_gene > 0.0
                            ? cfg.mutation_prob_per_gene
                            : 1.0 / static_cast<double>(genome.size());
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (!rng.bernoulli(p_gene)) continue;
    const double lo = lower[i];
    const double hi = upper[i];
    if (hi <= lo) continue;
    const double x = genome[i];
    const double u = rng.uniform();
    const double eta = cfg.mutation_eta;
    double delta;
    if (u < 0.5) {
      delta = std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0;
    } else {
      delta = 1.0 - std::pow(2.0 * (1.0 - u), 1.0 / (eta + 1.0));
    }
    genome[i] = static_cast<int>(std::lround(x + delta * (hi - lo)));
  }
}

void evaluate_population(std::vector<Individual>& pop, std::size_t begin, std::size_t end,
                         const IntegerProblem& problem, std::size_t& evaluations) {
  for (std::size_t i = begin; i < end; ++i) problem.evaluate(pop[i].genome, pop[i].objectives);
  evaluations += end - begin;
}

// Crowding distance of pop[0, n) per front, given each member's rank. The
// fronts list their members in ascending index order.
void assign_crowding(std::vector<Individual>& pop, std::size_t n, std::size_t m_count,
                     RankScratch& s) {
  s.rows.resize(n);
  std::size_t num_fronts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.rows[i] = pop[i].objectives.data();
    num_fronts = std::max(num_fronts, pop[i].rank + 1);
  }
  if (s.fronts.size() < num_fronts) s.fronts.resize(num_fronts);
  for (std::size_t r = 0; r < num_fronts; ++r) s.fronts[r].clear();
  for (std::size_t i = 0; i < n; ++i) s.fronts[pop[i].rank].push_back(i);
  for (std::size_t r = 0; r < num_fronts; ++r) {
    const auto& front = s.fronts[r];
    crowding_into(m_count, front, s);
    for (std::size_t k = 0; k < front.size(); ++k) pop[front[k]].crowding = s.distance[k];
  }
}

void assign_ranks_and_crowding(std::vector<Individual>& pop, std::size_t n,
                               std::size_t m_count, RankScratch& s) {
  s.rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.rows[i] = pop[i].objectives.data();
  ens_ranks(m_count, s);
  for (std::size_t i = 0; i < n; ++i) pop[i].rank = s.rank[i];
  assign_crowding(pop, n, m_count, s);
}

}  // namespace

Nsga2Result nsga2(const IntegerProblem& problem, const Nsga2Config& config) {
  if (problem.num_variables() == 0) {
    throw std::invalid_argument("nsga2: problem has no variables");
  }
  if (config.population_size < 4) {
    throw std::invalid_argument("nsga2: population_size must be >= 4");
  }
  Rng rng(config.seed);
  Nsga2Result result;
  const std::size_t n = config.population_size;
  const std::size_t m_count = problem.num_objectives();

  // All storage is sized once. `pool` holds the population in [0, n) and
  // a generation's offspring in [n, 2n); environmental selection permutes
  // it in place. `spare` takes the second child of the last pair when n is
  // odd.
  Individual blank;
  blank.genome.resize(problem.num_variables());
  blank.objectives.resize(m_count);
  std::vector<Individual> pool(2 * n, blank);
  Individual spare = blank;
  std::vector<std::size_t> survivors(2 * n);
  RankScratch scratch;
  std::vector<int> lower(problem.num_variables());
  std::vector<int> upper(problem.num_variables());
  for (std::size_t i = 0; i < lower.size(); ++i) {
    lower[i] = problem.lower_bound(i);
    upper[i] = problem.upper_bound(i);
  }

  // Random-integer initialization within bounds, with caller-provided
  // heuristic seeds occupying the first slots.
  for (std::size_t p = 0; p < n; ++p) {
    auto& ind = pool[p];
    if (p < config.initial_genomes.size() &&
        config.initial_genomes[p].size() == problem.num_variables()) {
      ind.genome = config.initial_genomes[p];
    } else {
      for (std::size_t i = 0; i < ind.genome.size(); ++i) {
        ind.genome[i] = static_cast<int>(rng.uniform_int(lower[i], upper[i]));
      }
    }
    problem.repair(ind.genome);
  }
  evaluate_population(pool, 0, n, problem, result.evaluations);
  assign_ranks_and_crowding(pool, n, m_count, scratch);

  // Sliding-window tolerance bookkeeping: a ring of the ideal points
  // (per-objective minima) of the last `tolerance_window` generations.
  const std::size_t window = std::max<std::size_t>(config.tolerance_window, 1);
  std::vector<std::vector<double>> ideal_ring(window, blank.objectives);
  std::size_t ideals_recorded = 0;
  auto record_ideal_point = [&] {
    auto& ideal = ideal_ring[ideals_recorded++ % window];
    ideal = pool[0].objectives;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t m = 0; m < ideal.size(); ++m) {
        ideal[m] = std::min(ideal[m], pool[p].objectives[m]);
      }
    }
  };
  record_ideal_point();

  for (std::size_t gen = 0; gen < config.max_generations; ++gen) {
    if (result.evaluations >= config.max_evaluations) break;
    ++result.generations;

    // Offspring via tournament + exponential crossover + polynomial mutation.
    for (std::size_t made = 0; made < n; made += 2) {
      const auto& p1 = tournament(pool, n, rng);
      const auto& p2 = tournament(pool, n, rng);
      auto& c1 = pool[n + made];
      auto& c2 = made + 1 < n ? pool[n + made + 1] : spare;
      exponential_crossover(p1.genome, p2.genome, c1.genome, c2.genome, config, rng);
      polynomial_mutation(c1.genome, lower, upper, config, rng);
      polynomial_mutation(c2.genome, lower, upper, config, rng);
      problem.repair(c1.genome);
      problem.repair(c2.genome);
    }
    evaluate_population(pool, n, 2 * n, problem, result.evaluations);

    // Environmental selection over parents + offspring: sort by (rank,
    // crowding) and keep the first n. std::sort moves elements only on
    // comparison outcomes, so sorting indices yields the permutation that
    // sorting the individuals would. Survivors keep their ranks — every
    // dominator of a survivor has a lower rank and survives too — so only
    // crowding needs recomputing over the truncated population.
    assign_ranks_and_crowding(pool, 2 * n, m_count, scratch);
    for (std::size_t i = 0; i < 2 * n; ++i) survivors[i] = i;
    std::sort(survivors.begin(), survivors.end(), [&pool](std::size_t a, std::size_t b) {
      if (pool[a].rank != pool[b].rank) return pool[a].rank < pool[b].rank;
      return pool[a].crowding > pool[b].crowding;
    });
    // Slot k takes pool[survivors[k]], one permutation cycle at a time;
    // a visited slot is marked by survivors[j] = j.
    for (std::size_t i = 0; i < 2 * n; ++i) {
      std::size_t j = i;
      while (survivors[j] != i) {
        const std::size_t k = survivors[j];
        std::swap(pool[j], pool[k]);
        survivors[j] = j;
        j = k;
      }
      survivors[j] = j;
    }
    assign_crowding(pool, n, m_count, scratch);

    // Tolerance termination over the sliding window.
    record_ideal_point();
    if (ideals_recorded > window) {
      const auto& oldest = ideal_ring[ideals_recorded % window];
      const auto& latest = ideal_ring[(ideals_recorded - 1) % window];
      double rel_improvement = 0.0;
      for (std::size_t m = 0; m < latest.size(); ++m) {
        const double denom = std::max(std::abs(oldest[m]), 1e-12);
        rel_improvement = std::max(rel_improvement, (oldest[m] - latest[m]) / denom);
      }
      if (rel_improvement < config.tolerance) {
        result.converged_by_tolerance = true;
        break;
      }
    }
  }

  // Extract the deduplicated rank-0 front.
  for (std::size_t p = 0; p < n; ++p) {
    const auto& ind = pool[p];
    if (ind.rank != 0) continue;
    const bool duplicate =
        std::any_of(result.front.begin(), result.front.end(),
                    [&ind](const Solution& s) { return s.genome == ind.genome; });
    if (!duplicate) result.front.push_back({ind.genome, ind.objectives});
  }
  std::sort(result.front.begin(), result.front.end(), [](const Solution& a, const Solution& b) {
    return a.objectives[0] < b.objectives[0];
  });
  return result;
}

}  // namespace qon::moo
