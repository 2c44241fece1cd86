// Tests for the hybrid scheduler: the Eq. 1 problem encoding, the three
// scheduling stages, MCDM priorities, triggers, baselines and the classical
// filter/score scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "sched/baselines.hpp"
#include "sched/classical_scheduler.hpp"
#include "sched/hybrid_scheduler.hpp"
#include "sched/problem.hpp"
#include "sched/triggers.hpp"

namespace qon::sched {
namespace {

// Builds a synthetic input: `n` jobs over `q` QPUs with seeded random
// estimates. QPU 0 is the high-fidelity hotspot; later QPUs are faster to
// access but noisier, giving a genuine fidelity-JCT tradeoff.
SchedulingInput make_input(std::size_t n, std::size_t q, std::uint64_t seed,
                           int max_job_qubits = 20) {
  Rng rng(seed);
  SchedulingInput input;
  for (std::size_t i = 0; i < q; ++i) {
    QpuState state;
    state.name = "qpu" + std::to_string(i);
    state.size = 27;
    state.queue_wait_seconds = rng.uniform(0.0, 300.0);
    input.qpus.push_back(state);
  }
  for (std::size_t j = 0; j < n; ++j) {
    QuantumJob job;
    job.id = j;
    job.qubits = static_cast<int>(rng.uniform_int(2, max_job_qubits));
    job.shots = 4000;
    for (std::size_t i = 0; i < q; ++i) {
      // Fidelity decays with QPU index; execution time is similar.
      const double fid = 0.95 - 0.06 * static_cast<double>(i) - rng.uniform(0.0, 0.05);
      job.est_fidelity.push_back(std::max(0.1, fid));
      job.est_exec_seconds.push_back(rng.uniform(2.0, 10.0));
    }
    input.jobs.push_back(job);
  }
  return input;
}

TEST(Problem, Eq1HandExample) {
  // 2 jobs, 2 QPUs. Assignment {0, 0}: both on QPU0.
  SchedulingInput input;
  input.qpus = {{"a", 27, 100.0, true}, {"b", 27, 0.0, true}};
  QuantumJob j0;
  j0.id = 0;
  j0.qubits = 5;
  j0.est_fidelity = {0.9, 0.8};
  j0.est_exec_seconds = {10.0, 12.0};
  QuantumJob j1 = j0;
  j1.id = 1;
  j1.est_fidelity = {0.7, 0.6};
  j1.est_exec_seconds = {20.0, 24.0};
  input.jobs = {j0, j1};

  SchedulingProblem problem(input);
  std::vector<double> objectives;
  // Both on QPU a: per Eq. 1 each job's JCT = w_a + (t0 + t1) = 100 + 30.
  problem.evaluate({0, 0}, objectives);
  EXPECT_NEAR(objectives[0], 130.0, 1e-12);
  EXPECT_NEAR(objectives[1], 1.0 - 0.8, 1e-12);  // mean error of {0.9, 0.7}

  // Split {0, 1}: j0 on a (100 + 10), j1 on b (0 + 24); mean = 67.
  problem.evaluate({0, 1}, objectives);
  EXPECT_NEAR(objectives[0], 67.0, 1e-12);
  EXPECT_NEAR(objectives[1], 1.0 - (0.9 + 0.6) / 2.0, 1e-12);
}

TEST(Problem, RepairSnapsToFeasibleQpu) {
  SchedulingInput input;
  input.qpus = {{"small", 5, 0.0, true}, {"big", 27, 0.0, true}};
  QuantumJob job;
  job.id = 0;
  job.qubits = 10;  // only fits "big"
  job.est_fidelity = {0.9, 0.9};
  job.est_exec_seconds = {1.0, 1.0};
  input.jobs = {job};
  SchedulingProblem problem(input);
  std::vector<int> genome = {0};
  problem.repair(genome);
  EXPECT_EQ(genome[0], 1);
}

TEST(Problem, OfflineQpusExcluded) {
  SchedulingInput input;
  input.qpus = {{"a", 27, 0.0, false}, {"b", 27, 0.0, true}};  // a reserved
  QuantumJob job;
  job.id = 0;
  job.qubits = 5;
  job.est_fidelity = {0.99, 0.5};
  job.est_exec_seconds = {1.0, 1.0};
  input.jobs = {job};
  SchedulingProblem problem(input);
  std::vector<int> genome = {0};
  problem.repair(genome);
  EXPECT_EQ(genome[0], 1);  // snapped off the reserved QPU
}

TEST(Problem, ThrowsWhenJobFitsNowhere) {
  SchedulingInput input;
  input.qpus = {{"tiny", 3, 0.0, true}};
  QuantumJob job;
  job.id = 0;
  job.qubits = 10;
  job.est_fidelity = {0.9};
  job.est_exec_seconds = {1.0};
  input.jobs = {job};
  EXPECT_THROW(SchedulingProblem{input}, std::invalid_argument);
}

// Equivalence of the table-driven repair/evaluate with the rule they
// encode, written out naively: clamp, then the nearest feasible QPU with
// the lower index winning a tie; Eq. 1 with the co-assignment sum taken
// job by job.
std::vector<int> reference_repair(const SchedulingInput& input, std::vector<int> genome) {
  const int hi = static_cast<int>(input.qpus.size()) - 1;
  for (std::size_t j = 0; j < genome.size(); ++j) {
    const int gene = std::clamp(genome[j], 0, hi);
    int best = -1;
    for (int q = 0; q <= hi; ++q) {
      const auto& qpu = input.qpus[static_cast<std::size_t>(q)];
      const bool feasible = qpu.online && input.jobs[j].qubits <= qpu.size &&
                            std::isfinite(input.jobs[j].est_exec_seconds[static_cast<std::size_t>(q)]);
      if (feasible && (best < 0 || std::abs(q - gene) < std::abs(best - gene))) best = q;
    }
    genome[j] = best;
  }
  return genome;
}

std::vector<double> reference_evaluate(const SchedulingInput& input,
                                       const std::vector<int>& genome) {
  double jct_sum = 0.0;
  double error_sum = 0.0;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    const auto q = static_cast<std::size_t>(genome[i]);
    double co_assigned = 0.0;
    for (std::size_t k = 0; k < genome.size(); ++k) {
      if (genome[k] == genome[i]) co_assigned += input.jobs[k].est_exec_seconds[q];
    }
    jct_sum += input.qpus[q].queue_wait_seconds + co_assigned;
    error_sum += 1.0 - input.jobs[i].est_fidelity[q];
  }
  const auto n = static_cast<double>(genome.size());
  return {jct_sum / n, error_sum / n};
}

TEST(Problem, RepairAndEvaluateMatchNaiveReference) {
  auto input = make_input(60, 8, 61);
  // Offline QPUs 1 and 6 put genes 1 and 6 at equal distance from two
  // feasible QPUs, so the lower-index tie-break is exercised on every trial.
  input.qpus[1].online = false;
  input.qpus[3].size = 8;   // undersized for most jobs
  input.qpus[4].size = 12;
  input.qpus[6].online = false;
  input.jobs[7].est_exec_seconds[0] = kInfeasibleTime;
  const SchedulingProblem problem(input);
  Rng rng(62);
  std::vector<double> objectives;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> genome(input.jobs.size());
    for (auto& gene : genome) gene = static_cast<int>(rng.uniform_int(-3, 11));  // out of range too
    const auto expected = reference_repair(input, genome);
    problem.repair(genome);
    ASSERT_EQ(genome, expected) << "trial " << trial;
    problem.evaluate(genome, objectives);
    EXPECT_EQ(objectives, reference_evaluate(input, genome)) << "trial " << trial;
  }
}

TEST(Preprocess, FiltersOversizedJobs) {
  SchedulingInput input;
  input.qpus = {{"a", 10, 0.0, true}};
  QuantumJob fits;
  fits.id = 0;
  fits.qubits = 8;
  fits.est_fidelity = {0.9};
  fits.est_exec_seconds = {1.0};
  QuantumJob too_big = fits;
  too_big.id = 1;
  too_big.qubits = 20;
  input.jobs = {fits, too_big};
  const auto pre = preprocess_jobs(input);
  EXPECT_EQ(pre.compact.jobs.size(), 1u);
  EXPECT_EQ(pre.kept_indices, (std::vector<std::size_t>{0}));
  EXPECT_EQ(pre.filtered_indices, (std::vector<std::size_t>{1}));
}

TEST(Scheduler, AssignsEveryFeasibleJob) {
  const auto input = make_input(40, 4, 7);
  SchedulerConfig config;
  config.nsga2.seed = 3;
  const auto decision = schedule_cycle(input, config);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    ASSERT_GE(decision.assignment[j], 0) << "job " << j;
    ASSERT_LT(decision.assignment[j], 4);
    // Capacity constraint honored.
    EXPECT_LE(input.jobs[j].qubits,
              input.qpus[static_cast<std::size_t>(decision.assignment[j])].size);
  }
  EXPECT_FALSE(decision.pareto_front.empty());
  EXPECT_GT(decision.optimize_seconds, 0.0);
}

TEST(Scheduler, FidelityPriorityRaisesFidelity) {
  const auto input = make_input(60, 4, 11);
  SchedulerConfig jct_config;
  jct_config.fidelity_weight = 0.0;
  jct_config.nsga2.seed = 5;
  SchedulerConfig fid_config;
  fid_config.fidelity_weight = 1.0;
  fid_config.nsga2.seed = 5;
  const auto jct_decision = schedule_cycle(input, jct_config);
  const auto fid_decision = schedule_cycle(input, fid_config);
  EXPECT_GE(fid_decision.chosen.mean_fidelity(), jct_decision.chosen.mean_fidelity());
  EXPECT_LE(jct_decision.chosen.mean_jct, fid_decision.chosen.mean_jct);
}

TEST(Scheduler, BalancedSitsBetweenExtremes) {
  const auto input = make_input(60, 4, 13);
  SchedulerConfig balanced;
  balanced.fidelity_weight = 0.5;
  balanced.nsga2.seed = 9;
  const auto decision = schedule_cycle(input, balanced);
  // The chosen point lies inside the front's bounding box.
  double min_jct = decision.pareto_front[0].mean_jct;
  double max_jct = min_jct;
  for (const auto& p : decision.pareto_front) {
    min_jct = std::min(min_jct, p.mean_jct);
    max_jct = std::max(max_jct, p.mean_jct);
  }
  EXPECT_GE(decision.chosen.mean_jct, min_jct - 1e-9);
  EXPECT_LE(decision.chosen.mean_jct, max_jct + 1e-9);
}

// The per-job QoS acceptance scenario: the same batch submitted twice with
// opposite per-job fidelity_weight preferences produces measurably
// different placements — higher mean estimated fidelity / lower mean JCT
// respectively.
TEST(Scheduler, OppositePerJobPreferencesShiftPlacements) {
  auto fid_input = make_input(60, 4, 11);
  auto jct_input = fid_input;
  for (auto& job : fid_input.jobs) job.fidelity_weight = 1.0;
  for (auto& job : jct_input.jobs) job.fidelity_weight = 0.0;
  SchedulerConfig config;  // the cycle default (0.5) is overridden per job
  config.nsga2.seed = 5;
  const auto fid_decision = schedule_cycle(fid_input, config);
  const auto jct_decision = schedule_cycle(jct_input, config);
  EXPECT_GT(fid_decision.chosen.mean_fidelity(), jct_decision.chosen.mean_fidelity());
  EXPECT_LT(jct_decision.chosen.mean_jct, fid_decision.chosen.mean_jct);
}

// Heterogeneous preferences inside ONE cycle: each job takes its placement
// from the Pareto point matching its own weight, so fidelity-preferring
// tenants land on higher-fidelity QPUs than JCT-preferring tenants sharing
// the batch.
TEST(Scheduler, MixedPreferencesInOneCycleServePerJobTradeoffs) {
  auto input = make_input(40, 4, 43);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    input.jobs[j].fidelity_weight = (j % 2 == 0) ? 0.95 : 0.05;
  }
  SchedulerConfig config;
  config.nsga2.seed = 7;
  const auto decision = schedule_cycle(input, config);
  double fid_pref_mean = 0.0;
  double jct_pref_mean = 0.0;
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    ASSERT_GE(decision.assignment[j], 0);
    const auto q = static_cast<std::size_t>(decision.assignment[j]);
    (j % 2 == 0 ? fid_pref_mean : jct_pref_mean) += input.jobs[j].est_fidelity[q];
  }
  fid_pref_mean /= 20.0;
  jct_pref_mean /= 20.0;
  EXPECT_GT(fid_pref_mean, jct_pref_mean);
}

// Behaviour pin for the whole cycle: a fixed seeded 100-job x 8-QPU batch
// with an undersized and an offline QPU and mixed per-job weights. Any
// change to the NSGA-II draw sequence, the repair rule or the objective
// arithmetic moves these numbers; a speed-up of the kernel must keep them
// bit for bit.
TEST(Scheduler, GoldenCycleIsPinned) {
  auto input = make_input(100, 8, 2024);
  input.qpus[2].size = 12;
  input.qpus[5].online = false;
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    if (j % 4 == 0) input.jobs[j].fidelity_weight = 0.1;
    if (j % 4 == 1) input.jobs[j].fidelity_weight = 0.9;
    if (j % 4 == 2) input.jobs[j].fidelity_weight = 0.5;
  }
  SchedulerConfig config;
  config.nsga2.seed = 17;
  config.fidelity_weight = 0.3;  // jobs j % 4 == 3 take the cycle default
  const auto decision = schedule_cycle(input, config);

  const std::vector<int> assignment = {
      0, 0, 0, 0, 2, 0, 2, 1, 1, 0, 0, 2, 1, 0, 0, 1, 2, 0, 2, 0, 1, 0, 3, 2, 0,
      0, 1, 0, 3, 0, 1, 3, 3, 0, 1, 1, 7, 0, 0, 3, 3, 0, 1, 0, 2, 0, 2, 0, 3, 0,
      1, 2, 4, 0, 0, 1, 2, 0, 0, 3, 4, 0, 3, 0, 3, 0, 0, 0, 4, 0, 1, 1, 6, 0, 3,
      3, 3, 0, 1, 4, 0, 0, 2, 1, 6, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 2, 1, 0, 0};
  EXPECT_EQ(decision.assignment, assignment);
  const std::vector<std::pair<double, double>> front = {
      {180.67039534234129, 0.22815393054872718},
      {185.27263834386071, 0.22271630438068044},
      {190.14496257037916, 0.21670012693728138},
      {191.5035368415204, 0.21356021471061562},
      {191.91951127713637, 0.20401103884228852},
      {197.98927138398275, 0.20158282445458578},
      {199.28721315766003, 0.19717876251003066},
      {201.49664330633144, 0.19257142688419498},
      {204.56508399911087, 0.187869423941223},
      {208.90891384983209, 0.18264753586127999},
      {217.22803499607809, 0.17661481858508374},
      {219.59633659740209, 0.17605743560494924},
      {227.09705884570201, 0.17271524137185984},
      {231.15097221014526, 0.17178613166201365},
      {231.52380686473157, 0.16833096537864584},
      {237.01156544992355, 0.16498526170988004},
      {239.23142436564081, 0.16324498085714242},
      {247.84888601928375, 0.15966937312718946},
      {258.68025541551015, 0.15639629646907724},
      {261.47166646152289, 0.15259996346960525},
      {264.22764316864459, 0.13613644160393082},
      {277.9810088739132, 0.13375169448114221},
      {283.60450088182944, 0.13174453018217602},
      {285.93291873946163, 0.12939482469519367},
      {292.62670894776943, 0.12657794489224666},
      {293.79320850033719, 0.12510830109678076},
      {298.74399779396322, 0.12306731215047066},
      {301.38544589140054, 0.12224077779023559},
      {310.2670525128795, 0.12023436269019432},
      {317.02220093718711, 0.11744205001496305},
      {324.54615947984166, 0.11653781206094015},
      {332.81831152140387, 0.11237314168113223},
      {339.51686147548577, 0.11006232593639195},
      {347.13091997025055, 0.10910819869462612},
      {350.51637880872534, 0.1076895860707343},
      {356.27062277933595, 0.10548447964591343},
      {369.56102413918103, 0.10299111799549632},
      {374.86530981329628, 0.10017943241586305},
      {392.53090418944123, 0.099034225847404761},
      {398.47610809633255, 0.097265235486663743},
      {403.86378570385023, 0.094954854894070947},
      {411.14767785880599, 0.094791777858581089},
      {420.4138090075146, 0.091275714291240706},
      {434.49318314410181, 0.091103329845849929},
      {445.10745594467653, 0.089901345279419786},
      {458.98458539893227, 0.08730978332207584},
      {472.56050805269342, 0.086536175506774685},
      {483.17741532600871, 0.084892770845437227},
      {489.71885273256282, 0.083766620303918612},
      {506.09678944020021, 0.082230429873767844},
      {509.80040706043087, 0.08196879029018575},
      {530.60216289607172, 0.08124033724467708},
      {534.10436799268473, 0.080791559301573793},
      {556.46738815651668, 0.079225395329934611},
      {568.8577541673717, 0.078103529100215924},
      {582.5302911400571, 0.077187047432551184},
      {596.73543556975198, 0.076757026463965497},
      {604.39065518725101, 0.076001966236128385},
      {625.29940950035189, 0.074987306898463543},
      {635.80712844214429, 0.074249259425337111}};
  ASSERT_EQ(decision.pareto_front.size(), front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ(decision.pareto_front[i].mean_jct, front[i].first) << "front point " << i;
    EXPECT_EQ(decision.pareto_front[i].mean_error, front[i].second) << "front point " << i;
  }
  EXPECT_EQ(decision.chosen.mean_jct, 248.95879495987484);
  EXPECT_EQ(decision.chosen.mean_error, 0.14644907527930359);
  EXPECT_EQ(decision.nsga2_generations, 16u);
  EXPECT_EQ(decision.nsga2_evaluations, 1088u);
}

TEST(Scheduler, RejectsBadPerJobWeight) {
  auto input = make_input(5, 2, 19);
  input.jobs[2].fidelity_weight = 1.5;
  SchedulerConfig config;
  EXPECT_THROW(schedule_cycle(input, config), std::invalid_argument);
}

TEST(Scheduler, UniformPerJobWeightMatchesCycleGlobalWeight) {
  // Jobs all carrying the config default must reproduce the pre-QoS
  // decision bit for bit (the uniform fast path).
  const auto plain = make_input(30, 4, 47);
  auto tagged = plain;
  for (auto& job : tagged.jobs) job.fidelity_weight = 0.5;
  SchedulerConfig config;
  config.fidelity_weight = 0.5;
  config.nsga2.seed = 13;
  const auto a = schedule_cycle(plain, config);
  const auto b = schedule_cycle(tagged, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.chosen.mean_jct, b.chosen.mean_jct);
}

TEST(Scheduler, FiltersJobsThatFitNowhere) {
  auto input = make_input(10, 2, 17);
  input.jobs[3].qubits = 100;  // fits nothing
  SchedulerConfig config;
  const auto decision = schedule_cycle(input, config);
  EXPECT_EQ(decision.assignment[3], -1);
  EXPECT_EQ(decision.filtered_jobs, (std::vector<std::size_t>{3}));
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    if (j != 3) {
      EXPECT_GE(decision.assignment[j], 0);
    }
  }
}

TEST(Scheduler, EmptyPendingReturnsEmptyDecision) {
  SchedulingInput input;
  input.qpus = {{"a", 27, 0.0, true}};
  SchedulerConfig config;
  const auto decision = schedule_cycle(input, config);
  EXPECT_TRUE(decision.assignment.empty());
  EXPECT_TRUE(decision.pareto_front.empty());
}

TEST(Scheduler, RejectsBadWeight) {
  const auto input = make_input(5, 2, 19);
  SchedulerConfig config;
  config.fidelity_weight = 1.5;
  EXPECT_THROW(schedule_cycle(input, config), std::invalid_argument);
}

TEST(Baselines, BestFidelityConcentratesLoad) {
  const auto input = make_input(50, 4, 23);
  const auto assignment = assign_best_fidelity_fcfs(input);
  // The synthetic input makes QPU 0 the clear fidelity winner.
  std::size_t on_qpu0 = 0;
  for (int a : assignment) {
    ASSERT_GE(a, 0);
    if (a == 0) ++on_qpu0;
  }
  EXPECT_GT(on_qpu0, 40u);  // hotspot behaviour (Fig. 2c)
}

TEST(Baselines, LeastBusySpreadsLoad) {
  auto input = make_input(40, 4, 29);
  for (auto& qpu : input.qpus) qpu.queue_wait_seconds = 0.0;
  const auto assignment = assign_least_busy(input);
  std::vector<std::size_t> counts(4, 0);
  for (int a : assignment) {
    ASSERT_GE(a, 0);
    ++counts[static_cast<std::size_t>(a)];
  }
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_GT(counts[q], 3u) << "qpu " << q << " starved";
  }
}

TEST(Baselines, RandomRespectsFeasibility) {
  auto input = make_input(30, 3, 31);
  input.jobs[5].qubits = 100;
  const auto assignment = assign_random_feasible(input, 7);
  EXPECT_EQ(assignment[5], -1);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    if (j != 5) {
      EXPECT_GE(assignment[j], 0);
    }
  }
}

TEST(Trigger, FiresOnQueueThreshold) {
  ScheduleTrigger trigger(10, 120.0);
  EXPECT_FALSE(trigger.should_fire(5.0, 9));
  EXPECT_TRUE(trigger.should_fire(5.0, 10));
}

TEST(Trigger, FiresOnTimer) {
  ScheduleTrigger trigger(100, 120.0);
  EXPECT_FALSE(trigger.should_fire(119.0, 1));
  EXPECT_TRUE(trigger.should_fire(120.0, 1));
  trigger.notify_fired(120.0);
  EXPECT_FALSE(trigger.should_fire(200.0, 1));
  EXPECT_TRUE(trigger.should_fire(240.0, 1));
}

TEST(Trigger, NeverFiresOnEmptyQueue) {
  ScheduleTrigger trigger(10, 120.0);
  EXPECT_FALSE(trigger.should_fire(1000.0, 0));
}

TEST(Trigger, EmptyQueueStaysQuietEvenFarPastTheDeadline) {
  ScheduleTrigger trigger(1, 10.0);
  trigger.notify_fired(5.0);
  EXPECT_FALSE(trigger.should_fire(1e9, 0));  // nothing to schedule, no cycle
  EXPECT_TRUE(trigger.should_fire(1e9, 1));   // one job re-arms everything
}

TEST(Trigger, FiresExactlyAtTheTimerDeadline) {
  ScheduleTrigger trigger(100, 60.0);
  trigger.notify_fired(30.5);
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 90.5);
  EXPECT_FALSE(trigger.should_fire(90.499, 1));
  EXPECT_TRUE(trigger.should_fire(90.5, 1));  // >=, not >: the boundary fires
}

TEST(Trigger, ThresholdFiringResetsTheTimer) {
  ScheduleTrigger trigger(5, 60.0);
  EXPECT_TRUE(trigger.should_fire(10.0, 5));  // threshold fire, timer not due
  trigger.notify_fired(10.0);
  EXPECT_FALSE(trigger.should_fire(69.9, 1));  // timer restarted at t=10
  EXPECT_TRUE(trigger.should_fire(70.0, 1));
}

TEST(Trigger, NextTimerDeadlineTracksRepeatedCycles) {
  ScheduleTrigger trigger(10, 120.0);
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 120.0);
  trigger.notify_fired(50.0);
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 170.0);
  trigger.notify_fired(250.0);  // a late threshold fire still resets fully
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 370.0);
}

TEST(Trigger, ValidatesParameters) {
  EXPECT_THROW(ScheduleTrigger(0, 120.0), std::invalid_argument);
  EXPECT_THROW(ScheduleTrigger(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ScheduleTrigger(10, -5.0), std::invalid_argument);
}

TEST(Classical, FilterRemovesOverCommittedNodes) {
  auto nodes = make_node_pool(2, 0, 0);
  nodes[0].cores_used = 8;  // full
  ClassicalRequest req;
  req.cores = 4;
  const int pick = schedule_classical(nodes, req);
  EXPECT_EQ(pick, 1);
}

TEST(Classical, GpuRequestNeedsGpuNode) {
  const auto nodes = make_node_pool(3, 1, 0);
  const auto req = request_for_accelerator(mitigation::Accelerator::kGpu);
  const int pick = schedule_classical(nodes, req);
  ASSERT_GE(pick, 0);
  EXPECT_GT(nodes[static_cast<std::size_t>(pick)].gpus, 0);
}

TEST(Classical, NoFitReturnsMinusOne) {
  const auto nodes = make_node_pool(2, 0, 0);
  ClassicalRequest req;
  req.gpus = 1;
  EXPECT_EQ(schedule_classical(nodes, req), -1);
}

TEST(Classical, LeastAllocatedPrefersEmptierNode) {
  auto nodes = make_node_pool(2, 0, 0);
  nodes[0].cores_used = 6;
  nodes[1].cores_used = 0;
  ClassicalRequest req;
  req.cores = 1;
  req.memory_gb = 1.0;
  EXPECT_EQ(schedule_classical(nodes, req, least_allocated_score), 1);
  // Bin packing goes the other way.
  EXPECT_EQ(schedule_classical(nodes, req, most_allocated_score), 0);
}

TEST(Classical, FpgaPoolServesFpgaRequests) {
  const auto nodes = make_node_pool(1, 1, 2);
  const auto req = request_for_accelerator(mitigation::Accelerator::kFpga);
  const int pick = schedule_classical(nodes, req);
  ASSERT_GE(pick, 0);
  EXPECT_GT(nodes[static_cast<std::size_t>(pick)].fpgas, 0);
}

// Scaling property (Fig. 9c rationale): evaluation cost is O(N), so cycles
// with more QPUs but equal jobs should not blow up.
class SchedulerQpuSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerQpuSweep, HandlesClusterSize) {
  const auto input = make_input(30, GetParam(), 37);
  SchedulerConfig config;
  config.nsga2.seed = 41;
  const auto decision = schedule_cycle(input, config);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    EXPECT_GE(decision.assignment[j], 0);
    EXPECT_LT(decision.assignment[j], static_cast<int>(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, SchedulerQpuSweep, ::testing::Values(2u, 4u, 8u, 16u));

}  // namespace
}  // namespace qon::sched
