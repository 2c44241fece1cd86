#pragma once
// Shared pieces of the serving-stack benchmark: clocks, sample statistics,
// the benchmark's own span recorder, the per-run output checks, the
// determinism digest and the metric table every workload prints.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/client.hpp"

namespace perfbench {

/// The seed a run uses when --seed is omitted, and the seed kept out of
/// every tuning run so a claimed gain can be re-checked on inputs its
/// author never saw.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 90210;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

// -- clocks --------------------------------------------------------------------
/// Wall microseconds on the steady clock since the benchmark started.
double now_us();
double thread_cpu_seconds();
double process_cpu_seconds();
double peak_rss_mb();

/// Wall µs elapsed since `start_us`.
inline double since_us(double start_us) { return now_us() - start_us; }

// -- sample statistics ---------------------------------------------------------
/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);
/// Median over consecutive windows of `window` samples of each window's
/// q-quantile (a trailing partial window is dropped unless it is the only
/// one). Robust to host stalls that hit a minority of windows.
double windowed_quantile(const std::vector<double>& values, std::size_t window, double q);
/// Samples per window for windowed_quantile: a p99 then has ten samples
/// beyond it in every window.
inline constexpr std::size_t kLatencyWindow = 1000;
/// Timed wall of the extra set-ups per run beside the measured ones, so
/// setup_s is a median over enough samples to be steady.
inline constexpr double kSetupBudgetS = 0.5;

// -- the benchmark's own spans -------------------------------------------------
/// Spans the benchmark records around each public call it makes, kept in
/// memory and written out once at the end. Disabled outside traced runs,
/// where begin()/end() cost one branch.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::uint32_t parent;  ///< index + 1 of the enclosing span; 0 = root
    std::uint64_t run;     ///< run id the call concerns; 0 = none
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t run = 0, std::uint32_t parent = 0);
  void end(std::uint32_t handle, std::uint64_t run = 0);

  std::size_t size() const { return spans_.size(); }
  void clear() { spans_.clear(); }
  /// Writes one JSON object per span; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// -- per-run outcome records and the output checks -----------------------------
struct RunRecord {
  qon::api::RunId id = 0;
  qon::api::Priority priority = qon::api::Priority::kStandard;
  qon::api::RunStatus status = qon::api::RunStatus::kPending;
  double submitted_at = 0.0;
  double finished_at = 0.0;
  double min_fidelity = 0.0;
  std::size_t task_count = 0;
  int qpu = -1;  ///< fleet index of the task's resource; -1 = none / unknown
  double start = 0.0;
  double end = 0.0;
  double fidelity = 0.0;
};

/// Collects check failures; any failure makes the run incorrect.
class Checker {
 public:
  void fail(const std::string& what);
  void expect(bool condition, const std::string& what) {
    if (!condition) fail(what);
  }
  bool ok() const { return failures_ == 0; }
  std::size_t failures() const { return failures_; }

 private:
  std::size_t failures_ = 0;
};

/// Builds the record of a settled run from its handle and a getRun query,
/// timing the query into `query_us`. `qpu_names` is the fleet, in index
/// order.
RunRecord settle_record(qon::api::QonductorClient& client, const qon::api::RunHandle& handle,
                        const std::vector<std::string>& qpu_names, std::vector<double>& query_us,
                        Checker& checker);

/// The per-run checks: completed runs finish at or after submission, every
/// task starts at or after its run's submission and ends after it starts,
/// fidelities lie in [0,1], resources name fleet QPUs, no two tasks overlap
/// on one QPU, and no run id settles twice.
void check_runs(const std::vector<RunRecord>& runs, std::size_t num_qpus, Checker& checker);

/// After drain: the pending queue and the capacity waitlist are empty and
/// getHealth reports healthy.
void check_drained(qon::api::QonductorClient& client, Checker& checker);

/// FNV-1a over each run's (id, status, QPU, start, end, fidelity), in the
/// order given.
std::uint64_t run_digest(const std::vector<RunRecord>& runs);

/// Virtual-clock outcomes of one set of runs.
struct VirtualOutcome {
  double jct_p50_s = 0.0;
  double jct_p99_s = 0.0;
  double interactive_jct_p99_s = 0.0;
  double fidelity_mean = 0.0;
  double qpu_utilization = 0.0;
  std::size_t completed = 0;
};
VirtualOutcome virtual_outcome(const std::vector<RunRecord>& runs, std::size_t num_qpus);

// -- registry reads ------------------------------------------------------------
double metric_value(const qon::api::MetricsSnapshot& snapshot, const std::string& name,
                    const std::string& labels = "");
double histogram_sum(const qon::api::MetricsSnapshot& snapshot, const std::string& name);

// -- self times from the program's own run traces ------------------------------
/// Wall-time totals over the getRunTrace spans of settled runs.
struct TraceTotals {
  std::size_t runs = 0;
  double engine_step_self_us = 0.0;  ///< engine_step minus the qpu_exec it covers
  std::vector<double> submit_to_park_us;
  std::vector<double> queue_wait_wall_us;
};
void add_trace(const qon::api::RunTrace& trace, TraceTotals& totals);

// -- the printed result --------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the metric table, then the one-line JSON result as the last
/// line of stdout.
void print_result(const std::vector<Metric>& metrics, bool correct, std::uint64_t attempted,
                  std::uint64_t failed);

}  // namespace perfbench
