#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <thread>
#include <unordered_set>

#include "obs/delta.hpp"

namespace perfbench {

namespace api = qon::api;

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Shortest round-trip decimal form of a double; JSON has no NaN/inf, so
/// those print as null (the run is then malformed, which the reader sees).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double windowed_quantile(const std::vector<double>& values, std::size_t window, double q) {
  if (values.size() <= window) return quantile(values, q);
  std::vector<double> per_window;
  for (std::size_t begin = 0; begin + window <= values.size(); begin += window) {
    per_window.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(begin + window)),
        q));
  }
  return median(std::move(per_window));
}

// -- SpanRecorder --------------------------------------------------------------

std::uint32_t SpanRecorder::begin(const char* name, std::uint64_t run, std::uint32_t parent) {
  if (!enabled_) return 0;
  const double t = now_us();
  spans_.push_back({name, t, t, parent, run});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanRecorder::end(std::uint32_t handle, std::uint64_t run) {
  if (!enabled_ || handle == 0) return;
  Span& span = spans_[handle - 1];
  span.end_us = now_us();
  if (run != 0) span.run = run;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%u,\"run\":%llu}\n",
                 i + 1, s.name, s.start_us, s.end_us, s.parent,
                 static_cast<unsigned long long>(s.run));
  }
  return std::fclose(out) == 0;
}

// -- checks --------------------------------------------------------------------

void Checker::fail(const std::string& what) {
  // Report the first few failures in full; a systematic defect would
  // otherwise print one line per run.
  if (failures_ < 20) std::cout << "CHECK FAILED: " << what << "\n";
  ++failures_;
}

RunRecord settle_record(api::QonductorClient& client, const api::RunHandle& handle,
                        const std::vector<std::string>& qpu_names, std::vector<double>& query_us,
                        Checker& checker) {
  RunRecord rec;
  rec.id = handle.id();
  handle.wait();
  const double q0 = now_us();
  const api::Result<api::RunInfo> info = client.getRun(handle.id());
  query_us.push_back(since_us(q0));
  if (!info.ok()) {
    checker.fail("getRun(" + std::to_string(rec.id) + "): " + info.status().to_string());
    return rec;
  }
  rec.priority = info->preferences.priority;
  rec.status = info->status;
  rec.submitted_at = info->submitted_at;
  rec.finished_at = info->finished_at;
  const api::Result<api::WorkflowResult> result = handle.result();
  if (!result.ok() && rec.status == api::RunStatus::kCompleted) {
    checker.fail("result(" + std::to_string(rec.id) + "): " + result.status().to_string());
    return rec;
  }
  if (result.ok()) {
    rec.min_fidelity = result->min_fidelity;
    rec.task_count = result->tasks.size();
    if (!result->tasks.empty()) {
      const api::TaskResult& task = result->tasks.front();
      const auto it = std::find(qpu_names.begin(), qpu_names.end(), task.resource);
      rec.qpu = it == qpu_names.end() ? -1 : static_cast<int>(it - qpu_names.begin());
      rec.start = task.start;
      rec.end = task.end;
      rec.fidelity = task.fidelity;
      if (rec.qpu < 0) {
        checker.fail("run " + std::to_string(rec.id) + ": resource '" + task.resource +
                     "' is not a fleet QPU");
      }
    }
  }
  return rec;
}

void check_runs(const std::vector<RunRecord>& runs, std::size_t num_qpus, Checker& checker) {
  std::unordered_set<api::RunId> seen;
  seen.reserve(runs.size() * 2);
  std::vector<std::vector<std::pair<double, double>>> busy(num_qpus);
  for (const RunRecord& r : runs) {
    const auto id = [&r] { return "run " + std::to_string(r.id); };
    if (!seen.insert(r.id).second) checker.fail(id() + " settled more than once");
    const bool terminal = r.status == api::RunStatus::kCompleted ||
                          r.status == api::RunStatus::kFailed ||
                          r.status == api::RunStatus::kCancelled;
    if (!terminal) checker.fail(id() + " is not terminal after wait()");
    if (r.status == api::RunStatus::kCompleted) {
      if (r.finished_at < r.submitted_at) {
        checker.fail(id() + ": finished_at " + std::to_string(r.finished_at) +
                     " < submitted_at " + std::to_string(r.submitted_at));
      }
      if (r.task_count != 1) {
        checker.fail(id() + ": completed with " + std::to_string(r.task_count) + " tasks");
      }
    }
    if (r.task_count == 0) continue;
    if (r.start < r.submitted_at) {
      checker.fail(id() + ": task starts at " + std::to_string(r.start) +
                   " before the run was submitted at " + std::to_string(r.submitted_at));
    }
    if (!(r.end > r.start)) {
      checker.fail(id() + ": task end " + std::to_string(r.end) + " <= start " +
                   std::to_string(r.start));
    }
    if (!(r.fidelity >= 0.0 && r.fidelity <= 1.0)) {
      checker.fail(id() + ": fidelity " + std::to_string(r.fidelity) + " outside [0,1]");
    }
    if (r.qpu >= 0 && static_cast<std::size_t>(r.qpu) < num_qpus) {
      busy[static_cast<std::size_t>(r.qpu)].emplace_back(r.start, r.end);
    }
  }
  for (std::size_t q = 0; q < busy.size(); ++q) {
    std::vector<std::pair<double, double>>& intervals = busy[q];
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      // Tolerance for back-to-back tasks whose boundary is a float sum.
      if (intervals[i].first >= intervals[i - 1].second - 1e-9) continue;
      checker.fail("QPU " + std::to_string(q) + ": task [" + std::to_string(intervals[i].first) +
                   ", " + std::to_string(intervals[i].second) + ") overlaps [" +
                   std::to_string(intervals[i - 1].first) + ", " +
                   std::to_string(intervals[i - 1].second) + ")");
    }
  }
}

void check_drained(api::QonductorClient& client, Checker& checker) {
  const auto sched = client.getSchedulerStats();
  if (sched.ok()) {
    checker.expect(sched->stats.queue_depth == 0,
                   "pending queue holds " + std::to_string(sched->stats.queue_depth) +
                       " jobs after drain");
  } else {
    checker.fail("getSchedulerStats: " + sched.status().to_string());
  }
  // wait() returns once a run's status is terminal; the engine worker
  // drops its live count just after. Drain ends when that count reaches 0,
  // which must happen within a bounded time.
  auto admission = client.getAdmissionStats();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (admission.ok() && admission->stats.live_runs != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    admission = client.getAdmissionStats();
  }
  if (admission.ok()) {
    checker.expect(admission->stats.waitlist_depth == 0,
                   "capacity waitlist holds " + std::to_string(admission->stats.waitlist_depth) +
                       " jobs after drain");
    checker.expect(admission->stats.live_runs == 0,
                   std::to_string(admission->stats.live_runs) + " runs still live after drain");
  } else {
    checker.fail("getAdmissionStats: " + admission.status().to_string());
  }
  const auto health = client.getHealth();
  if (!health.ok()) {
    checker.fail("getHealth: " + health.status().to_string());
    return;
  }
  if (health->status != api::HealthStatus::kHealthy) {
    std::string detail;
    for (const api::ComponentHealth& c : health->components) {
      if (c.status != api::HealthStatus::kHealthy) detail += " " + c.component + ": " + c.detail;
    }
    checker.fail(std::string("getHealth reports ") + api::health_status_name(health->status) +
                 " after drain:" + detail);
  }
}

std::uint64_t run_digest(const std::vector<RunRecord>& runs) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  for (const RunRecord& r : runs) {
    const auto status = static_cast<std::int32_t>(r.status);
    mix(&r.id, sizeof r.id);
    mix(&status, sizeof status);
    mix(&r.qpu, sizeof r.qpu);
    mix(&r.start, sizeof r.start);
    mix(&r.end, sizeof r.end);
    mix(&r.fidelity, sizeof r.fidelity);
  }
  return hash;
}

VirtualOutcome virtual_outcome(const std::vector<RunRecord>& runs, std::size_t num_qpus) {
  VirtualOutcome out;
  std::vector<double> jct;
  std::vector<double> interactive;
  double fidelity_sum = 0.0;
  double busy = 0.0;
  double span_start = 0.0;
  double span_end = 0.0;
  bool any = false;
  for (const RunRecord& r : runs) {
    if (r.status != api::RunStatus::kCompleted) continue;
    const double latency = r.finished_at - r.submitted_at;
    jct.push_back(latency);
    if (r.priority == api::Priority::kInteractive) interactive.push_back(latency);
    fidelity_sum += r.min_fidelity;
    busy += r.end - r.start;
    span_start = any ? std::min(span_start, r.submitted_at) : r.submitted_at;
    span_end = any ? std::max(span_end, r.end) : r.end;
    any = true;
  }
  out.completed = jct.size();
  if (jct.empty()) return out;
  out.jct_p50_s = quantile(jct, 0.50);
  out.jct_p99_s = quantile(jct, 0.99);
  out.interactive_jct_p99_s = quantile(interactive, 0.99);
  out.fidelity_mean = fidelity_sum / static_cast<double>(jct.size());
  const double span = span_end - span_start;
  out.qpu_utilization = span > 0.0 ? busy / (static_cast<double>(num_qpus) * span) : 0.0;
  return out;
}

// -- registry reads ------------------------------------------------------------

double metric_value(const api::MetricsSnapshot& snapshot, const std::string& name,
                    const std::string& labels) {
  const api::MetricValue* metric = qon::obs::find_metric(snapshot, name, labels);
  return metric ? metric->value : 0.0;
}

double histogram_sum(const api::MetricsSnapshot& snapshot, const std::string& name) {
  double sum = 0.0;
  for (const api::MetricValue& m : snapshot.metrics) {
    if (m.name == name) sum += m.sum;
  }
  return sum;
}

// -- run-trace self times ------------------------------------------------------

void add_trace(const api::RunTrace& trace, TraceTotals& totals) {
  ++totals.runs;
  double submit_us = -1.0;
  double park_us = -1.0;
  std::vector<std::pair<double, double>> exec;
  for (const api::TraceSpan& s : trace.spans) {
    if (s.name == "qpu_exec") exec.emplace_back(s.wall_start_us, s.wall_end_us);
  }
  for (const api::TraceSpan& s : trace.spans) {
    if (s.name == "submit") submit_us = s.wall_start_us;
    if (s.name == "park") park_us = s.wall_start_us;
    if (s.name == "queue_wait") totals.queue_wait_wall_us.push_back(s.wall_end_us - s.wall_start_us);
    if (s.name == "engine_step") {
      // Self time: the step's duration minus the part its qpu_exec children
      // cover.
      double covered = 0.0;
      for (const auto& [start, end] : exec) {
        covered += std::max(0.0, std::min(end, s.wall_end_us) - std::max(start, s.wall_start_us));
      }
      totals.engine_step_self_us += (s.wall_end_us - s.wall_start_us) - covered;
    }
  }
  if (submit_us >= 0.0 && park_us >= submit_us) totals.submit_to_park_us.push_back(park_us - submit_us);
}

// -- output --------------------------------------------------------------------

void print_result(const std::vector<Metric>& metrics, bool correct, std::uint64_t attempted,
                  std::uint64_t failed) {
  std::printf("%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
