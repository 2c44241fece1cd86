#pragma once
// Run-lifecycle tracing — the first pillar of the telemetry subsystem.
//
// Every run carries a TraceContext (a shared_ptr to its RunTraceBuffer) on
// its run record (api::RunState::trace) and on each parked
// PendingQuantumTask; a null context means tracing is off and every record
// call is skipped at the call site. Spans stamp BOTH clocks — the fleet
// virtual clock (simulated seconds) and a steady wall clock (µs since the
// tracer's construction) — so a reader can answer "where did run 4711's
// 90 ms go?" in either domain.
//
// Writer model: a span is recorded either by the engine worker currently
// driving the run (one event per run is in flight at a time) or by the
// scheduler thread BEFORE it settles the run's parked task — the
// settlement happens-before edge then orders those writes against the
// resume step's. The per-buffer mutex therefore mostly guards writers
// against concurrent READERS (getRunTrace, the export sink); the one
// genuine writer/writer window — a parking step's trailing engine_step
// span racing the resume on another worker — interleaves safely under it.
//
// Each buffer is a bounded ring: a run recording more spans than the ring
// holds drops the oldest and counts them, so a pathological run cannot grow
// memory without bound. The tracer keeps no run index of its own: a trace
// lives exactly as long as its run record, so getRunTrace answers for the
// same runs getRun does (the run table's retention policy decides both).

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "api/types.hpp"
#include "common/thread_safety.hpp"

namespace qon::obs {

class Counter;

/// The bounded span ring of one run.
class RunTraceBuffer {
 public:
  /// `drop_counter`, when set, counts spans evicted from the full ring
  /// (no-silent-caps: qon_trace_spans_dropped_total in the registry).
  explicit RunTraceBuffer(std::size_t capacity, Counter* drop_counter = nullptr);

  /// Appends a span, dropping the oldest once `capacity` is exceeded.
  void record(api::TraceSpan span);

  /// The retained spans of run `run` in record order, plus the drop
  /// accounting. The buffer does not know its run; the caller passes the
  /// id from the run record.
  api::RunTrace snapshot(api::RunId run) const;

 private:
  const std::size_t capacity_;
  Counter* const drop_counter_;  ///< null = uncounted (standalone buffers)
  mutable Mutex mutex_{LockRank::kTraceBuffer, "RunTraceBuffer::mutex_"};
  /// Ring storage: `next_` is the oldest slot once the ring has wrapped.
  std::vector<api::TraceSpan> ring_ GUARDED_BY(mutex_);
  std::size_t next_ GUARDED_BY(mutex_) = 0;
  std::uint64_t recorded_ GUARDED_BY(mutex_) = 0;
};

/// Carried on api::RunState / PendingQuantumTask; null = tracing off.
using TraceContext = std::shared_ptr<RunTraceBuffer>;

/// Invoked with a finished run's trace at settle time (outside all locks).
using TraceSink = std::function<void(const api::RunTrace&)>;

/// Creates trace buffers and stamps spans; holds no per-run state.
class Tracer {
 public:
  /// Span-ring capacity of every buffer start() creates; older spans drop
  /// once a run records more.
  static constexpr std::size_t kSpansPerRun = 128;

  /// `sink`, when set, receives each finished run's trace from finalize().
  /// `span_drop_counter`, when set, counts ring-evicted spans across every
  /// buffer this tracer creates.
  explicit Tracer(TraceSink sink = nullptr, Counter* span_drop_counter = nullptr);

  /// A fresh buffer for one run. The caller stores it on the run record,
  /// which is its only owner besides in-flight recorders.
  TraceContext start() const;

  /// Feeds run `run`'s finished trace to the sink (if configured).
  void finalize(api::RunId run, const TraceContext& trace) const;

  /// Wall clock in µs since this tracer was constructed (steady).
  double wall_now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// A point span (start == end on both clocks) stamped `virtual_now` /
  /// wall-now. Convenience for the lifecycle-edge call sites.
  api::TraceSpan point(const char* name, double virtual_now,
                       std::string detail = "") const;
  /// A closed span: [virtual_start, virtual_end] × [wall_start_us, wall-now].
  api::TraceSpan span(const char* name, double virtual_start, double virtual_end,
                      double wall_start_us, std::string detail = "") const;

 private:
  const TraceSink sink_;
  Counter* const span_drop_counter_;
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace qon::obs
