#include "obs/trace.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace qon::obs {

RunTraceBuffer::RunTraceBuffer(std::size_t capacity, Counter* drop_counter)
    : capacity_(std::max<std::size_t>(1, capacity)),
      drop_counter_(drop_counter) {}

void RunTraceBuffer::record(api::TraceSpan span) {
  MutexLock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    // Wrapped: overwrite the oldest slot and advance the ring head.
    ring_[next_] = std::move(span);
    next_ = (next_ + 1) % capacity_;
    if (drop_counter_ != nullptr) drop_counter_->inc();
  }
  ++recorded_;
}

api::RunTrace RunTraceBuffer::snapshot(api::RunId run) const {
  api::RunTrace out;
  out.run = run;
  MutexLock lock(mutex_);
  out.recorded = recorded_;
  out.dropped = recorded_ - ring_.size();
  out.spans.reserve(ring_.size());
  // Oldest-first: from the ring head around; before wrap, next_ is 0 and
  // this is a plain copy.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.spans.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

Tracer::Tracer(TraceSink sink, Counter* span_drop_counter)
    : sink_(std::move(sink)),
      span_drop_counter_(span_drop_counter),
      epoch_(std::chrono::steady_clock::now()) {}

TraceContext Tracer::start() const {
  return std::make_shared<RunTraceBuffer>(kSpansPerRun, span_drop_counter_);
}

void Tracer::finalize(api::RunId run, const TraceContext& trace) const {
  if (sink_ && trace) sink_(trace->snapshot(run));
}

api::TraceSpan Tracer::point(const char* name, double virtual_now,
                             std::string detail) const {
  api::TraceSpan span;
  span.name = name;
  span.detail = std::move(detail);
  span.virtual_start = virtual_now;
  span.virtual_end = virtual_now;
  span.wall_start_us = wall_now_us();
  span.wall_end_us = span.wall_start_us;
  return span;
}

api::TraceSpan Tracer::span(const char* name, double virtual_start, double virtual_end,
                            double wall_start_us, std::string detail) const {
  api::TraceSpan span;
  span.name = name;
  span.detail = std::move(detail);
  span.virtual_start = virtual_start;
  span.virtual_end = virtual_end;
  span.wall_start_us = wall_start_us;
  span.wall_end_us = wall_now_us();
  return span;
}

}  // namespace qon::obs
