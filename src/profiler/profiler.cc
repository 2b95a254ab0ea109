#include "profiler/profiler.h"

#include "obs/metrics.h"

namespace stetho::profiler {
namespace {

// Process-wide mirrors of the per-instance emitted/filtered stats, so the
// metrics exposition shows profiler throughput without a Profiler* in hand.
obs::Counter* EmittedCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_profiler_events_emitted_total",
      "Profiler events delivered to sinks (post-filter)");
  return counter;
}

obs::Counter* FilteredCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_profiler_events_filtered_total",
      "Profiler events suppressed by the active filter");
  return counter;
}

}  // namespace

std::shared_ptr<const Profiler::Dispatch> Profiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_;
}

void Profiler::AddSink(std::shared_ptr<EventSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Dispatch>(*dispatch_);
  next->sinks.push_back(std::move(sink));
  dispatch_ = std::move(next);
}

void Profiler::ClearSinks() {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Dispatch>(*dispatch_);
  next->sinks.clear();
  dispatch_ = std::move(next);
}

size_t Profiler::num_sinks() const { return Snapshot()->sinks.size(); }

void Profiler::SetFilter(EventFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Dispatch>(*dispatch_);
  next->filter = std::move(filter);
  dispatch_ = std::move(next);
}

EventFilter Profiler::GetFilter() const { return Snapshot()->filter; }

/// Hot path shared by Emit/EmitStart/EmitDone. `event.stmt` is empty on
/// entry; `stmt` carries the statement text by view and is copied into the
/// event only once it is known to be delivered.
void Profiler::EmitImpl(TraceEvent& event, std::string_view stmt) {
  // Grab the current dispatch snapshot (one shared_ptr copy under the lock).
  std::shared_ptr<const Dispatch> dispatch = Snapshot();
  // The filter runs BEFORE stamping: delivered events carry a contiguous
  // sequence (any hole a receiver observes is transport loss — the
  // net::StreamHealth contract), so suppressed events must not consume
  // sequence numbers. The filter reads none of the stamped fields.
  if (!dispatch->filter.Matches(event, stmt)) {
    filtered_.fetch_add(1, std::memory_order_relaxed);
    FilteredCounter()->Increment();
    return;
  }
  // Copy the statement text before taking the stamp lock: the critical
  // section below is what serializes worker threads against each other.
  event.stmt.assign(stmt.data(), stmt.size());
  {
    // Stamp sequence number and timestamp together and fan out before
    // releasing the lock: the trace contract (analysis' trace-conformance
    // check) demands timestamps be monotone in event order, and every sink
    // must see events in that order. A worker preempted between stamping and
    // delivery would otherwise hand its event to the sinks after a later one.
    std::lock_guard<std::mutex> lock(stamp_mu_);
    event.event = next_event_.fetch_add(1, std::memory_order_relaxed);
    event.time_us = clock_->NowMicros();
    for (const auto& sink : dispatch->sinks) sink->Consume(event);
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);
  EmittedCounter()->Increment();
}

void Profiler::Emit(TraceEvent event) {
  if (!enabled()) return;
  std::string stmt = std::move(event.stmt);
  event.stmt.clear();
  EmitImpl(event, stmt);
}

void Profiler::EmitStart(int pc, int thread, int64_t rss_bytes,
                         std::string_view stmt) {
  if (!enabled()) return;
  TraceEvent e;
  e.pc = pc;
  e.thread = thread;
  e.state = EventState::kStart;
  e.usec = 0;
  e.rss_bytes = rss_bytes;
  EmitImpl(e, stmt);
}

void Profiler::EmitDone(int pc, int thread, int64_t usec, int64_t rss_bytes,
                        std::string_view stmt) {
  if (!enabled()) return;
  TraceEvent e;
  e.pc = pc;
  e.thread = thread;
  e.state = EventState::kDone;
  e.usec = usec;
  e.rss_bytes = rss_bytes;
  EmitImpl(e, stmt);
}

}  // namespace stetho::profiler
