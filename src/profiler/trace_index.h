#ifndef STETHO_PROFILER_TRACE_INDEX_H_
#define STETHO_PROFILER_TRACE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "profiler/event.h"

namespace stetho::profiler {

/// One side of a pc's first start/done pair.
struct PairEnd {
  int64_t pos = -1;     ///< position in emission order; -1 = never seen
  int64_t time_us = 0;
  int slot = 0;         ///< query-local admission slot (TraceEvent::thread)

  bool seen() const { return pos >= 0; }
};

/// What a recorded trace says about one pc. Every batch analysis models
/// the FIRST start and the FIRST done (in emission order); the counts let
/// the conformance checks flag the surplus.
struct PcRecord {
  int starts = 0;
  int dones = 0;
  PairEnd start;
  PairEnd done;
  int64_t usec = 0;        ///< first done's reported duration
  int64_t rss_bytes = 0;   ///< first done's engine live bytes
  std::string_view stmt;   ///< first non-empty statement text
  /// A done event arrived before any start of this pc (or with none).
  bool done_before_start = false;
};

/// The shared offline view of one recorded trace: events in emission order
/// (the profiler's global `event` sequence number, restored after any
/// transport or sink reordering) and one PcRecord per pc >= 0. Built once
/// per trace and read by every batch consumer — the lint checks, the
/// happens-before replay, trace diffing, and the scope analyses — so none
/// of them pairs events on its own.
///
/// The index borrows the events: they must outlive it and stay unmodified.
class TraceIndex {
 public:
  explicit TraceIndex(const std::vector<TraceEvent>& events);
  TraceIndex(std::vector<TraceEvent>&&) = delete;  // would dangle

  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  /// The event at emission-order position `pos`. The order is stable:
  /// events sharing a sequence number keep their recorded order.
  const TraceEvent& at(size_t pos) const { return (*events_)[order_[pos]]; }

  /// Per-pc records in ascending pc order. Negative pcs are excluded.
  const std::map<int, PcRecord>& pcs() const { return pcs_; }
  /// nullptr when the trace has no event for `pc`.
  const PcRecord* Find(int pc) const;

  /// Earliest and latest timestamp over all events (0 when empty).
  int64_t first_time_us() const { return first_time_us_; }
  int64_t last_time_us() const { return last_time_us_; }

  /// The most pcs simultaneously between their first start and first done
  /// in emission order. Emission order has no ties; a done emitted before
  /// the next start does not overlap it.
  int peak_concurrency() const { return peak_concurrency_; }

 private:
  const std::vector<TraceEvent>* events_;
  std::vector<size_t> order_;  ///< indices into *events_, emission order
  std::map<int, PcRecord> pcs_;
  int64_t first_time_us_ = 0;
  int64_t last_time_us_ = 0;
  int peak_concurrency_ = 0;
};

}  // namespace stetho::profiler

#endif  // STETHO_PROFILER_TRACE_INDEX_H_
