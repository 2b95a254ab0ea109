#ifndef STETHO_SCOPE_TIMELINE_H_
#define STETHO_SCOPE_TIMELINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "profiler/event.h"
#include "profiler/trace_index.h"

namespace stetho::scope {

/// Options for the per-thread execution timeline rendering.
struct TimelineOptions {
  double width = 1200;       ///< drawing width in px (time axis)
  double row_height = 22;    ///< per-thread lane height
  double label_width = 90;   ///< left gutter for thread labels
  /// Intervals shorter than this many µs are widened to stay visible.
  int64_t min_visible_us = 0;
};

/// One executed-instruction interval recovered from the trace.
struct TimelineInterval {
  int thread = 0;
  int pc = 0;
  int64_t start_us = 0;  ///< relative to the trace start
  int64_t end_us = 0;
  std::string op;        ///< "module.function"
};

/// Extracts per-thread instruction intervals from a trace (each pc's done
/// event carries slot + duration). Returned sorted by (thread, start).
std::vector<TimelineInterval> ExtractIntervals(
    const profiler::TraceIndex& trace);

/// Renders the paper's "utilization distribution of threads" as an SVG
/// Gantt chart: one lane per worker thread, one bar per executed
/// instruction, colored by operator module, with the MAL statement as the
/// hover tooltip (<title>). Empty traces yield a small empty chart.
std::string RenderUtilizationTimeline(
    const std::vector<profiler::TraceEvent>& events,
    const TimelineOptions& options = {});

/// Renders the engine's live column memory over time (the trace's rss
/// field) as an SVG line chart — the companion view to the demo's "memory
/// usage by operators" analysis. Peak is annotated.
std::string RenderMemoryCurve(const std::vector<profiler::TraceEvent>& events,
                              const TimelineOptions& options = {});

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_TIMELINE_H_
