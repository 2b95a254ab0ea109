#ifndef STETHO_SCOPE_ANALYSIS_H_
#define STETHO_SCOPE_ANALYSIS_H_

#include <string>
#include <string_view>
#include <vector>

#include "profiler/event.h"
#include "profiler/trace_index.h"

namespace stetho::scope {

// The analyses below read each pc's first start/done pair from a
// profiler::TraceIndex, the one offline view of a recorded trace.

/// Extracts "module.function" from a rendered MAL statement.
std::string OperatorOf(std::string_view stmt);

/// --- Multi-core utilization (paper §5: "utilization distribution of
/// threads", "Multi-core utilization analysis exhibits degree of
/// multi-threaded parallelization") ---

struct ThreadUtilization {
  int thread = 0;
  int64_t busy_us = 0;        ///< sum of instruction durations on this thread
  int64_t instructions = 0;   ///< completed instructions
};

struct UtilizationReport {
  int64_t wall_us = 0;  ///< first → last event timestamp
  std::vector<ThreadUtilization> threads;
  /// Peak simultaneously-running instructions
  /// (profiler::TraceIndex::peak_concurrency).
  size_t max_concurrency = 0;
  double avg_concurrency = 0;   ///< total busy / wall

  /// Human-readable distribution table.
  std::string ToString() const;
};

UtilizationReport AnalyzeThreadUtilization(const profiler::TraceIndex& trace);

/// --- Memory usage by operators (paper §5: "memory usage by operators") ---

struct OperatorStats {
  std::string op;        ///< "module.function"
  int64_t calls = 0;
  int64_t total_usec = 0;
  int64_t max_usec = 0;
  int64_t p50_usec = 0;  ///< median call duration
  int64_t p95_usec = 0;  ///< 95th-percentile call duration
  int64_t max_rss_bytes = 0;  ///< peak engine memory observed at this op
};

/// Aggregates completed instructions by operator, sorted by total time
/// (descending).
std::vector<OperatorStats> AnalyzeOperators(const profiler::TraceIndex& trace);

/// --- Costly-instruction clustering (paper §5: "costly instruction
/// clustering", "sequence of instruction execution clustering") ---

struct CostlyCluster {
  size_t first_event = 0;   ///< index into the event vector
  size_t last_event = 0;
  std::vector<int> pcs;     ///< costly instructions in the cluster
  int64_t total_usec = 0;
};

/// Groups costly done events (usec >= min_usec) that are within
/// `max_gap_events` trace positions of each other.
std::vector<CostlyCluster> FindCostlyClusters(
    const std::vector<profiler::TraceEvent>& events, int64_t min_usec,
    size_t max_gap_events = 8);

/// --- Parallelism diagnosis (paper §5: "we have uncovered several unusual
/// cases, such as sequential execution of a MAL plan where multithreaded
/// execution was expected") ---

struct ParallelismDiagnosis {
  size_t max_concurrency = 0;
  double avg_concurrency = 0;
  int threads_used = 0;
  int expected_dop = 0;
  bool sequential_anomaly = false;
  std::string summary;
};

ParallelismDiagnosis DiagnoseParallelism(const profiler::TraceIndex& trace,
                                         int expected_dop);

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_ANALYSIS_H_
