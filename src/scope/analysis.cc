#include "scope/analysis.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace stetho::scope {

using profiler::EventState;
using profiler::TraceEvent;
using profiler::TraceIndex;

std::string OperatorOf(std::string_view stmt) {
  size_t start = 0;
  size_t assign = stmt.find(":=");
  if (assign != std::string_view::npos) start = assign + 2;
  while (start < stmt.size() && stmt[start] == ' ') ++start;
  size_t paren = stmt.find('(', start);
  if (paren == std::string_view::npos) return std::string(stmt.substr(start));
  return std::string(stmt.substr(start, paren - start));
}

UtilizationReport AnalyzeThreadUtilization(const TraceIndex& trace) {
  UtilizationReport report;
  std::map<int, ThreadUtilization> threads;
  int64_t total_busy = 0;
  for (const auto& [pc, rec] : trace.pcs()) {
    if (!rec.done.seen()) continue;
    ThreadUtilization& t = threads[rec.done.slot];
    t.thread = rec.done.slot;
    t.busy_us += rec.usec;
    ++t.instructions;
    total_busy += rec.usec;
  }
  report.wall_us = trace.last_time_us() - trace.first_time_us();
  report.max_concurrency = static_cast<size_t>(trace.peak_concurrency());
  report.avg_concurrency =
      report.wall_us > 0
          ? static_cast<double>(total_busy) / static_cast<double>(report.wall_us)
          : 0.0;
  for (auto& [id, t] : threads) report.threads.push_back(t);
  return report;
}

std::string UtilizationReport::ToString() const {
  std::string out = StrFormat(
      "wall=%lldus max_concurrency=%zu avg_concurrency=%.2f\n",
      static_cast<long long>(wall_us), max_concurrency, avg_concurrency);
  for (const ThreadUtilization& t : threads) {
    double share = wall_us > 0 ? 100.0 * static_cast<double>(t.busy_us) /
                                     static_cast<double>(wall_us)
                               : 0.0;
    out += StrFormat("  thread %d: busy=%lldus (%.1f%%) instructions=%lld\n",
                     t.thread, static_cast<long long>(t.busy_us), share,
                     static_cast<long long>(t.instructions));
  }
  return out;
}

std::vector<OperatorStats> AnalyzeOperators(const TraceIndex& trace) {
  std::map<std::string, OperatorStats> by_op;
  std::map<std::string, std::vector<int64_t>> durations;
  for (const auto& [pc, rec] : trace.pcs()) {
    if (!rec.done.seen()) continue;
    std::string op = OperatorOf(rec.stmt);
    OperatorStats& stats = by_op[op];
    stats.op = op;
    ++stats.calls;
    stats.total_usec += rec.usec;
    stats.max_usec = std::max(stats.max_usec, rec.usec);
    stats.max_rss_bytes = std::max(stats.max_rss_bytes, rec.rss_bytes);
    durations[op].push_back(rec.usec);
  }
  for (auto& [op, samples] : durations) {
    std::sort(samples.begin(), samples.end());
    OperatorStats& stats = by_op[op];
    // Nearest-rank percentiles.
    stats.p50_usec = samples[(samples.size() - 1) / 2];
    stats.p95_usec = samples[(samples.size() * 95) / 100 >= samples.size()
                                 ? samples.size() - 1
                                 : (samples.size() * 95) / 100];
  }
  std::vector<OperatorStats> out;
  out.reserve(by_op.size());
  for (auto& [op, stats] : by_op) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(), [](const OperatorStats& a, const OperatorStats& b) {
    return a.total_usec > b.total_usec;
  });
  return out;
}

std::vector<CostlyCluster> FindCostlyClusters(
    const std::vector<TraceEvent>& events, int64_t min_usec,
    size_t max_gap_events) {
  std::vector<CostlyCluster> clusters;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.state != EventState::kDone || e.usec < min_usec) continue;
    if (!clusters.empty() &&
        i - clusters.back().last_event <= max_gap_events) {
      CostlyCluster& c = clusters.back();
      c.last_event = i;
      c.pcs.push_back(e.pc);
      c.total_usec += e.usec;
      continue;
    }
    CostlyCluster c;
    c.first_event = i;
    c.last_event = i;
    c.pcs.push_back(e.pc);
    c.total_usec = e.usec;
    clusters.push_back(std::move(c));
  }
  return clusters;
}

ParallelismDiagnosis DiagnoseParallelism(const TraceIndex& trace,
                                         int expected_dop) {
  UtilizationReport util = AnalyzeThreadUtilization(trace);
  ParallelismDiagnosis diag;
  diag.max_concurrency = util.max_concurrency;
  diag.avg_concurrency = util.avg_concurrency;
  diag.threads_used = static_cast<int>(util.threads.size());
  diag.expected_dop = expected_dop;
  diag.sequential_anomaly =
      expected_dop > 1 &&
      (diag.threads_used <= 1 || util.max_concurrency <= 1);
  if (diag.sequential_anomaly) {
    diag.summary = StrFormat(
        "ANOMALY: plan executed sequentially (threads=%d, peak "
        "concurrency=%zu) although dop=%d was expected",
        diag.threads_used, diag.max_concurrency, expected_dop);
  } else {
    diag.summary = StrFormat(
        "plan used %d threads, peak concurrency %zu (dop=%d)",
        diag.threads_used, diag.max_concurrency, expected_dop);
  }
  return diag;
}

}  // namespace stetho::scope
