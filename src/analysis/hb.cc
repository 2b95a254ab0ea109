#include "analysis/hb.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace stetho::analysis {
namespace {

using profiler::EventState;
using profiler::TraceEvent;
using profiler::TraceIndex;

struct HbMetrics {
  obs::Counter* replays;
  obs::Counter* events;
  obs::Counter* violations;
  obs::Gauge* critical_path_usec;
  obs::Gauge* makespan_usec;
  obs::Gauge* slack_usec;
};

/// Resolved once; the registry returns stable pointers for the process
/// lifetime. Plain counters/gauges stay live even with obs disabled — they
/// cost one relaxed store and never read the clock.
const HbMetrics& Metrics() {
  static const HbMetrics m = [] {
    obs::Registry* r = obs::Registry::Default();
    HbMetrics out;
    out.replays = r->GetOrCreateCounter(
        "stetho_hb_replays_total",
        "Happens-before schedule replays (AnalyzeSchedule calls)");
    out.events = r->GetOrCreateCounter(
        "stetho_hb_events_replayed_total",
        "Trace events replayed through the happens-before vector clocks");
    out.violations = r->GetOrCreateCounter(
        "stetho_hb_violations_total",
        "Dependency edges the observed schedule violated");
    out.critical_path_usec = r->GetOrCreateGauge(
        "stetho_hb_critical_path_usec",
        "Critical path of the last replayed schedule, observed-duration "
        "weighted, microseconds");
    out.makespan_usec = r->GetOrCreateGauge(
        "stetho_hb_makespan_usec",
        "Makespan (last done - first start) of the last replayed schedule, "
        "microseconds");
    out.slack_usec = r->GetOrCreateGauge(
        "stetho_hb_slack_usec",
        "Makespan minus critical path of the last replayed schedule, "
        "microseconds");
    return out;
  }();
  return m;
}

/// Longest-path layering of the dependency DAG; returns the size of the
/// largest layer. Only well-ordered edges (producer pc < consumer pc) are
/// followed so malformed plans cannot cycle.
int PlanWidth(const std::vector<std::vector<int>>& deps) {
  std::vector<int> level(deps.size(), 0);
  std::map<int, int> layer_sizes;
  int width = deps.empty() ? 0 : 1;
  for (size_t pc = 0; pc < deps.size(); ++pc) {
    int lvl = 0;
    for (int q : deps[pc]) {
      if (q >= 0 && static_cast<size_t>(q) < pc) {
        lvl = std::max(lvl, level[static_cast<size_t>(q)] + 1);
      }
    }
    level[pc] = lvl;
    width = std::max(width, ++layer_sizes[lvl]);
  }
  return width;
}

}  // namespace

void VectorClock::Join(const VectorClock& other) {
  if (other.ticks_.size() > ticks_.size()) {
    ticks_.resize(other.ticks_.size(), 0);
  }
  for (size_t t = 0; t < other.ticks_.size(); ++t) {
    ticks_[t] = std::max(ticks_[t], other.ticks_[t]);
  }
}

bool VectorClock::LessEq(const VectorClock& other) const {
  for (size_t t = 0; t < ticks_.size(); ++t) {
    if (ticks_[t] > other.tick(t)) return false;
  }
  return true;
}

bool HappensBefore(const PcExecution& a, const PcExecution& b) {
  if (!a.completed() || !b.started()) return false;
  return a.done_vc.LessEq(b.start_vc);
}

ScheduleReport AnalyzeSchedule(const mal::Program& program,
                               const TraceIndex& trace) {
  ScheduleReport report;
  report.executions.resize(program.size());
  for (size_t pc = 0; pc < program.size(); ++pc) {
    report.executions[pc].pc = static_cast<int>(pc);
  }

  std::vector<std::vector<int>> deps = program.BuildDependencies();
  size_t dep_edges = 0;
  for (const std::vector<int>& d : deps) dep_edges += d.size();
  report.avg_indegree =
      program.size() == 0
          ? 0.0
          : static_cast<double>(dep_edges) / static_cast<double>(program.size());
  report.plan_width = PlanWidth(deps);
  report.events = static_cast<int64_t>(trace.size());
  report.max_observed_concurrency = trace.peak_concurrency();

  // Dense thread index space for the vector clocks.
  std::map<int, size_t> thread_index;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (thread_index.emplace(trace.at(i).thread, thread_index.size()).second) {
      report.threads.push_back(trace.at(i).thread);
    }
  }
  size_t num_threads = thread_index.size();

  // Replay: per-thread clocks advance on every event; a start joins the done
  // clocks of the producers the schedule actually respected. Only each pc's
  // first start and first done take part; the surplus is reported below.
  std::vector<VectorClock> thread_clock(num_threads,
                                        VectorClock(num_threads));
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace.at(i);
    if (e.pc < 0 || static_cast<size_t>(e.pc) >= program.size()) continue;
    const profiler::PcRecord& rec = *trace.Find(e.pc);
    const bool is_start = e.state == EventState::kStart;
    if ((is_start ? rec.start.pos : rec.done.pos) != static_cast<int64_t>(i)) {
      continue;
    }
    PcExecution& exec = report.executions[static_cast<size_t>(e.pc)];
    size_t t = thread_index[e.thread];
    VectorClock& clock = thread_clock[t];
    if (is_start) {
      for (int q : deps[static_cast<size_t>(e.pc)]) {
        if (q < 0 || static_cast<size_t>(q) >= program.size()) continue;
        const PcExecution& producer =
            report.executions[static_cast<size_t>(q)];
        if (producer.completed() &&
            producer.done_index < static_cast<int64_t>(i)) {
          clock.Join(producer.done_vc);  // the edge synchronized
        } else {
          DependencyViolation v;
          v.pc = e.pc;
          v.producer = q;
          report.violations.push_back(v);
        }
      }
      clock.Tick(t);
      exec.start_thread = e.thread;
      exec.start_index = static_cast<int64_t>(i);
      exec.start_us = e.time_us;
      exec.start_vc = clock;
    } else {
      clock.Tick(t);
      exec.done_thread = e.thread;
      exec.done_index = static_cast<int64_t>(i);
      exec.done_us = e.time_us;
      exec.usec = e.usec;
      exec.done_vc = clock;
      ++report.completed_executions;
    }
  }
  for (const auto& [pc, rec] : trace.pcs()) {
    if (static_cast<size_t>(pc) >= program.size()) break;
    if (rec.done_before_start) report.inverted.push_back(pc);
    if (rec.starts > 1 || rec.dones > 1) report.duplicates.push_back(pc);
  }
  // A producer whose done never arrived: every consumer start that ran is a
  // violation recorded above (producer.completed() was false at join time),
  // so nothing more to scan here. Distinguish the never-finished case in the
  // records for better messages.
  for (DependencyViolation& v : report.violations) {
    const PcExecution& producer =
        report.executions[static_cast<size_t>(v.producer)];
    v.producer_done_missing = !producer.completed();
  }

  // Critical path: longest observed-duration path through the DAG. Only
  // well-ordered edges (producer < consumer) participate, so the single
  // forward pass is a topological sweep even over malformed plans.
  std::vector<int64_t> path_usec(program.size(), 0);
  std::vector<int> best_pred(program.size(), -1);
  int tail = -1;
  int64_t best_total = 0;
  for (size_t pc = 0; pc < program.size(); ++pc) {
    int64_t longest_in = 0;
    int pred = -1;
    for (int q : deps[pc]) {
      if (q < 0 || static_cast<size_t>(q) >= pc) continue;
      if (path_usec[static_cast<size_t>(q)] > longest_in) {
        longest_in = path_usec[static_cast<size_t>(q)];
        pred = q;
      }
    }
    path_usec[pc] = longest_in + report.executions[pc].usec;
    best_pred[pc] = pred;
    if (path_usec[pc] >= best_total) {
      best_total = path_usec[pc];
      tail = static_cast<int>(pc);
    }
  }
  for (int pc = tail; pc >= 0; pc = best_pred[static_cast<size_t>(pc)]) {
    CriticalPathStep step;
    step.pc = pc;
    step.usec = report.executions[static_cast<size_t>(pc)].usec;
    report.critical_path.push_back(step);
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());
  report.critical_path_usec = best_total;

  int64_t first_start = 0, last_done = 0;
  bool any = false;
  for (const PcExecution& exec : report.executions) {
    if (!exec.started() || !exec.completed()) continue;
    if (!any) {
      first_start = exec.start_us;
      last_done = exec.done_us;
      any = true;
    } else {
      first_start = std::min(first_start, exec.start_us);
      last_done = std::max(last_done, exec.done_us);
    }
  }
  report.makespan_usec = any ? last_done - first_start : 0;
  report.slack_usec = report.makespan_usec - report.critical_path_usec;

  const HbMetrics& metrics = Metrics();
  metrics.replays->Increment();
  metrics.events->Increment(report.events);
  metrics.violations->Increment(
      static_cast<int64_t>(report.violations.size()));
  metrics.critical_path_usec->Set(report.critical_path_usec);
  metrics.makespan_usec->Set(report.makespan_usec);
  metrics.slack_usec->Set(report.slack_usec);
  return report;
}

std::string FormatScheduleReport(const ScheduleReport& report,
                                 const mal::Program& program) {
  std::string out;
  out += StrFormat(
      "schedule: %lld events, %d/%zu instructions completed, %zu thread(s)\n",
      static_cast<long long>(report.events), report.completed_executions,
      program.size(), report.threads.size());
  out += StrFormat(
      "width: plan admits %d, observed peak concurrency %d\n",
      report.plan_width, report.max_observed_concurrency);
  out += StrFormat(
      "makespan: %lld us, critical path %lld us, slack %lld us (%.1f%% of "
      "makespan)\n",
      static_cast<long long>(report.makespan_usec),
      static_cast<long long>(report.critical_path_usec),
      static_cast<long long>(report.slack_usec),
      report.makespan_usec > 0
          ? 100.0 * static_cast<double>(report.slack_usec) /
                static_cast<double>(report.makespan_usec)
          : 0.0);
  if (!report.violations.empty()) {
    out += StrFormat("violations: %zu dependency edge(s) not respected\n",
                     report.violations.size());
  }
  out += "critical path:\n";
  for (const CriticalPathStep& step : report.critical_path) {
    std::string stmt =
        step.pc >= 0 && static_cast<size_t>(step.pc) < program.size()
            ? program.InstructionToString(program.instruction(step.pc))
            : "<out of range>";
    out += StrFormat("  pc=%-4d %8lld us  %s\n", step.pc,
                     static_cast<long long>(step.usec), stmt.c_str());
  }
  return out;
}

}  // namespace stetho::analysis
