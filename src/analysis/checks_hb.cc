// The happens-before check family: schedule/trace race detection built on
// analysis/hb.h. Three checks replay the profiler trace against the plan's
// dependency DAG (trace-dependency-violation, trace-write-race,
// schedule-serialization), one audits the platform span export
// (span-interleaving), and one audits per-thread clocks (trace-clock-
// monotonicity). Together they make the scheduler's ordering contract a
// deterministic post-hoc lint instead of a TSan-needs-the-bad-interleaving
// hope.

#include <algorithm>
#include <map>
#include <vector>

#include "analysis/checks.h"
#include "analysis/emitter.h"
#include "analysis/hb.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

using mal::Argument;
using mal::Instruction;
using mal::Program;
using profiler::EventState;
using profiler::TraceEvent;

// ---------------------------------------------------------------------------
// trace-dependency-violation
// ---------------------------------------------------------------------------

class TraceDependencyViolationCheck final : public Check {
 public:
  const char* id() const override { return "trace-dependency-violation"; }
  const char* description() const override {
    return "no instruction's start event precedes any of its producers' "
           "done events in the observed schedule";
  }
  unsigned needs() const override { return kNeedsProgram | kNeedsTrace; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const ScheduleReport& report = ctx.schedule();
    for (const DependencyViolation& v : report.violations) {
      emit.Emit(Severity::kError, v.pc, -1,
                v.producer_done_missing
                    ? StrFormat("started although producer pc=%d never "
                                "finished — the register it reads was never "
                                "published",
                                v.producer)
                    : StrFormat("started before producer pc=%d finished — "
                                "the scheduler dispatched a consumer past an "
                                "unfinished dependency",
                                v.producer),
                "happens-before violation; check the dataflow dependency "
                "edges and the admission accounting");
    }
    for (int pc : report.inverted) {
      emit.Emit(Severity::kError, pc, -1,
                "interval runs backwards: the done event precedes the start "
                "event in emission order",
                "start/done events were swapped or mis-sequenced");
    }
    for (int pc : report.duplicates) {
      emit.Emit(Severity::kError, pc, -1,
                "surplus start/done events — the happens-before model is "
                "built on exactly one pair per executed instruction",
                "a duplicated execution makes every ordering conclusion for "
                "this pc unreliable");
    }
  }
};

// ---------------------------------------------------------------------------
// trace-write-race
// ---------------------------------------------------------------------------

class TraceWriteRaceCheck final : public Check {
 public:
  const char* id() const override { return "trace-write-race"; }
  const char* description() const override {
    return "no two happens-before-unordered instructions touch the same BAT "
           "variable when at least one of them writes it";
  }
  unsigned needs() const override { return kNeedsProgram | kNeedsTrace; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    const ScheduleReport& report = ctx.schedule();

    // Access sets per BAT variable: the defining instruction writes, every
    // argument reference reads. (SSA means one writer per variable in a
    // well-formed plan; duplicated executions and double assignments show
    // up as extra writers.)
    struct Accesses {
      std::vector<int> writers;
      std::vector<int> readers;
    };
    std::map<int, Accesses> per_var;
    for (const Instruction& ins : p.instructions()) {
      for (int r : ins.results) {
        if (r < 0 || static_cast<size_t>(r) >= p.num_variables()) continue;
        if (!p.variable(r).type.is_bat) continue;
        per_var[r].writers.push_back(ins.pc);
      }
      for (const Argument& arg : ins.args) {
        if (arg.kind != Argument::Kind::kVar) continue;
        if (arg.var < 0 || static_cast<size_t>(arg.var) >= p.num_variables()) {
          continue;
        }
        if (!p.variable(arg.var).type.is_bat) continue;
        per_var[arg.var].readers.push_back(ins.pc);
      }
    }

    auto unordered = [&report](int a, int b) {
      const PcExecution& ea = report.executions[static_cast<size_t>(a)];
      const PcExecution& eb = report.executions[static_cast<size_t>(b)];
      if (!ea.started() || !eb.started()) return false;  // never overlapped
      return !HappensBefore(ea, eb) && !HappensBefore(eb, ea);
    };

    for (const auto& [var, acc] : per_var) {
      for (size_t i = 0; i < acc.writers.size(); ++i) {
        int w = acc.writers[i];
        // Writer vs writer (double definition executed concurrently).
        for (size_t j = i + 1; j < acc.writers.size(); ++j) {
          if (unordered(w, acc.writers[j])) {
            emit.Emit(Severity::kError, std::min(w, acc.writers[j]), var,
                      StrFormat("write-write race on %s: pc=%d and pc=%d "
                                "are not happens-before ordered",
                                VarName(p, var).c_str(), w, acc.writers[j]),
                      "two unordered definitions of one register corrupt "
                      "whichever consumer reads it");
          }
        }
        // Writer vs reader.
        for (int r : acc.readers) {
          if (r == w) continue;
          if (unordered(w, r)) {
            emit.Emit(Severity::kError, r, var,
                      StrFormat("write-read race on %s: reader pc=%d is not "
                                "ordered against writer pc=%d",
                                VarName(p, var).c_str(), r, w),
                      "the reader may observe a half-built or released BAT");
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// span-interleaving
// ---------------------------------------------------------------------------

class SpanInterleavingCheck final : public Check {
 public:
  const char* id() const override { return "span-interleaving"; }
  const char* description() const override {
    return "kernel spans sharing one query-local tid nest properly (no "
           "partial overlap), matching the trace thread contract";
  }
  unsigned needs() const override { return kNeedsSpans; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    std::map<int, std::vector<const obs::SpanRecord*>> by_tid;
    for (const obs::SpanRecord& span : *ctx.spans) {
      if (span.cat != "kernel") continue;
      by_tid[span.tid].push_back(&span);
    }
    for (auto& [tid, spans] : by_tid) {
      std::stable_sort(spans.begin(), spans.end(),
                       [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                         if (a->start_us != b->start_us) {
                           return a->start_us < b->start_us;
                         }
                         return a->dur_us > b->dur_us;  // enclosing span first
                       });
      // Sweep: a span beginning inside an open span must also end inside it.
      const obs::SpanRecord* open = nullptr;
      for (const obs::SpanRecord* span : spans) {
        int64_t end = span->start_us + span->dur_us;
        if (open != nullptr) {
          int64_t open_end = open->start_us + open->dur_us;
          if (span->start_us < open_end && end > open_end) {
            emit.Emit(Severity::kError, span->pc, -1,
                      StrFormat("kernel span \"%s\" [%lld..%lld us] partially "
                                "overlaps \"%s\" (pc=%d) [%lld..%lld us] on "
                                "tid %d — spans on one admission slot must "
                                "nest",
                                span->name.c_str(),
                                static_cast<long long>(span->start_us),
                                static_cast<long long>(end),
                                open->name.c_str(), open->pc,
                                static_cast<long long>(open->start_us),
                                static_cast<long long>(open_end), tid),
                      "two kernels were simultaneously live on one "
                      "query-local slot; the slot accounting is broken");
          }
        }
        if (open == nullptr ||
            span->start_us + span->dur_us > open->start_us + open->dur_us) {
          open = span;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// trace-clock-monotonicity
// ---------------------------------------------------------------------------

class TraceClockMonotonicityCheck final : public Check {
 public:
  const char* id() const override { return "trace-clock-monotonicity"; }
  const char* description() const override {
    return "per-thread event timestamps never regress in emission order";
  }
  unsigned needs() const override { return kNeedsTrace; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const profiler::TraceIndex& index = ctx.trace_index();
    struct Last {
      int64_t time_us = 0;
      int64_t event = -1;
      bool reported = false;
    };
    std::map<int, Last> per_thread;
    for (size_t i = 0; i < index.size(); ++i) {
      const TraceEvent& e = index.at(i);
      Last& last = per_thread[e.thread];
      if (last.event >= 0 && e.time_us < last.time_us && !last.reported) {
        emit.Emit(Severity::kError, e.pc, -1,
                  StrFormat("thread %d clock regresses: event %lld at %lld "
                            "us after event %lld at %lld us",
                            e.thread, static_cast<long long>(e.event),
                            static_cast<long long>(e.time_us),
                            static_cast<long long>(last.event),
                            static_cast<long long>(last.time_us)),
                  "per-thread emission order and timestamps must agree; the "
                  "profiler stamps both under one lock");
        last.reported = true;  // later events on this thread usually cascade
      }
      last.time_us = std::max(last.time_us, e.time_us);
      last.event = e.event;
    }
  }
};

// ---------------------------------------------------------------------------
// schedule-serialization
// ---------------------------------------------------------------------------

class ScheduleSerializationCheck final : public Check {
 public:
  const char* id() const override { return "schedule-serialization"; }
  const char* description() const override {
    return "a plan that admits parallel execution did not run fully "
           "serially (the lost-concurrency anomaly, paper section 5)";
  }
  unsigned needs() const override { return kNeedsProgram | kNeedsTrace; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const ScheduleReport& report = ctx.schedule();
    if (report.plan_width < 2) return;            // nothing to parallelize
    if (report.completed_executions < 2) return;  // too little evidence
    // A single admission slot in the trace means dop=1 was configured —
    // serial execution is then expected, not an anomaly.
    if (report.threads.size() < 2) return;
    if (report.max_observed_concurrency > 1) return;
    emit.Emit(Severity::kNote, -1, -1,
              StrFormat("plan admits %d-wide parallelism but the observed "
                        "schedule is fully serial (%zu thread(s), peak "
                        "concurrency 1) — sequential execution where "
                        "multithreading was expected",
                        report.plan_width, report.threads.size()),
              "check dop/num_threads and the dataflow flag; "
              "mal_lint --schedule shows the critical-path slack");
  }
};

}  // namespace

std::unique_ptr<Check> MakeTraceDependencyViolationCheck() {
  return std::make_unique<TraceDependencyViolationCheck>();
}
std::unique_ptr<Check> MakeTraceWriteRaceCheck() {
  return std::make_unique<TraceWriteRaceCheck>();
}
std::unique_ptr<Check> MakeSpanInterleavingCheck() {
  return std::make_unique<SpanInterleavingCheck>();
}
std::unique_ptr<Check> MakeTraceClockMonotonicityCheck() {
  return std::make_unique<TraceClockMonotonicityCheck>();
}
std::unique_ptr<Check> MakeScheduleSerializationCheck() {
  return std::make_unique<ScheduleSerializationCheck>();
}

}  // namespace stetho::analysis
