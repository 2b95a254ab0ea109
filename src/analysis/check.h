#ifndef STETHO_ANALYSIS_CHECK_H_
#define STETHO_ANALYSIS_CHECK_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "dot/graph.h"
#include "engine/kernel.h"
#include "mal/program.h"
#include "obs/profile_store.h"
#include "obs/span.h"
#include "profiler/event.h"
#include "profiler/trace_index.h"

namespace stetho::analysis {

struct MemoryReport;
struct ProgramFacts;
struct ScheduleReport;

/// Everything a check may inspect. All pointers are optional and borrowed;
/// checks declare what they need via Check::needs() and the Runner skips a
/// check whose required inputs are absent. A check may still use inputs it
/// did not declare when they happen to be present (e.g. the trace check
/// cross-validates statement text only when a program is supplied).
struct CheckContext {
  const mal::Program* program = nullptr;
  const dot::Graph* graph = nullptr;
  const std::vector<profiler::TraceEvent>* trace = nullptr;
  const engine::ModuleRegistry* registry = nullptr;
  /// Platform spans (obs tracer snapshot or a parsed Chrome trace export);
  /// lets checks cross-validate the profiler's event stream against the
  /// platform's own self-observation.
  const std::vector<obs::SpanRecord>* spans = nullptr;
  /// Cross-run performance baselines (per-pc robust statistics keyed by
  /// plan-shape hash); lets checks compare a recorded trace against the
  /// committed profile of past runs of the same plan shape.
  const obs::ProfileStore* profile = nullptr;
  /// True when the optimizer pipeline lints between passes. Checks may relax
  /// severities for states that are routine mid-rewrite (e.g. dead code a
  /// later pass removes) but hazards in a final plan.
  bool in_pipeline = false;

  /// Facts derived from `program` and `trace`, built on first use and
  /// shared by every later check on this context, so the plan is
  /// interpreted, the trace indexed and the happens-before model replayed
  /// at most once per context. Set the inputs before any check runs: a
  /// derived fact is not rebuilt when `program` or `trace` changes
  /// afterwards, so a changed plan needs a new context. A copied context
  /// starts without them; a moved one takes them along (Runner::Run takes
  /// its context by value, so a caller that moves it in hands over the
  /// facts it already derived).
  ///
  /// One abstract-interpretation sweep of `program` (absint.h): the final
  /// state and every instruction's facts; requires `program`.
  const ProgramFacts& absint() const;
  /// The memory-lifetime report of `program` (liveness.h), built from
  /// absint() without a second sweep; requires `program`.
  const MemoryReport& memory() const;
  /// The emission-order index of `trace`; requires `trace`.
  const profiler::TraceIndex& trace_index() const;
  /// The happens-before replay of `trace` against `program`; requires both.
  const ScheduleReport& schedule() const;

 private:
  struct Derived {
    Derived() = default;
    Derived(const Derived&) {}  // a copy derives afresh
    Derived(Derived&& other) {
      std::lock_guard<std::mutex> lock(other.mu);
      absint = std::move(other.absint);
      memory = std::move(other.memory);
      index = std::move(other.index);
      schedule = std::move(other.schedule);
    }
    std::mutex mu;
    std::shared_ptr<const ProgramFacts> absint;
    std::shared_ptr<const MemoryReport> memory;
    std::shared_ptr<const profiler::TraceIndex> index;
    std::shared_ptr<const ScheduleReport> schedule;
  };
  mutable Derived derived_;
};

/// Bitmask of CheckContext fields a check requires to run at all.
enum CheckInputs : unsigned {
  kNeedsProgram = 1u << 0,
  kNeedsGraph = 1u << 1,
  kNeedsTrace = 1u << 2,
  kNeedsRegistry = 1u << 3,
  kNeedsSpans = 1u << 4,
  kNeedsProfile = 1u << 5,
};

/// One pluggable static-analysis rule over plans, plan graphs, and traces.
/// Implementations are stateless and const: the same instance may run from
/// several threads (the optimizer pipeline shares one Runner).
class Check {
 public:
  virtual ~Check() = default;

  /// Stable kebab-case identifier, e.g. "ssa-def-before-use". Appears in
  /// diagnostics, pipeline errors, and mal_lint output.
  virtual const char* id() const = 0;

  /// One-line human description for catalogs (`mal_lint --list-checks`).
  virtual const char* description() const = 0;

  /// OR of CheckInputs bits; the Runner only invokes Run() when every
  /// required context field is non-null.
  virtual unsigned needs() const = 0;

  /// Appends findings to `out`. Must not mutate the context.
  virtual void Run(const CheckContext& context,
                   std::vector<Diagnostic>* out) const = 0;
};

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_CHECK_H_
