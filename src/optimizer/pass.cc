#include "optimizer/pass.h"

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/absint.h"
#include "analysis/runner.h"
#include "common/string_util.h"
#include "engine/kernel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace stetho::optimizer {
namespace {

/// Pass names use '-' (e.g. "dead-code"); metric names may not.
std::string PassToken(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

obs::Counter* PassesFiredCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_opt_passes_fired_total",
      "Optimizer passes that changed a plan (any pass, any pipeline)");
  return counter;
}

obs::Histogram* PassUsecHistogram() {
  static obs::Histogram* histogram =
      obs::Registry::Default()->GetOrCreateHistogram(
          "stetho_opt_pass_usec",
          "Optimizer pass duration in microseconds (recorded while "
          "observability is enabled)",
          obs::Histogram::DefaultLatencyBounds());
  return histogram;
}

/// `stetho_opt_pass_<name>_fired_total`, resolved once per pass name for
/// the process: pipelines are built per query, so a pointer kept on the
/// Pipeline would be resolved again for every query.
obs::Counter* PassFiredCounter(const char* name) {
  static std::mutex mu;
  static auto* counters = new std::map<std::string, obs::Counter*, std::less<>>;
  std::lock_guard<std::mutex> lock(mu);
  auto it = counters->find(std::string_view(name));
  if (it != counters->end()) return it->second;
  obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_opt_pass_" + PassToken(name) + "_fired_total",
      "Times optimizer pass '" + std::string(name) + "' changed a plan");
  counters->emplace(name, counter);
  return counter;
}

/// A fresh context over one plan state, as the pipeline lints it.
analysis::CheckContext PlanContext(const mal::Program* program) {
  analysis::CheckContext ctx;
  ctx.program = program;
  ctx.registry = engine::ModuleRegistry::Default();
  ctx.in_pipeline = true;
  return ctx;
}

/// Lints one plan state with the default suite; `context` names the state
/// in the error. Takes the state's context so the checks reuse the facts
/// it has already derived.
Status Lint(analysis::CheckContext state, const std::string& context) {
  return analysis::DiagnosticsToStatus(
      analysis::Runner::Default().Run(std::move(state)), context);
}

/// Ships the failure with its context: the flight recorder's dump carries
/// the recent spans (which pass ran when) and the full metrics snapshot.
Status DumpAndReturn(Status st) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::Default();
  if (recorder->enabled()) {
    std::string reason = "optimizer pipeline failed: " + st.ToString();
    recorder->Note(reason);
    recorder->Dump(reason);
  }
  return st;
}

}  // namespace

bool IsPureOperation(const std::string& module, const std::string& function) {
  if (module == "io" || module == "debug" || module == "language") return false;
  if (module == "sql") {
    return function == "bind" || function == "tid" || function == "mvc";
  }
  return module == "algebra" || module == "bat" || module == "mat" ||
         module == "calc" || module == "batcalc" || module == "group" ||
         module == "aggr";
}

Result<std::vector<std::string>> Pipeline::Run(mal::Program* program) const {
  std::vector<std::string> fired;
  if (passes_.empty()) return fired;
  // Pass-equivalence differ: abstract summary of what the plan outputs
  // (analysis/absint.h), re-checked after every pass that changed the plan.
  // A pass may refine the summary (folding, mitosis re-packing) but never
  // contradict it — that would be a provable change of query results.
  // Each plan state gets its own context, so the summary and the lint of
  // one state share one absint sweep and no fact outlives its state.
  analysis::CheckContext input = PlanContext(program);
  analysis::PlanSummary summary =
      analysis::SummarizeObservable(*program, input.absint());
  obs::Tracer* tracer = obs::Tracer::Default();
  // Counters are always on (one relaxed increment when a pass fires); the
  // duration histogram and pass spans read the clock, so they gate on the
  // kill switch / tracer enablement.
  const bool timed = obs::Active() || tracer->enabled();
  for (const auto& pass : passes_) {
    int64_t t0 = timed ? tracer->clock()->NowMicros() : 0;
    STETHO_ASSIGN_OR_RETURN(bool changed, pass->Run(program));
    if (timed) {
      int64_t dur = tracer->clock()->NowMicros() - t0;
      if (obs::Active()) PassUsecHistogram()->Observe(dur);
      if (tracer->enabled()) {
        tracer->RecordComplete("pass:" + std::string(pass->name()), "pass", 0,
                               -1, t0, dur);
      }
    }
    // A pass that declined left the plan as it was (Pass::Run's contract),
    // so the state already linted and summarized is still current.
    if (!changed) continue;
    analysis::CheckContext state = PlanContext(program);
    analysis::PlanSummary rewritten =
        analysis::SummarizeObservable(*program, state.absint());
    // Full lint of the new state (superset of the old Validate() call): a
    // failure names the pass, the check, and the offending pc/variable.
    Status lint = Lint(std::move(state),
                       StrFormat("optimizer pass '%s' produced an invalid plan",
                                 pass->name()));
    if (!lint.ok()) return DumpAndReturn(std::move(lint));
    Status equiv = analysis::CheckSummaryEquivalence(
        summary, rewritten, StrFormat("optimizer pass '%s'", pass->name()));
    if (!equiv.ok()) return DumpAndReturn(std::move(equiv));
    summary = std::move(rewritten);  // later passes diff against the refinement
    fired.push_back(pass->name());
    PassesFiredCounter()->Increment();
    PassFiredCounter(pass->name())->Increment();
  }
  // When no pass reported a change, the final plan is the input plan,
  // which no state above has linted yet.
  if (fired.empty()) {
    Status lint = Lint(std::move(input),
                       "optimizer pipeline input (no pass changed it) is an "
                       "invalid plan");
    if (!lint.ok()) return DumpAndReturn(std::move(lint));
  }
  return fired;
}

Pipeline Pipeline::Default(int mitosis_pieces) {
  Pipeline pipeline;
  pipeline.Add(MakeConstantFoldingPass());
  pipeline.Add(MakeCommonSubexpressionPass());
  pipeline.Add(MakeDeadCodePass());
  if (mitosis_pieces > 1) {
    pipeline.Add(MakeMitosisPass(mitosis_pieces));
  }
  pipeline.Add(MakeMemoryReorderPass());
  pipeline.Add(MakeDataflowMarkerPass());
  return pipeline;
}

}  // namespace stetho::optimizer
