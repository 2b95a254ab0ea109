#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/checks.h"
#include "analysis/emitter.h"
#include "analysis/perfdiff.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

/// Individual findings before the rest collapse into one summary line.
constexpr int kMaxDetailed = 8;

Severity SeverityOf(const obs::Regression& r) {
  return r.level == obs::Regression::kSevere ? Severity::kError
                                             : Severity::kWarning;
}

std::string Detail(const obs::Regression& r) {
  return StrFormat("median %.0fus (MAD %.0fus, %.2fx)", r.median, r.mad,
                   r.ratio);
}

// ---------------------------------------------------------------------------
// trace-perf-regression
// ---------------------------------------------------------------------------

/// Compares a recorded trace against the stored cross-run baseline of the
/// same plan shape through obs::JudgeRegression: a slow pc is a warning, a
/// severe one (>= 2.0x) an error. End-to-end makespan gets the same
/// treatment against the total_usec distribution, so a whole-query slowdown
/// with no single guilty pc still fires. No baseline for the shape is a
/// note — a fresh plan shape is information, not a failure.
class TracePerfRegressionCheck final : public Check {
 public:
  const char* id() const override { return "trace-perf-regression"; }
  const char* description() const override {
    return "recorded per-pc durations and makespan stay within "
           "median + max(4*MAD, 10us) and 1.5x/2.0x of the stored cross-run "
           "baseline for this plan shape";
  }
  unsigned needs() const override { return kNeedsTrace | kNeedsProfile; }

  void Run(const CheckContext& ctx,
           std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const profiler::TraceIndex& trace = ctx.trace_index();
    if (trace.empty()) return;

    // Key by the executed plan when we have it (exact contract), else by
    // the trace's own statement text (identical mixing, see perfdiff.h).
    const uint64_t shape_hash = ctx.program != nullptr
                                    ? PlanShapeHash(*ctx.program)
                                    : TraceShapeHash(trace);
    std::shared_ptr<const obs::PlanProfile> baseline =
        ctx.profile->Lookup(shape_hash);
    if (baseline == nullptr || baseline->queries == 0) {
      emit.Emit(Severity::kNote, -1, -1,
                StrFormat("no stored baseline for plan shape %016llx "
                          "(profile holds %zu shapes)",
                          static_cast<unsigned long long>(shape_hash),
                          ctx.profile->size()),
                "record a baseline with `mal_lint --write-profile` or let "
                "the server fold completed runs via STETHO_PROFILE_DIR");
      return;
    }

    const obs::QueryObservation observed = ObservationFromTrace(trace);

    int flagged = 0;
    int64_t worst_delta = 0;
    for (const obs::PcSample& sample : observed.pcs) {
      if (sample.pc < 0 ||
          static_cast<size_t>(sample.pc) >= baseline->pcs.size()) {
        continue;  // shape drift; the hash key normally prevents this
      }
      const obs::RobustStat& stat =
          baseline->pcs[static_cast<size_t>(sample.pc)];
      const obs::Regression r = obs::JudgeRegression(sample.usec, stat);
      if (r.level == obs::Regression::kNone) continue;
      ++flagged;
      worst_delta =
          std::max(worst_delta, sample.usec - static_cast<int64_t>(r.median));
      if (flagged <= kMaxDetailed) {
        std::string stmt =
            ctx.program != nullptr &&
                    static_cast<size_t>(sample.pc) < ctx.program->size()
                ? ctx.program->InstructionToString(
                      ctx.program->instruction(sample.pc))
                : "";
        if (stmt.size() > 48) stmt = stmt.substr(0, 45) + "...";
        emit.Emit(SeverityOf(r), sample.pc, -1,
                  StrFormat("instruction ran %lldus against a baseline of "
                            "%s over %lld runs%s%s",
                            static_cast<long long>(sample.usec),
                            Detail(r).c_str(),
                            static_cast<long long>(stat.count()),
                            stmt.empty() ? "" : " — ", stmt.c_str()),
                  "a data-dependent blowup, a lost optimization, or "
                  "interference on this kernel; `stethoscope diff` against "
                  "a baseline trace localizes the change");
      }
    }
    if (flagged > kMaxDetailed) {
      emit.Emit(Severity::kWarning, -1, -1,
                StrFormat("%d regressed instructions in total (first %d "
                          "reported individually; worst delta %+lldus)",
                          flagged, kMaxDetailed,
                          static_cast<long long>(worst_delta)),
                "");
    }

    // End-to-end: the trace's makespan against the folded total_usec
    // distribution. Catches a uniformly slower run (every pc a little
    // worse, none past its own gate) — and stays silent when a single
    // injected pc already explains the drift only if the totals gate
    // independently clears.
    if (observed.total_usec > 0) {
      const obs::Regression r =
          obs::JudgeRegression(observed.total_usec, baseline->total_usec);
      if (r.level != obs::Regression::kNone) {
        emit.Emit(SeverityOf(r), -1, -1,
                  StrFormat("query makespan %lldus against a baseline of %s "
                            "over %lld runs",
                            static_cast<long long>(observed.total_usec),
                            Detail(r).c_str(),
                            static_cast<long long>(
                                baseline->total_usec.count())),
                  "the whole schedule slowed down; check the critical-path "
                  "delta in `stethoscope diff` and the admission metrics "
                  "for contention");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> MakeTracePerfRegressionCheck() {
  return std::make_unique<TracePerfRegressionCheck>();
}

}  // namespace stetho::analysis
