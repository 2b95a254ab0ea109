#ifndef STETHO_ANALYSIS_RUNNER_H_
#define STETHO_ANALYSIS_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "common/status.h"

namespace stetho::analysis {

/// Runs a suite of checks over one CheckContext and aggregates their
/// diagnostics. A Runner is immutable after construction and its checks are
/// stateless, so one instance (Runner::Default()) is shared by the optimizer
/// pipeline, mal_lint, and the tests.
class Runner {
 public:
  Runner() = default;
  Runner(Runner&&) = default;
  Runner& operator=(Runner&&) = default;

  void Add(std::unique_ptr<Check> check);

  size_t size() const { return checks_.size(); }
  const std::vector<std::unique_ptr<Check>>& checks() const { return checks_; }

  /// Runs every check whose needs() are satisfied by `context`; checks with
  /// missing inputs are skipped, not failed. Diagnostics come back sorted:
  /// errors first, then by pc, check id, and variable. Every check reads
  /// the facts `context` derives (CheckContext::absint() and the rest), so
  /// a run interprets the plan and replays the trace at most once. Passing
  /// a context by copy derives afresh; moving one in reuses what it has
  /// already derived (the optimizer pipeline summarizes a plan state from
  /// its absint() facts, then lints that same state).
  std::vector<Diagnostic> Run(CheckContext context) const;

  /// A Runner loaded with AllChecks().
  static Runner MakeDefault();

  /// Shared process-wide default suite.
  static const Runner& Default();

 private:
  std::vector<std::unique_ptr<Check>> checks_;
};

/// Renders diagnostics one per line for terminals; "" for an empty list.
std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics);

/// Renders diagnostics as a JSON array of objects with keys `severity`,
/// `check`, `pc`, `var`, `message`, `fix_hint` (mal_lint --json).
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics);

/// Renders diagnostics as a SARIF 2.1.0 log (mal_lint --sarif) so editors
/// and CI annotators can ingest lint findings. One run with driver
/// "mal_lint"; each unique check id becomes a rule (described from the
/// default suite when known) and every result's `ruleIndex` points at its
/// rule's position in that array. Regions are 1-based per §3.30: pc N
/// renders as startLine N + 1 (plans are one statement per line) with
/// startColumn 1. `artifact_uri` names the analyzed file ("" for in-memory
/// plans). Output is deterministic for golden-file comparison.
std::string DiagnosticsToSarif(const std::vector<Diagnostic>& diagnostics,
                               const std::string& artifact_uri);

/// Stable fingerprint for baseline suppression (mal_lint --baseline):
/// check id + pc + the message with every digit run collapsed to "#", so a
/// finding keeps its identity when counts, timestamps, or variable numbers
/// in the message drift between runs.
std::string DiagnosticFingerprint(const Diagnostic& diagnostic);

/// Renders diagnostics as a baseline file: one fingerprint per line,
/// deduplicated, sorted (mal_lint --write-baseline).
std::string FormatBaseline(const std::vector<Diagnostic>& diagnostics);

/// Parses a baseline file: one fingerprint per line; blank lines and
/// '#'-prefixed comment lines are ignored.
std::vector<std::string> ParseBaseline(const std::string& text);

/// Removes diagnostics whose fingerprint appears in `baseline`, so CI gates
/// on new findings only.
std::vector<Diagnostic> ApplyBaseline(std::vector<Diagnostic> diagnostics,
                                      const std::vector<std::string>& baseline);

/// True when any diagnostic is at or above `threshold` — the
/// mal_lint --fail-on exit-code test.
bool AnyAtOrAbove(const std::vector<Diagnostic>& diagnostics,
                  Severity threshold);

/// OkStatus when no diagnostic is an error; otherwise an Internal status
/// naming `context`, the first error, and how many findings follow. This is
/// what the optimizer pipeline returns when a pass corrupts the plan.
Status DiagnosticsToStatus(const std::vector<Diagnostic>& diagnostics,
                           const std::string& context);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_RUNNER_H_
