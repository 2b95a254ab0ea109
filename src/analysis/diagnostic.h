#ifndef STETHO_ANALYSIS_DIAGNOSTIC_H_
#define STETHO_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

namespace stetho::analysis {

/// How bad a finding is. Errors break the trace↔graph↔plan contract (or the
/// plan itself) and fail the optimizer pipeline; warnings are hazards worth
/// fixing; notes are informational.
enum class Severity {
  kNote = 0,
  kWarning = 1,
  kError = 2,
};

/// Canonical lower-case name: "note", "warning", "error".
const char* SeverityName(Severity severity);

/// One finding produced by an analysis::Check. Location is given in plan
/// coordinates: `pc` indexes the instruction (and therefore dot node "n<pc>"
/// and the trace events carrying that pc), `var` the MAL variable involved.
/// Either may be -1 when the finding concerns the artifact as a whole.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string check_id;   ///< stable id of the emitting check, e.g. "ssa-def-before-use"
  int pc = -1;            ///< offending instruction, -1 = whole plan/trace
  int var = -1;           ///< offending variable id, -1 = not variable-specific
  std::string message;    ///< what is wrong
  std::string fix_hint;   ///< optional: how to repair it

  /// Renders "error[ssa-def-before-use] pc=3 var=X_7: <message> (hint: ...)".
  std::string ToString() const;

  bool operator==(const Diagnostic& other) const = default;
};

/// Counts diagnostics at exactly `severity`.
size_t CountSeverity(const std::vector<Diagnostic>& diagnostics,
                     Severity severity);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_DIAGNOSTIC_H_
