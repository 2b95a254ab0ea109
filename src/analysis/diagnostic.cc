#include "analysis/diagnostic.h"

#include "common/string_util.h"

namespace stetho::analysis {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = StrFormat("%s[%s]", SeverityName(severity), check_id.c_str());
  if (pc >= 0) out += StrFormat(" pc=%d", pc);
  if (var >= 0) out += StrFormat(" var=%d", var);
  out += ": ";
  out += message;
  if (!fix_hint.empty()) {
    out += " (hint: ";
    out += fix_hint;
    out += ")";
  }
  return out;
}

size_t CountSeverity(const std::vector<Diagnostic>& diagnostics,
                     Severity severity) {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

}  // namespace stetho::analysis
