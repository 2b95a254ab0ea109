#ifndef STETHO_SCOPE_TRACE_H_
#define STETHO_SCOPE_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "profiler/event.h"

namespace stetho::scope {

/// Reads an entire trace file (one FormatTraceLine event per line; blank
/// lines ignored). Used by offline mode, which "needs access to a
/// preexisting dot file and trace file".
Result<std::vector<profiler::TraceEvent>> ReadTraceFile(
    const std::string& path);

/// Incremental reader for a growing trace file — online mode's "trace file
/// continuously receives the trace stream". Poll() returns events appended
/// since the last call. Partial trailing lines are kept pending.
class TraceFileTail {
 public:
  explicit TraceFileTail(std::string path) : path_(std::move(path)) {}

  /// Reads newly appended complete lines; parse failures are skipped and
  /// counted. A missing file yields zero events (it may not exist yet).
  Result<std::vector<profiler::TraceEvent>> Poll();

  int64_t parse_errors() const { return parse_errors_; }

 private:
  std::string path_;
  int64_t offset_ = 0;
  std::string pending_;
  int64_t parse_errors_ = 0;
};

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_TRACE_H_
