#include "scope/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace stetho::scope {

using profiler::TraceEvent;

Result<std::vector<TraceEvent>> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file '" + path + "'");
  }
  std::string content;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  std::vector<TraceEvent> events;
  for (const std::string& line : Split(content, '\n')) {
    if (Trim(line).empty()) continue;
    STETHO_ASSIGN_OR_RETURN(TraceEvent event, profiler::ParseTraceLine(line));
    events.push_back(std::move(event));
  }
  return events;
}

Result<std::vector<TraceEvent>> TraceFileTail::Poll() {
  std::vector<TraceEvent> events;
  std::FILE* f = std::fopen(path_.c_str(), "r");
  if (f == nullptr) return events;  // not created yet
  if (std::fseek(f, static_cast<long>(offset_), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("seek failed on '" + path_ + "'");
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    pending_.append(buf, n);
    offset_ += static_cast<int64_t>(n);
  }
  std::fclose(f);

  size_t start = 0;
  while (true) {
    size_t nl = pending_.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(pending_.data() + start, nl - start);
    if (!TrimView(line).empty()) {
      auto event = profiler::ParseTraceLine(line);
      if (event.ok()) {
        events.push_back(std::move(event).value());
      } else {
        ++parse_errors_;
      }
    }
    start = nl + 1;
  }
  pending_.erase(0, start);
  return events;
}

}  // namespace stetho::scope
