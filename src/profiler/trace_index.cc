#include "profiler/trace_index.h"

#include <algorithm>
#include <numeric>

namespace stetho::profiler {

TraceIndex::TraceIndex(const std::vector<TraceEvent>& events)
    : events_(&events), order_(events.size()) {
  std::iota(order_.begin(), order_.end(), size_t{0});
  // The one place a trace is put back into emission order.
  std::stable_sort(order_.begin(), order_.end(), [&events](size_t a, size_t b) {
    return events[a].event < events[b].event;
  });
  if (!events.empty()) {
    first_time_us_ = last_time_us_ = events.front().time_us;
  }
  int open = 0;
  for (size_t pos = 0; pos < order_.size(); ++pos) {
    const TraceEvent& e = at(pos);
    first_time_us_ = std::min(first_time_us_, e.time_us);
    last_time_us_ = std::max(last_time_us_, e.time_us);
    if (e.pc < 0) continue;
    PcRecord& rec = pcs_[e.pc];
    if (rec.stmt.empty()) rec.stmt = e.stmt;
    const PairEnd end{static_cast<int64_t>(pos), e.time_us, e.thread};
    if (e.state == EventState::kStart) {
      if (rec.starts++ > 0) continue;
      rec.start = end;
      peak_concurrency_ = std::max(peak_concurrency_, ++open);
    } else {
      if (rec.dones++ > 0) continue;
      rec.done = end;
      rec.usec = e.usec;
      rec.rss_bytes = e.rss_bytes;
      if (rec.start.seen()) {
        --open;
      } else {
        rec.done_before_start = true;
      }
    }
  }
}

const PcRecord* TraceIndex::Find(int pc) const {
  auto it = pcs_.find(pc);
  return it == pcs_.end() ? nullptr : &it->second;
}

}  // namespace stetho::profiler
