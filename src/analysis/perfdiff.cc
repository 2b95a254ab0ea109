#include "analysis/perfdiff.h"

#include <algorithm>
#include <cmath>

#include "analysis/hb.h"
#include "common/string_util.h"

namespace stetho::analysis {

using profiler::TraceIndex;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void MixString(uint64_t* h, std::string_view s) {
  for (char c : s) {
    *h ^= static_cast<unsigned char>(c);
    *h *= kFnvPrime;
  }
  *h ^= '\n';
  *h *= kFnvPrime;
}

/// First done's duration clamped at 0; -1 when the pc never completed.
int64_t CompletedUsec(const profiler::PcRecord& rec) {
  return rec.done.seen() ? std::max<int64_t>(0, rec.usec) : -1;
}

/// First start to last done over every pc's first start/done pair.
int64_t Makespan(const TraceIndex& trace) {
  int64_t first = -1;
  int64_t last = -1;
  for (const auto& [pc, rec] : trace.pcs()) {
    if (rec.start.seen() && (first < 0 || rec.start.time_us < first)) {
      first = rec.start.time_us;
    }
    if (rec.done.seen() && rec.done.time_us > last) last = rec.done.time_us;
  }
  return first >= 0 && last >= first ? last - first : 0;
}

/// Pcs on the report's critical path, as a per-pc mask of the plan.
std::vector<bool> CriticalMask(const ScheduleReport& report, size_t size) {
  std::vector<bool> on_path(size, false);
  for (const CriticalPathStep& step : report.critical_path) {
    if (step.pc >= 0 && static_cast<size_t>(step.pc) < size) {
      on_path[static_cast<size_t>(step.pc)] = true;
    }
  }
  return on_path;
}

std::string Truncate(const std::string& s, size_t max) {
  if (s.size() <= max) return s;
  return s.substr(0, max - 3) + "...";
}

}  // namespace

uint64_t PlanShapeHash(const mal::Program& program) {
  uint64_t h = kFnvOffset;
  for (const mal::Instruction& ins : program.instructions()) {
    MixString(&h, program.InstructionToString(ins));
  }
  return h;
}

uint64_t TraceShapeHash(const TraceIndex& trace) {
  uint64_t h = kFnvOffset;
  for (const auto& [pc, rec] : trace.pcs()) {
    if (!rec.stmt.empty()) MixString(&h, rec.stmt);
  }
  return h;
}

obs::QueryObservation ObservationFromTrace(const TraceIndex& trace) {
  obs::QueryObservation observation;
  observation.shape_hash = TraceShapeHash(trace);
  observation.total_usec = Makespan(trace);
  if (!trace.pcs().empty()) {
    observation.plan_size =
        static_cast<size_t>(trace.pcs().rbegin()->first) + 1;
  }
  for (const auto& [pc, rec] : trace.pcs()) {
    const int64_t usec = CompletedUsec(rec);
    if (usec < 0) continue;  // never completed: nothing to fold
    observation.pcs.push_back({pc, usec});
  }
  return observation;
}

TraceDiff DiffTraces(const TraceIndex& a, const TraceIndex& b,
                     const mal::Program* plan) {
  TraceDiff diff;
  diff.a_hash = TraceShapeHash(a);
  diff.b_hash = TraceShapeHash(b);
  diff.shapes_match = diff.a_hash == diff.b_hash;
  diff.a_makespan_usec = Makespan(a);
  diff.b_makespan_usec = Makespan(b);

  std::vector<bool> critical_a;
  std::vector<bool> critical_b;
  if (plan != nullptr) {
    ScheduleReport ra = AnalyzeSchedule(*plan, a);
    ScheduleReport rb = AnalyzeSchedule(*plan, b);
    diff.a_critical_usec = ra.critical_path_usec;
    diff.b_critical_usec = rb.critical_path_usec;
    critical_a = CriticalMask(ra, plan->size());
    critical_b = CriticalMask(rb, plan->size());
  }

  for (const auto& [pc, rec_a] : a.pcs()) {
    const int64_t a_usec = CompletedUsec(rec_a);
    const profiler::PcRecord* rec_b = b.Find(pc);
    const int64_t b_usec = rec_b == nullptr ? -1 : CompletedUsec(*rec_b);
    if (a_usec < 0 || b_usec < 0) {
      if (a_usec >= 0) diff.only_a.push_back(pc);
      continue;
    }
    PcDelta delta;
    delta.pc = pc;
    delta.stmt = std::string(!rec_b->stmt.empty() ? rec_b->stmt : rec_a.stmt);
    delta.a_usec = a_usec;
    delta.b_usec = b_usec;
    delta.delta_usec = b_usec - a_usec;
    delta.ratio = static_cast<double>(b_usec) /
                  static_cast<double>(std::max<int64_t>(1, a_usec));
    if (static_cast<size_t>(pc) < critical_a.size()) {
      delta.critical_a = critical_a[static_cast<size_t>(pc)];
      delta.critical_b = critical_b[static_cast<size_t>(pc)];
    }
    diff.deltas.push_back(std::move(delta));
  }
  for (const auto& [pc, rec_b] : b.pcs()) {
    if (CompletedUsec(rec_b) < 0) continue;
    const profiler::PcRecord* rec_a = a.Find(pc);
    if (rec_a == nullptr || CompletedUsec(*rec_a) < 0) diff.only_b.push_back(pc);
  }
  std::sort(diff.deltas.begin(), diff.deltas.end(),
            [](const PcDelta& x, const PcDelta& y) {
              const int64_t ax = std::abs(x.delta_usec);
              const int64_t ay = std::abs(y.delta_usec);
              if (ax != ay) return ax > ay;
              return x.pc < y.pc;
            });
  return diff;
}

std::string FormatTraceDiff(const TraceDiff& diff) {
  std::string out = "== trace diff ==\n";
  if (diff.shapes_match) {
    out += StrFormat("plan shape: match (%016llx)\n",
                     static_cast<unsigned long long>(diff.a_hash));
  } else {
    out += StrFormat(
        "plan shape: MISMATCH (a=%016llx b=%016llx) — per-pc alignment is "
        "best-effort\n",
        static_cast<unsigned long long>(diff.a_hash),
        static_cast<unsigned long long>(diff.b_hash));
  }
  const int64_t makespan_delta = diff.b_makespan_usec - diff.a_makespan_usec;
  out += StrFormat(
      "makespan: %lldus -> %lldus  (%+lldus, %.2fx)\n",
      static_cast<long long>(diff.a_makespan_usec),
      static_cast<long long>(diff.b_makespan_usec),
      static_cast<long long>(makespan_delta),
      static_cast<double>(diff.b_makespan_usec) /
          static_cast<double>(std::max<int64_t>(1, diff.a_makespan_usec)));
  if (diff.a_critical_usec >= 0 && diff.b_critical_usec >= 0) {
    out += StrFormat(
        "critical path: %lldus -> %lldus  (%+lldus, %.2fx)\n",
        static_cast<long long>(diff.a_critical_usec),
        static_cast<long long>(diff.b_critical_usec),
        static_cast<long long>(diff.b_critical_usec - diff.a_critical_usec),
        static_cast<double>(diff.b_critical_usec) /
            static_cast<double>(std::max<int64_t>(1, diff.a_critical_usec)));
  }
  constexpr size_t kTop = 16;
  out += StrFormat("matched pcs: %zu (top %zu by |delta|)\n",
                   diff.deltas.size(), std::min(kTop, diff.deltas.size()));
  for (size_t i = 0; i < diff.deltas.size() && i < kTop; ++i) {
    const PcDelta& d = diff.deltas[i];
    out += StrFormat("  pc %-4d %8lldus -> %8lldus  (%+lldus, %.2fx)",
                     d.pc, static_cast<long long>(d.a_usec),
                     static_cast<long long>(d.b_usec),
                     static_cast<long long>(d.delta_usec), d.ratio);
    if (d.critical_a || d.critical_b) {
      out += StrFormat(" [critical:%s%s]", d.critical_a ? "a" : "",
                       d.critical_b ? "b" : "");
    }
    if (!d.stmt.empty()) out += "  " + Truncate(d.stmt, 56);
    out += '\n';
  }
  auto list_pcs = [&out](const char* label, const std::vector<int>& pcs) {
    out += label;
    if (pcs.empty()) {
      out += " none\n";
      return;
    }
    for (size_t i = 0; i < pcs.size() && i < 32; ++i) {
      out += StrFormat(" %d", pcs[i]);
    }
    if (pcs.size() > 32) out += StrFormat(" ... (%zu total)", pcs.size());
    out += '\n';
  };
  list_pcs("pcs only in a:", diff.only_a);
  list_pcs("pcs only in b:", diff.only_b);
  return out;
}

}  // namespace stetho::analysis
