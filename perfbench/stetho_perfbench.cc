// End-to-end benchmark: runs one workload (serve, record, monitor or explore)
// for a fixed time in this process and prints its metrics as one JSON line.
//
//   stetho_perfbench --workload W --seed N --seconds S --trace 0|1
//   stetho_perfbench --workload W --seed N --list-ops K
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs every operation
// twice, once plain and once split into timed calls to each layer's public
// functions, and prints the per-layer metrics. --list-ops prints the first K
// operations of the seeded sequence and exits (the self-tests use it).
// README.md next to this file documents the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/liveness.h"
#include "analysis/perfdiff.h"
#include "analysis/progress.h"
#include "analysis/runner.h"
#include "common/rng.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "engine/interpreter.h"
#include "layout/layout_cache.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "optimizer/pass.h"
#include "profiler/event.h"
#include "profiler/sink.h"
#include "scope/online.h"
#include "scope/replayer.h"
#include "server/mserver.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

using namespace stetho;

// --- fixed configuration (README.md gives the reasons) ---
constexpr double kScaleFactor = 0.01;
constexpr int kDop = 2;
constexpr int kMitosis = 16;
// Far above every prediction (q3's static bound is ~190 TiB), so every query
// is priced by admission and none queues or is refused.
constexpr int64_t kMemBudgetBytes = std::numeric_limits<int64_t>::max() / 2;
constexpr int kSetupRepeats = 7;
constexpr double kWarmupSeconds = 1.0;
constexpr int kSeeksPerOpen = 8;
const int kExploreMitosis[] = {16, 32, 64, 128};
const char* const kExploreQueries[] = {
    "paper", "q1",  "q3",  "q5",  "q6",        "q12",        "q14",
    "q18",   "q11", "q16", "big_group", "scan_heavy", "distinct_flags"};
/// More plan shapes than LayoutCache::kDefaultCapacity, so cycling them
/// makes every open miss the cache.
constexpr size_t kMinExploreLayouts = 40;

enum Class { kShort = 0, kLong = 1, kOther = 2 };

using MetricTable = std::vector<std::pair<const char*, const char*>>;

/// The per-layer table every traced serve or record run prints, in this
/// order (BENCHMARK.json declares the same names and units).
const MetricTable kLayerMetrics = {
    {"sql.compile_us_p50", "us"},
    {"optimizer.run_us_p50", "us"},
    {"optimizer.passes_fired_ratio", "ratio"},
    {"server.admit_us_p50", "us"},
    {"dot.write_us_p50", "us"},
    {"analysis.progress_model_us_p50", "us"},
    {"obs.profile_fold_us_p50", "us"},
    {"engine.execute_us_p50", "us"},
    {"engine.avg_concurrency", "threads"},
    {"engine.pool_steals_per_query", "count"},
    {"profiler.events_per_query", "count"},
    {"profiler.record_us_p50", "us"},
    {"profiler.reordered_per_query", "count"},
    {"unattributed_short_us_p50", "us"},
    {"unattributed_long_us_p50", "us"},
    {"trace_overhead_pct", "%"},
};

/// The monitor workload's table. Monitor is not declared in BENCHMARK.json
/// while its loss check fails now and then on a loaded host (README.md).
const MetricTable kMonitorLayerMetrics = {
    {"sql.compile_us_p50", "us"},
    {"optimizer.run_us_p50", "us"},
    {"optimizer.passes_fired_ratio", "ratio"},
    {"server.admit_us_p50", "us"},
    {"dot.write_us_p50", "us"},
    {"analysis.progress_model_us_p50", "us"},
    {"obs.profile_fold_us_p50", "us"},
    {"engine.execute_us_p50", "us"},
    {"engine.avg_concurrency", "threads"},
    {"engine.pool_steals_per_query", "count"},
    {"profiler.events_per_query", "count"},
    {"scope.monitor_overhead_us_p50", "us"},
    {"scope.analysis_rounds_per_query", "count"},
    {"scope.color_updates_per_query", "count"},
    {"net.events_per_query", "count"},
    {"net.reordered_per_query", "count"},
    {"dot.parse_us_p50", "us"},
    {"scope.scene_build_us_p50", "us"},
    {"layout.cache_hit_ratio", "ratio"},
    {"unattributed_short_us_p50", "us"},
    {"unattributed_long_us_p50", "us"},
    {"trace_overhead_pct", "%"},
};

/// The explore workload's table. Explore is not declared in BENCHMARK.json
/// while opening large plans can crash the program (README.md).
const MetricTable kExploreLayerMetrics = {
    {"dot.parse_us_p50", "us"},
    {"trace.parse_us_p50", "us"},
    {"layout.cold_us_p50", "us"},
    {"layout.cache_hit_ratio", "ratio"},
    {"scope.scene_build_us_p50", "us"},
    {"scope.seek_us_p50", "us"},
    {"viz.frame_us_p50", "us"},
    {"viz.glyphs_per_frame", "count"},
    {"analysis.lint_plan_us_p50", "us"},
    {"analysis.lint_trace_us_p50", "us"},
    {"analysis.findings_per_trace", "count"},
    {"unattributed_short_us_p50", "us"},
    {"unattributed_long_us_p50", "us"},
    {"trace_overhead_pct", "%"},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "stetho_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CounterNow(const char* name) {
  auto value = obs::Registry::Default()->CounterValue(name);
  return value.ok() ? value.value() : 0;
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}
/// Pooled ratio of two per-operation counts.
double Ratio(const std::vector<double>& num, const std::vector<double>& den) {
  const double d = Sum(den);
  return d > 0 ? Sum(num) / d : 0;
}

/// Named samples keyed by class, e.g. samples["optimizer"][kShort].
struct Samples {
  std::map<std::string, std::vector<double>> by_key;
  void Add(const std::string& key, int cls, double value) {
    by_key[key + "#" + std::to_string(cls)].push_back(value);
    by_key[key + "#all"].push_back(value);
  }
  const std::vector<double>& Get(const std::string& key, int cls) const {
    static const std::vector<double> kEmpty;
    auto it = by_key.find(key + "#" + (cls < 0 ? std::string("all")
                                               : std::to_string(cls)));
    return it == by_key.end() ? kEmpty : it->second;
  }
  double Med(const std::string& key, int cls = -1) const {
    return Median(Get(key, cls));
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- output checks ---

/// Reports a failed output check of operation `op` on stderr; returns `ok`.
bool Expect(bool ok, const std::string& op, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "stetho_perfbench: %s: %s\n", op.c_str(),
                 what.c_str());
  }
  return ok;
}

bool SameValue(const storage::Value& a, const storage::Value& b) {
  if (a.type() == storage::DataType::kDouble &&
      b.type() == storage::DataType::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(x));
  }
  return a == b;
}

/// Results agree column by column; doubles within 1e-9 relative, because
/// partitioned sums add in a different order than the sequential reference.
bool SameResult(const engine::QueryResult& got,
                const engine::QueryResult& want) {
  if (got.columns.size() != want.columns.size()) return false;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const engine::ResultColumn& g = got.columns[c];
    const engine::ResultColumn& w = want.columns[c];
    if (g.name != w.name || g.is_scalar != w.is_scalar) return false;
    if (g.is_scalar) {
      if (!SameValue(g.scalar, w.scalar)) return false;
      continue;
    }
    if ((g.column == nullptr) != (w.column == nullptr)) return false;
    if (g.column == nullptr) continue;
    if (g.column->size() != w.column->size()) return false;
    for (size_t i = 0; i < g.column->size(); ++i) {
      if (!SameValue(g.column->GetValue(i), w.column->GetValue(i))) {
        return false;
      }
    }
  }
  return true;
}

storage::Catalog MakeCatalog() {
  tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  auto catalog = tpch::GenerateTpch(config);
  if (!catalog.ok()) Die("dbgen: " + catalog.status().ToString());
  return std::move(catalog).value();
}

std::string QuerySql(const std::string& id) {
  auto q = tpch::GetQuery(id);
  if (!q.ok()) Die("unknown query " + id);
  return q.value().sql;
}

/// A Fisher-Yates permutation of `items` drawn from `seed`.
template <typename T>
std::vector<T> SeededOrder(std::vector<T> items, uint64_t seed) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
  return items;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int list_ops = -1;
};

/// Operation counts and the measured wall time of one run.
struct RunTotals {
  int64_t attempted = 0;
  int64_t failed = 0;
  double measured_s = 0;
};

/// One workload: builds its inputs, then runs operations by sequence index.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input the operations need (timed as setup_s).
  virtual void Setup() = 0;
  /// Number of distinct operations the sequence cycles through.
  virtual size_t CycleLength() const = 0;
  /// Label of operation i (same seed, same labels).
  virtual std::string Label(size_t i) const = 0;
  /// Runs operation i plainly; returns false on a failed output check.
  virtual bool Run(size_t i, double* latency_us, int* cls) = 0;
  /// Runs operation i split into timed layer calls (trace 1), recording
  /// layer samples; `latency_us` is the instrumented operation's wall time.
  virtual bool RunTraced(size_t i, double* latency_us, int* cls) = 0;
  /// Per-layer metrics; `plain` holds the plain operations' latencies.
  virtual std::vector<Metric> LayerMetrics(const Samples& plain) const = 0;

 protected:
  Samples layers_;
};

// ---------------------------------------------------------------------------
// serve / record / monitor: queries through the profiled server.

struct QuerySpec {
  std::string id;
  int cls;
};

class QueryWorkload : public Workload {
 public:
  QueryWorkload(std::vector<QuerySpec> mix, uint64_t seed)
      : mix_(std::move(mix)), seed_(seed) {}

  void Setup() override {
    storage::Catalog catalog = MakeCatalog();
    server::MserverOptions ref_options;
    ref_options.force_sequential = true;
    server::Mserver reference(catalog, ref_options);
    reference_.clear();
    for (const QuerySpec& q : mix_) {
      auto outcome = reference.ExecuteSql(QuerySql(q.id));
      if (!outcome.ok()) {
        Die("reference " + q.id + ": " + outcome.status().ToString());
      }
      reference_[q.id] = std::move(outcome.value().result);
    }
    server::MserverOptions options;
    options.dop = kDop;
    options.mitosis_pieces = kMitosis;
    options.mem_budget_bytes = kMemBudgetBytes;
    server_ = std::make_unique<server::Mserver>(std::move(catalog), options);
  }

  size_t CycleLength() const override { return mix_.size(); }
  std::string Label(size_t i) const override { return Spec(i).id; }

 protected:
  /// Operation i: round i / |mix| runs every query of the mix once, in a
  /// permutation drawn from (seed, round). Classes interleave, and no query
  /// always follows the same predecessor, whose cache footprint it would
  /// otherwise inherit in every round.
  QuerySpec Spec(size_t i) const {
    const size_t n = mix_.size();
    return SeededOrder(mix_, seed_ * 1000003 + i / n)[i % n];
  }

  /// ExecuteSql rebuilt from each layer's public functions, every call
  /// timed: the same work as Mserver::ExecuteSql minus its private
  /// bookkeeping (scoreboard ring, slow-query gate), which the unattributed
  /// remainder then shows. `plan_size`, if given, receives the optimized
  /// plan's instruction count.
  bool SplitExecute(const QuerySpec& q, double* wall_us,
                    size_t* plan_size = nullptr) {
    storage::Catalog* catalog = server_->catalog();
    const std::string sql = QuerySql(q.id);
    const int64_t events0 = CounterNow("stetho_profiler_events_emitted_total");
    const int64_t steals0 = CounterNow("stetho_pool_steals_total");
    const double t0 = NowUs();
    auto compiled = sql::Compiler::CompileSql(catalog, sql);
    const double t1 = NowUs();
    if (!compiled.ok()) return false;
    mal::Program program = std::move(compiled).value();
    program.set_function_name("user.bench");
    optimizer::Pipeline pipeline = optimizer::Pipeline::Default(kMitosis);
    auto fired = pipeline.Run(&program);
    const double t2 = NowUs();
    if (!fired.ok()) return false;
    analysis::MemoryReport memory = analysis::AnalyzeMemory(program);
    const int64_t predicted =
        analysis::ParallelPeakBound(program, memory, kDop);
    const double t3 = NowUs();
    if (predicted > kMemBudgetBytes) return false;
    dot::DotWriterOptions dot_options;
    dot_options.graph_name = program.function_name();
    const std::string dot = dot::ProgramToDot(program, dot_options);
    const double t4 = NowUs();
    auto estimator = std::make_shared<analysis::ProgressEstimator>(
        analysis::ProgressModelCache::Default()->GetOrBuild(program));
    const double t5 = NowUs();
    engine::Interpreter interp(catalog);
    engine::ExecOptions exec;
    exec.num_threads = kDop;
    exec.profiler = server_->profiler();
    exec.progress = estimator.get();
    auto result = interp.Execute(program, exec);
    const double t6 = NowUs();
    if (!result.ok()) return false;
    estimator->MarkFinished();
    const uint64_t shape = analysis::PlanShapeHash(program);
    (void)obs::ProfileStore::Default()->Lookup(shape);
    obs::QueryObservation observation = estimator->ToObservation(shape);
    observation.total_usec = result.value().total_usec;
    const Status folded = obs::ProfileStore::Default()->Fold(observation);
    const double t7 = NowUs();
    *wall_us = t7 - t0;
    if (plan_size != nullptr) *plan_size = program.size();

    layers_.Add("sql.compile", q.cls, t1 - t0);
    layers_.Add("optimizer.run", q.cls, t2 - t1);
    layers_.Add("server.admit", q.cls, t3 - t2);
    layers_.Add("dot.write", q.cls, t4 - t3);
    layers_.Add("analysis.progress_model", q.cls, t5 - t4);
    layers_.Add("engine.execute", q.cls, t6 - t5);
    layers_.Add("obs.profile_fold", q.cls, t7 - t6);
    layers_.Add("optimizer.passes_fired_ratio", q.cls,
                static_cast<double>(fired.value().size()) /
                    static_cast<double>(std::max<size_t>(1, pipeline.size())));
    double busy_us = 0;
    for (const engine::InstructionStat& s : result.value().stats) {
      busy_us += static_cast<double>(s.usec);
    }
    layers_.Add("engine.avg_concurrency", q.cls,
                busy_us / std::max(1.0, t6 - t5));
    const int64_t steals = CounterNow("stetho_pool_steals_total") - steals0;
    const int64_t events =
        CounterNow("stetho_profiler_events_emitted_total") - events0;
    layers_.Add("engine.pool_steals", q.cls, static_cast<double>(steals));
    layers_.Add("profiler.events", q.cls, static_cast<double>(events));
    return Expect(!dot.empty(), q.id, "empty dot") &&
           Expect(folded.ok(), q.id, folded.ToString()) &&
           Expect(SameResult(result.value(), reference_.at(q.id)), q.id,
                  "split execution differs from the sequential reference");
  }

  /// Server-side layer metrics from SplitExecute samples. `total_us(cls)`
  /// is the class median the timed layers should account for; the rest is
  /// reported as unattributed.
  void AddServerLayerMetrics(const std::function<double(int)>& total_us,
                             std::vector<Metric>* out) const {
    static const char* const kTimed[] = {
        "sql.compile",     "optimizer.run",           "server.admit",
        "dot.write",       "analysis.progress_model", "engine.execute",
        "obs.profile_fold", "profiler.record"};
    auto unattributed = [&](int cls) {
      double sum = 0;
      for (const char* key : kTimed) sum += layers_.Med(key, cls);
      return total_us(cls) - sum;
    };
    out->push_back(
        {"sql.compile_us_p50", layers_.Med("sql.compile", kShort), "us"});
    out->push_back(
        {"optimizer.run_us_p50", layers_.Med("optimizer.run", kShort), "us"});
    out->push_back({"optimizer.passes_fired_ratio",
                    layers_.Med("optimizer.passes_fired_ratio"), "ratio"});
    out->push_back(
        {"server.admit_us_p50", layers_.Med("server.admit", kShort), "us"});
    out->push_back(
        {"dot.write_us_p50", layers_.Med("dot.write", kShort), "us"});
    out->push_back({"analysis.progress_model_us_p50",
                    layers_.Med("analysis.progress_model", kShort), "us"});
    out->push_back({"obs.profile_fold_us_p50",
                    layers_.Med("obs.profile_fold", kShort), "us"});
    out->push_back(
        {"engine.execute_us_p50", layers_.Med("engine.execute", kLong), "us"});
    out->push_back({"engine.avg_concurrency",
                    layers_.Med("engine.avg_concurrency", kLong), "threads"});
    out->push_back({"engine.pool_steals_per_query",
                    Mean(layers_.Get("engine.pool_steals", -1)), "count"});
    out->push_back({"profiler.events_per_query",
                    Mean(layers_.Get("profiler.events", -1)), "count"});
    out->push_back({"unattributed_short_us_p50", unattributed(kShort), "us"});
    out->push_back({"unattributed_long_us_p50", unattributed(kLong), "us"});
  }

  std::vector<QuerySpec> mix_;
  uint64_t seed_;
  std::map<std::string, engine::QueryResult> reference_;
  std::unique_ptr<server::Mserver> server_;
};

class ServeWorkload : public QueryWorkload {
 public:
  explicit ServeWorkload(uint64_t seed)
      : QueryWorkload({{"paper", kShort},
                       {"q6", kShort},
                       {"q14", kShort},
                       {"q3", kOther},
                       {"q1", kLong}},
                      seed) {}

  bool Run(size_t i, double* latency_us, int* cls) override {
    const QuerySpec q = Spec(i);
    *cls = q.cls;
    const double t0 = NowUs();
    auto outcome = server_->ExecuteSql(QuerySql(q.id));
    *latency_us = NowUs() - t0;
    if (!Expect(outcome.ok(), q.id, outcome.status().ToString())) return false;
    return Expect(SameResult(outcome.value().result, reference_.at(q.id)), q.id,
                  "result differs from the sequential reference");
  }

  bool RunTraced(size_t i, double* latency_us, int* cls) override {
    const QuerySpec q = Spec(i);
    *cls = q.cls;
    return SplitExecute(q, latency_us);
  }

  std::vector<Metric> LayerMetrics(const Samples& plain) const override {
    std::vector<Metric> out;
    AddServerLayerMetrics([&](int cls) { return plain.Med("op", cls); }, &out);
    return out;
  }
};

class RecordWorkload : public QueryWorkload {
 public:
  explicit RecordWorkload(uint64_t seed)
      : QueryWorkload({{"paper", kShort},
                       {"q6", kShort},
                       {"q14", kShort},
                       {"q3", kOther},
                       {"q1", kLong}},
                      seed) {}

  void Setup() override {
    QueryWorkload::Setup();
    ring_ = std::make_shared<profiler::RingBufferSink>(kRecordRingCapacity);
    server_->profiler()->AddSink(ring_);
  }

  bool Run(size_t i, double* latency_us, int* cls) override {
    const QuerySpec q = Spec(i);
    *cls = q.cls;
    ring_->Clear();
    const double t0 = NowUs();
    auto outcome = server_->ExecuteSql(QuerySql(q.id));
    if (!Expect(outcome.ok(), q.id, outcome.status().ToString())) return false;
    const std::vector<profiler::TraceEvent> events = ring_->Snapshot();
    const std::string trace = FormatTrace(events);
    *latency_us = NowUs() - t0;
    return Expect(SameResult(outcome.value().result, reference_.at(q.id)),
                  q.id, "result differs from the sequential reference") &&
           CheckTrace(q, outcome.value().plan.size(), events, trace);
  }

  bool RunTraced(size_t i, double* latency_us, int* cls) override {
    const QuerySpec q = Spec(i);
    *cls = q.cls;
    ring_->Clear();
    double execute_us = 0;
    size_t plan_size = 0;
    const bool ok = SplitExecute(q, &execute_us, &plan_size);
    const double t0 = NowUs();
    const std::vector<profiler::TraceEvent> events = ring_->Snapshot();
    const std::string trace = FormatTrace(events);
    const double t1 = NowUs();
    *latency_us = execute_us + (t1 - t0);
    layers_.Add("profiler.record", q.cls, t1 - t0);
    // Events the ring holds behind one with a higher sequence number:
    // stamping and sink delivery are not one step (ROADMAP 1(a)).
    int64_t reordered = 0, newest = -1;
    for (const profiler::TraceEvent& e : events) {
      if (e.event < newest) ++reordered;
      newest = std::max(newest, e.event);
    }
    layers_.Add("profiler.reordered", q.cls, static_cast<double>(reordered));
    return ok && CheckTrace(q, plan_size, events, trace);
  }

  std::vector<Metric> LayerMetrics(const Samples& plain) const override {
    std::vector<Metric> out;
    AddServerLayerMetrics([&](int cls) { return plain.Med("op", cls); }, &out);
    out.push_back({"profiler.record_us_p50",
                   layers_.Med("profiler.record", kLong), "us"});
    out.push_back({"profiler.reordered_per_query",
                   Mean(layers_.Get("profiler.reordered", -1)), "count"});
    return out;
  }

 private:
  /// More than any plan of the mix emits, so the ring never overwrites.
  static constexpr size_t kRecordRingCapacity = 1 << 16;

  static std::string FormatTrace(const std::vector<profiler::TraceEvent>& events) {
    std::string trace;
    for (const profiler::TraceEvent& e : events) {
      trace += profiler::FormatTraceLine(e);
      trace += '\n';
    }
    return trace;
  }

  /// The recorded trace holds one start and one done event per plan
  /// instruction, under contiguous sequence numbers, and every line parses
  /// back to the event it was formatted from.
  bool CheckTrace(const QuerySpec& q, size_t plan_size,
                  const std::vector<profiler::TraceEvent>& events,
                  const std::string& trace) const {
    if (!Expect(ring_->dropped() == 0, q.id, "trace ring overwrote events") ||
        !Expect(!events.empty() && events.size() == 2 * plan_size, q.id,
                std::to_string(events.size()) + " events for " +
                    std::to_string(plan_size) + " instructions")) {
      return false;
    }
    std::set<int64_t> ids;
    std::set<std::pair<int, int>> pc_states;
    for (const profiler::TraceEvent& e : events) {
      ids.insert(e.event);
      pc_states.insert({e.pc, static_cast<int>(e.state)});
    }
    if (!Expect(ids.size() == events.size() &&
                    *ids.rbegin() - *ids.begin() + 1 ==
                        static_cast<int64_t>(events.size()),
                q.id, "sequence numbers repeat or leave a gap") ||
        !Expect(pc_states.size() == events.size(), q.id,
                "an instruction lacks its start or done event")) {
      return false;
    }
    size_t pos = 0;
    for (const profiler::TraceEvent& e : events) {
      const size_t eol = trace.find('\n', pos);
      auto parsed = profiler::ParseTraceLine(
          std::string_view(trace).substr(pos, eol - pos));
      if (!Expect(parsed.ok() && parsed.value() == e, q.id,
                  "trace line does not parse back: " +
                      trace.substr(pos, eol - pos))) {
        return false;
      }
      pos = eol + 1;
    }
    return true;
  }

  std::shared_ptr<profiler::RingBufferSink> ring_;
};

class MonitorWorkload : public QueryWorkload {
 public:
  explicit MonitorWorkload(uint64_t seed)
      : QueryWorkload({{"paper", kShort}, {"q6", kOther}, {"q1", kLong}},
                      seed) {}

  void Setup() override {
    QueryWorkload::Setup();
    scope::OnlineOptions options;
    // No sleep may set the metric: render unpaced, analysis every 1 ms.
    options.render_interval_us = 0;
    options.analysis_period_us = 1000;
    monitor_ = std::make_unique<scope::OnlineMonitor>(server_.get(), options);
  }

  bool Run(size_t i, double* latency_us, int* cls) override {
    scope::OnlineReport report;
    return Monitor(Spec(i), latency_us, cls, &report);
  }

  bool RunTraced(size_t i, double* latency_us, int* cls) override {
    const QuerySpec q = Spec(i);
    const int64_t hits0 = CounterNow("stetho_layout_cache_hits_total");
    const int64_t misses0 = CounterNow("stetho_layout_cache_misses_total");
    scope::OnlineReport report;
    bool ok = Monitor(q, latency_us, cls, &report);
    const int64_t hits = CounterNow("stetho_layout_cache_hits_total") - hits0;
    const int64_t misses =
        CounterNow("stetho_layout_cache_misses_total") - misses0;
    layers_.Add("layout.lookups", q.cls, static_cast<double>(hits + misses));
    layers_.Add("layout.hits", q.cls, static_cast<double>(hits));
    layers_.Add("scope.analysis_rounds", q.cls,
                static_cast<double>(report.analysis_rounds));
    layers_.Add("scope.color_updates", q.cls,
                static_cast<double>(report.color_updates));
    layers_.Add("net.events", q.cls,
                static_cast<double>(report.events_received));
    layers_.Add("net.reordered", q.cls,
                static_cast<double>(report.pipe_health.reordered));
    // The client-side stages the report cannot time: parse the received
    // dot and build the scene over the (now cached) layout.
    const double t0 = NowUs();
    auto graph = dot::ParseDot(report.dot);
    const double t1 = NowUs();
    if (!graph.ok()) return false;
    scope::ReplayOptions replay;
    replay.render_interval_us = 0;
    auto scene = scope::OfflineReplayer::Create(graph.value(), {}, replay);
    const double t2 = NowUs();
    ok = ok && scene.ok();
    layers_.Add("dot.parse", q.cls, t1 - t0);
    layers_.Add("scope.scene_build", q.cls, t2 - t1);
    // The same query with no monitor attached, for the monitor's overhead.
    double serve_us = 0;
    ok = SplitExecute(q, &serve_us) && ok;
    layers_.Add("scope.monitor_overhead", q.cls, *latency_us - serve_us);
    return ok;
  }

  std::vector<Metric> LayerMetrics(const Samples& plain) const override {
    // The monitored query's layers: the server's, plus what monitoring adds.
    std::vector<Metric> out;
    AddServerLayerMetrics(
        [&](int cls) {
          return plain.Med("op", cls) -
                 layers_.Med("scope.monitor_overhead", cls);
        },
        &out);
    out.push_back({"scope.monitor_overhead_us_p50",
                   layers_.Med("scope.monitor_overhead", kShort), "us"});
    out.push_back({"scope.scene_build_us_p50",
                   layers_.Med("scope.scene_build"), "us"});
    out.push_back({"dot.parse_us_p50", layers_.Med("dot.parse"), "us"});
    out.push_back({"scope.analysis_rounds_per_query",
                   Mean(layers_.Get("scope.analysis_rounds", -1)), "count"});
    out.push_back({"scope.color_updates_per_query",
                   Mean(layers_.Get("scope.color_updates", -1)), "count"});
    out.push_back({"net.events_per_query",
                   Mean(layers_.Get("net.events", -1)), "count"});
    out.push_back({"net.reordered_per_query",
                   Mean(layers_.Get("net.reordered", -1)), "count"});
    out.push_back({"layout.cache_hit_ratio",
                   Ratio(layers_.Get("layout.hits", -1),
                         layers_.Get("layout.lookups", -1)),
                   "ratio"});
    return out;
  }

 private:
  bool Monitor(const QuerySpec& q, double* latency_us, int* cls,
               scope::OnlineReport* report) {
    *cls = q.cls;
    const double t0 = NowUs();
    auto r = monitor_->MonitorQuery(QuerySql(q.id));
    *latency_us = NowUs() - t0;
    if (!Expect(r.ok(), q.id, r.status().ToString())) return false;
    *report = std::move(r).value();
    return Expect(SameResult(report->outcome.result, reference_.at(q.id)), q.id,
                  "result differs from the sequential reference") &&
           Expect(report->final_progress == 1.0, q.id,
                  "final progress " + std::to_string(report->final_progress)) &&
           Expect(report->graph_nodes == report->outcome.plan.size(), q.id,
                  "graph has " + std::to_string(report->graph_nodes) +
                      " nodes, plan " +
                      std::to_string(report->outcome.plan.size())) &&
           Expect(report->pipe_health.lost == 0, q.id, LossDetail(*report));
  }

  /// Says whether the events StreamHealth counted lost never arrived or
  /// arrived too late (beyond its reorder window).
  static std::string LossDetail(const scope::OnlineReport& report) {
    std::set<int64_t> ids;
    for (const profiler::TraceEvent& e : report.events) ids.insert(e.event);
    const int64_t span = ids.empty() ? 0 : *ids.rbegin() - *ids.begin() + 1;
    return std::to_string(report.pipe_health.lost) + " events counted lost; " +
           std::to_string(span - static_cast<int64_t>(ids.size())) + " of " +
           std::to_string(span) + " sequence numbers never arrived";
  }

  std::unique_ptr<scope::OnlineMonitor> monitor_;
};

// ---------------------------------------------------------------------------
// explore: open, scrub, view and lint recorded traces.

struct Artifact {
  std::string label;
  int cls;
  mal::Program plan;
  std::string dot;
  std::string trace;
};

class ExploreWorkload : public Workload {
 public:
  explicit ExploreWorkload(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    storage::Catalog catalog = MakeCatalog();
    std::vector<Artifact> artifacts;
    std::set<uint64_t> layout_keys;
    for (int mitosis : kExploreMitosis) {
      server::MserverOptions options;
      options.dop = kDop;
      options.mitosis_pieces = mitosis;
      server::Mserver server(catalog, options);
      for (const char* id : kExploreQueries) {
        auto ring = std::make_shared<profiler::RingBufferSink>(1 << 18);
        server.profiler()->ClearSinks();
        server.profiler()->AddSink(ring);
        auto outcome = server.ExecuteSql(QuerySql(id));
        if (!outcome.ok()) {
          Die(std::string("record ") + id + ": " +
              outcome.status().ToString());
        }
        Artifact a;
        a.label = std::string(id) + "@m" + std::to_string(mitosis);
        a.cls = mitosis <= 32 ? kShort : kLong;
        a.dot = outcome.value().dot;
        for (const profiler::TraceEvent& e : ring->Snapshot()) {
          a.trace += profiler::FormatTraceLine(e);
          a.trace += '\n';
        }
        a.plan = std::move(outcome.value().plan);
        auto graph = dot::ParseDot(a.dot);
        if (!graph.ok()) Die("recorded dot does not parse: " + a.label);
        // A plan that mitosis left unchanged repeats a layout; keeping it
        // would turn its second open into a cache hit.
        const uint64_t key = layout::LayoutCache::HashKey(graph.value(), {});
        if (!layout_keys.insert(key).second) continue;
        artifacts.push_back(std::move(a));
      }
    }
    distinct_layouts_ = layout_keys.size();
    if (distinct_layouts_ < kMinExploreLayouts) {
      Die("explore recorded only " + std::to_string(distinct_layouts_) +
          " distinct plan layouts");
    }
    // One fixed seeded order, cycled: every artifact recurs only after all
    // the others, so the LRU layout cache never holds it any more.
    artifacts_ = SeededOrder(std::move(artifacts), seed_);
  }

  size_t CycleLength() const override { return artifacts_.size(); }
  std::string Label(size_t i) const override {
    return artifacts_[i % artifacts_.size()].label;
  }

  bool Run(size_t i, double* latency_us, int* cls) override {
    const Artifact& a = artifacts_[i % artifacts_.size()];
    *cls = a.cls;
    std::vector<size_t> seeks = SeekTargets(i);
    const double t0 = NowUs();
    auto graph = dot::ParseDot(a.dot);
    if (!graph.ok()) return false;
    auto events = ParseTrace(a.trace);
    if (!events.ok()) return false;
    std::vector<profiler::TraceEvent> trace = events.value();
    auto scene = scope::OfflineReplayer::Create(
        graph.value(), std::move(events).value(), ReplayOpts());
    if (!scene.ok()) return false;
    bool ok = Scrub(scene.value().get(), seeks, nullptr);
    ok = !scene.value()->BirdsEyeView().commands.empty() && ok;
    analysis::CheckContext ctx = Context(a, graph.value(), trace);
    const std::vector<analysis::Diagnostic> findings =
        analysis::Runner::Default().Run(ctx);
    ok = analysis::DiagnosticsToStatus(findings, a.label).ok() && ok;
    *latency_us = NowUs() - t0;
    return ok;
  }

  bool RunTraced(size_t i, double* latency_us, int* cls) override {
    const Artifact& a = artifacts_[i % artifacts_.size()];
    *cls = a.cls;
    std::vector<size_t> seeks = SeekTargets(i);
    const int64_t misses0 = CounterNow("stetho_layout_cache_misses_total");
    const int64_t hits0 = CounterNow("stetho_layout_cache_hits_total");
    const double t0 = NowUs();
    auto graph = dot::ParseDot(a.dot);
    const double t1 = NowUs();
    if (!graph.ok()) return false;
    auto events = ParseTrace(a.trace);
    const double t2 = NowUs();
    if (!events.ok()) return false;
    std::vector<profiler::TraceEvent> trace = events.value();
    const double t3 = NowUs();
    auto layout = layout::LayoutCache::Default()->GetOrCompute(graph.value());
    const double t4 = NowUs();
    const int64_t hits = CounterNow("stetho_layout_cache_hits_total") - hits0;
    const int64_t misses =
        CounterNow("stetho_layout_cache_misses_total") - misses0;
    if (!layout.ok()) return false;
    auto scene = scope::OfflineReplayer::Create(
        graph.value(), std::move(events).value(), ReplayOpts());
    const double t5 = NowUs();
    if (!scene.ok()) return false;
    std::vector<double> seek_us;
    bool ok = Scrub(scene.value().get(), seeks, &seek_us);
    const double t6 = NowUs();
    viz::Frame frame = scene.value()->BirdsEyeView();
    const double t7 = NowUs();
    ok = !frame.commands.empty() && ok;
    // The default suite, one check at a time, so plan and trace checks
    // are timed apart; the findings are the same as Runner::Run's.
    analysis::CheckContext ctx = Context(a, graph.value(), trace);
    std::vector<analysis::Diagnostic> findings;
    double plan_us = 0, trace_us = 0;
    for (const auto& check : analysis::Runner::Default().checks()) {
      if (!Satisfied(check->needs(), ctx)) continue;
      const double c0 = NowUs();
      check->Run(ctx, &findings);
      const bool trace_check = (check->needs() & analysis::kNeedsTrace) != 0;
      (trace_check ? trace_us : plan_us) += NowUs() - c0;
    }
    const double t8 = NowUs();
    ok = analysis::DiagnosticsToStatus(findings, a.label).ok() && ok;
    *latency_us = t8 - t0;

    layers_.Add("dot.parse", a.cls, t1 - t0);
    layers_.Add("trace.parse", a.cls, t2 - t1);
    layers_.Add("layout.cold", a.cls, t4 - t3);
    layers_.Add("scope.scene_build", a.cls, t5 - t4);
    layers_.Add("scope.seek_batch", a.cls, t6 - t5);
    for (double s : seek_us) layers_.Add("scope.seek", a.cls, s);
    layers_.Add("viz.frame", a.cls, t7 - t6);
    layers_.Add("viz.glyphs", a.cls,
                static_cast<double>(frame.commands.size()));
    layers_.Add("analysis.lint_plan", a.cls, plan_us);
    layers_.Add("analysis.lint_trace", a.cls, trace_us);
    layers_.Add("analysis.findings", a.cls,
                static_cast<double>(findings.size()));
    layers_.Add("layout.hits", a.cls, static_cast<double>(hits));
    layers_.Add("layout.lookups", a.cls, static_cast<double>(hits + misses));
    return ok;
  }

  std::vector<Metric> LayerMetrics(const Samples& plain) const override {
    static const char* const kTimed[] = {
        "dot.parse",  "trace.parse",        "layout.cold",
        "scope.scene_build", "scope.seek_batch", "viz.frame",
        "analysis.lint_plan", "analysis.lint_trace"};
    auto unattributed = [&](int cls) {
      double sum = 0;
      for (const char* key : kTimed) sum += layers_.Med(key, cls);
      return plain.Med("op", cls) - sum;
    };
    std::vector<Metric> out;
    out.push_back({"dot.parse_us_p50", layers_.Med("dot.parse"), "us"});
    out.push_back({"trace.parse_us_p50", layers_.Med("trace.parse"), "us"});
    out.push_back({"layout.cold_us_p50", layers_.Med("layout.cold"), "us"});
    out.push_back({"scope.scene_build_us_p50",
                   layers_.Med("scope.scene_build"), "us"});
    out.push_back({"scope.seek_us_p50", layers_.Med("scope.seek"), "us"});
    out.push_back({"viz.frame_us_p50", layers_.Med("viz.frame"), "us"});
    out.push_back({"viz.glyphs_per_frame", layers_.Med("viz.glyphs"), "count"});
    out.push_back({"analysis.lint_plan_us_p50",
                   layers_.Med("analysis.lint_plan"), "us"});
    out.push_back({"analysis.lint_trace_us_p50",
                   layers_.Med("analysis.lint_trace"), "us"});
    out.push_back({"analysis.findings_per_trace",
                   Mean(layers_.Get("analysis.findings", -1)), "count"});
    out.push_back({"layout.cache_hit_ratio",
                   Ratio(layers_.Get("layout.hits", -1),
                                          layers_.Get("layout.lookups", -1)),
                   "ratio"});
    out.push_back({"unattributed_short_us_p50", unattributed(kShort), "us"});
    out.push_back({"unattributed_long_us_p50", unattributed(kLong), "us"});
    return out;
  }

  size_t distinct_layouts() const { return distinct_layouts_; }

 private:
  static scope::ReplayOptions ReplayOpts() {
    scope::ReplayOptions options;
    options.render_interval_us = 0;  // scrubbing is not render-paced
    return options;
  }

  static Result<std::vector<profiler::TraceEvent>> ParseTrace(
      const std::string& text) {
    std::vector<profiler::TraceEvent> events;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      if (eol > pos) {
        const std::string_view line =
            std::string_view(text).substr(pos, eol - pos);
        STETHO_ASSIGN_OR_RETURN(profiler::TraceEvent e,
                                profiler::ParseTraceLine(line));
        events.push_back(std::move(e));
      }
      pos = eol + 1;
    }
    return events;
  }

  static bool Satisfied(unsigned needs, const analysis::CheckContext& ctx) {
    return (!(needs & analysis::kNeedsProgram) || ctx.program != nullptr) &&
           (!(needs & analysis::kNeedsGraph) || ctx.graph != nullptr) &&
           (!(needs & analysis::kNeedsTrace) || ctx.trace != nullptr) &&
           (!(needs & analysis::kNeedsRegistry) || ctx.registry != nullptr) &&
           (!(needs & analysis::kNeedsSpans) || ctx.spans != nullptr) &&
           (!(needs & analysis::kNeedsProfile) || ctx.profile != nullptr);
  }

  static analysis::CheckContext Context(
      const Artifact& a, const dot::Graph& graph,
      const std::vector<profiler::TraceEvent>& trace) {
    analysis::CheckContext ctx;
    ctx.program = &a.plan;
    ctx.graph = &graph;
    ctx.trace = &trace;
    ctx.registry = engine::ModuleRegistry::Default();
    return ctx;
  }

  /// Seek targets for operation i: seeded, so a seed fixes every cursor.
  std::vector<size_t> SeekTargets(size_t i) const {
    const Artifact& a = artifacts_[i % artifacts_.size()];
    const size_t events = static_cast<size_t>(
        std::count(a.trace.begin(), a.trace.end(), '\n'));
    SplitMix64 rng(seed_ * 1000003 + i);
    std::vector<size_t> targets;
    for (int k = 0; k < kSeeksPerOpen; ++k) {
      targets.push_back(rng.NextBounded(events + 1));
    }
    return targets;
  }

  /// Seeks to every target; each must land on the requested cursor.
  static bool Scrub(scope::OfflineReplayer* scene,
                    const std::vector<size_t>& targets,
                    std::vector<double>* seek_us) {
    bool ok = true;
    for (size_t target : targets) {
      const double t0 = NowUs();
      ok = scene->SeekTo(target).ok() && scene->cursor() == target && ok;
      if (seek_us != nullptr) seek_us->push_back(NowUs() - t0);
    }
    scene->dispatcher()->Drain();
    return ok;
  }

  uint64_t seed_;
  std::vector<Artifact> artifacts_;
  size_t distinct_layouts_ = 0;
};

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "record") return std::make_unique<RecordWorkload>(seed);
  if (name == "monitor") return std::make_unique<MonitorWorkload>(seed);
  if (name == "explore") return std::make_unique<ExploreWorkload>(seed);
  Die("unknown workload '" + name + "' (serve, record, monitor, explore)");
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--list-ops") {
      args.list_ops = std::atoi(value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    Die("usage: --workload W --seed N --seconds S --trace 0|1 [--list-ops K]");
  }
  return args;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);

  // Set-up is repeated and its median reported, so one slow set-up does
  // not decide setup_s; the last set-up's inputs are the ones measured.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = NowUs();
    workload->Setup();
    setup_s.push_back((NowUs() - t0) / 1e6);
    if (args.list_ops >= 0) break;
  }
  if (args.list_ops >= 0) {
    for (int i = 0; i < args.list_ops; ++i) {
      std::printf("%s\n", workload->Label(static_cast<size_t>(i)).c_str());
    }
    if (auto* explore = dynamic_cast<ExploreWorkload*>(workload.get())) {
      std::printf("distinct_layouts %zu\n", explore->distinct_layouts());
    }
    return 0;
  }

  RunTotals totals;
  Samples plain;   // plain operations' latencies, by class
  Samples traced;  // instrumented operations' latencies, by class
  size_t i = 0;
  auto one = [&](bool record) {
    double latency_us = 0;
    int cls = kOther;
    // A traced run alternates plain and instrumented operations, flipping
    // the parity every cycle so each input is measured both ways; running
    // both forms of one input back to back would hand the second a warm
    // layout cache.
    const size_t cycle = workload->CycleLength();
    const bool instrument = args.trace == 1 && (i + i / cycle) % 2 == 1;
    const bool ok = instrument ? workload->RunTraced(i, &latency_us, &cls)
                               : workload->Run(i, &latency_us, &cls);
    ++i;
    if (!record) return;
    ++totals.attempted;
    if (!ok) ++totals.failed;
    (instrument ? traced : plain).Add("op", cls, latency_us);
  };

  const double warm_end = NowUs() + kWarmupSeconds * 1e6;
  while (NowUs() < warm_end) one(false);
  const double start = NowUs();
  const double deadline = start + args.seconds * 1e6;
  while (NowUs() < deadline) one(true);
  totals.measured_s = (NowUs() - start) / 1e6;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    auto ms = [&](int cls, double q) {
      return Quantile(plain.Get("op", cls), q) / 1000.0;
    };
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ops_per_s",
         static_cast<double>(totals.attempted) / totals.measured_s, "1/s"},
        {"short_ms_p50", ms(kShort, 0.5), "ms"},
        {"short_ms_p90", ms(kShort, 0.9), "ms"},
        {"long_ms_p50", ms(kLong, 0.5), "ms"},
        {"long_ms_p90", ms(kLong, 0.9), "ms"},
    };
  } else {
    // serve and record both print the whole declared table; a layer the
    // workload's operations never call reads 0.
    std::map<std::string, double> measured;
    for (const Metric& m : workload->LayerMetrics(plain)) {
      measured[m.name] = m.value;
    }
    // Tracing overhead: instrumented over plain class medians, averaged
    // over the short and long classes.
    measured["trace_overhead_pct"] =
        50.0 * (traced.Med("op", kShort) / plain.Med("op", kShort) +
                traced.Med("op", kLong) / plain.Med("op", kLong)) -
        100.0;
    const MetricTable& table =
        args.workload == "explore"   ? kExploreLayerMetrics
        : args.workload == "monitor" ? kMonitorLayerMetrics
                                     : kLayerMetrics;
    for (const auto& [name, unit] : table) {
      auto it = measured.find(name);
      metrics.push_back({name, it == measured.end() ? 0.0 : it->second, unit});
      if (it != measured.end()) measured.erase(it);
    }
    if (!measured.empty()) {
      Die("undeclared layer metric " + measured.begin()->first);
    }
  }

  // Context line: host, sample counts (p90 needs >= 10 samples beyond it).
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1;
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %ld, \"loadavg\": [%.2f, %.2f, %.2f], "
      "\"short_samples\": %zu, \"long_samples\": %zu, \"measured_s\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace,
      sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2],
      plain.Get("op", kShort).size(), plain.Get("op", kLong).size(),
      Num(totals.measured_s).c_str());

  std::string json = "{\"correct\": ";
  json += totals.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(totals.attempted);
  json += ", \"failed\": " + std::to_string(totals.failed);
  json += ", \"metrics\": {";
  for (size_t m = 0; m < metrics.size(); ++m) {
    if (m > 0) json += ", ";
    json += "\"" + metrics[m].name + "\": {\"value\": " +
            Num(metrics[m].value) + ", \"unit\": \"" + metrics[m].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
