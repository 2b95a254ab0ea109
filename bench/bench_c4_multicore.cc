// Experiment C4 (paper §5, online demo): "Multi-core utilization analysis
// exhibits degree of multi-threaded parallelization of MAL instructions",
// and the uncovered anomaly — "sequential execution of a MAL plan where
// multithreaded execution was expected".
//
// Sweeps the degree of parallelism over a mitosis-partitioned plan,
// reporting wall time and the utilization metrics the Stethoscope computes
// from the trace. The anomaly case (force_sequential) must be flagged.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench_util.h"
#include "engine/interpreter.h"
#include "mal/program.h"
#include "profiler/sink.h"
#include "scope/analysis.h"

namespace {

using namespace stetho;

void BM_QueryAtDop(benchmark::State& state) {
  const int dop = static_cast<int>(state.range(0));
  server::MserverOptions options;
  options.dop = dop;
  options.mitosis_pieces = 16;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.02);
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  server->profiler()->AddSink(ring);
  const std::string sql = tpch::GetQuery("q1").value().sql;

  for (auto _ : state) {
    ring->Clear();
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(outcome);
  }
  const std::vector<profiler::TraceEvent> trace = ring->Snapshot();
  auto report = scope::AnalyzeThreadUtilization(profiler::TraceIndex(trace));
  state.counters["dop"] = dop;
  state.counters["threads_used"] = static_cast<double>(report.threads.size());
  state.counters["max_concurrency"] =
      static_cast<double>(report.max_concurrency);
  state.counters["avg_concurrency"] = report.avg_concurrency;
}
BENCHMARK(BM_QueryAtDop)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The anomaly: a sequential server analyzed with the same tooling.
void BM_SequentialAnomaly(benchmark::State& state) {
  server::MserverOptions options;
  options.dop = 4;
  options.mitosis_pieces = 16;
  options.force_sequential = true;
  auto server = bench::MakeServer(options, 0.02);
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  server->profiler()->AddSink(ring);
  const std::string sql = tpch::GetQuery("q1").value().sql;
  for (auto _ : state) {
    ring->Clear();
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) {
      state.SkipWithError("query failed");
      return;
    }
  }
  const std::vector<profiler::TraceEvent> trace = ring->Snapshot();
  auto diag = scope::DiagnoseParallelism(profiler::TraceIndex(trace), 4);
  state.counters["anomaly_flagged"] = diag.sequential_anomaly ? 1 : 0;
  state.counters["max_concurrency"] =
      static_cast<double>(diag.max_concurrency);
  state.SetLabel(diag.sequential_anomaly ? "ANOMALY detected" : "no anomaly");
}
BENCHMARK(BM_SequentialAnomaly)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Wall-clock speedup on an embarrassingly-parallel MAL plan (independent
/// debug.spin instructions): the dataflow scheduler must scale near-
/// linearly until the core count is hit.
void BM_IndependentWorkSpeedup(benchmark::State& state) {
  const int dop = static_cast<int>(state.range(0));
  mal::Program plan;
  std::vector<int> outs;
  for (int i = 0; i < 16; ++i) {
    int v = plan.AddVariable(mal::MalType::Scalar(storage::DataType::kInt64));
    plan.Add("debug", "spin", {v},
             {mal::Argument::Const(storage::Value::Int(3000000))});
    outs.push_back(v);
  }
  for (int v : outs) plan.Add("io", "print", {}, {mal::Argument::Var(v)});
  storage::Catalog& catalog = bench::SharedCatalog();
  engine::Interpreter interp(&catalog);
  engine::ExecOptions exec;
  exec.num_threads = dop;
  for (auto _ : state) {
    auto r = interp.Execute(plan, exec);
    if (!r.ok()) {
      state.SkipWithError("exec failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["dop"] = dop;
}
BENCHMARK(BM_IndependentWorkSpeedup)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Scaling of the analysis itself over trace size.
void BM_UtilizationAnalysis(benchmark::State& state) {
  auto events = bench::SyntheticTrace(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto report = scope::AnalyzeThreadUtilization(profiler::TraceIndex(events));
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_UtilizationAnalysis)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  using namespace stetho;
  std::printf("=== C4: utilization distribution by degree of parallelism "
              "(TPC-H Q1, mitosis=16) ===\n");
  const std::string sql = tpch::GetQuery("q1").value().sql;
  for (int dop : {1, 2, 4}) {
    server::MserverOptions options;
    options.dop = dop;
    options.mitosis_pieces = 16;
    auto server = bench::MakeServer(options, 0.02);
    auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
    server->profiler()->AddSink(ring);
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) continue;
    const std::vector<profiler::TraceEvent> trace = ring->Snapshot();
    auto report = scope::AnalyzeThreadUtilization(profiler::TraceIndex(trace));
    std::printf("dop=%d wall=%lldus threads=%zu peak_conc=%zu avg_conc=%.2f\n",
                dop, static_cast<long long>(report.wall_us),
                report.threads.size(), report.max_concurrency,
                report.avg_concurrency);
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
