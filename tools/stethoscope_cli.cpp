// stethoscope — the command-line entry point a downstream user runs.
//
//   stethoscope explain "<sql>"          print the optimized MAL plan
//   stethoscope run "<sql>"              execute; print an ASCII result table
//   stethoscope record "<sql>" <prefix>  run and write <prefix>.dot/.trace
//   stethoscope replay <dot> <trace>     offline analysis of recorded files
//   stethoscope monitor "<sql>"          online monitoring report
//   stethoscope session <dot> <trace>    interactive session (commands on
//                                        stdin; try "help")
//   stethoscope diff <a.trace> <b.trace> [plan.mal]
//                                        per-pc performance diff of two
//                                        recorded traces (plan adds
//                                        critical-path attribution)
//   stethoscope queries                  list the built-in query suite
//
// Common flags (before the subcommand):
//   --sf <double>      TPC-H scale factor           (default 0.01)
//   --dop <int>        worker threads               (default hardware)
//   --mitosis <int>    mitosis partitions           (default 8)
//   --seed <int>       data generator seed          (default 19920712)
//   --sequential       force sequential execution (the anomaly)
//   --metrics          print the metrics registry (Prometheus text) on exit
//   --trace-json <f>   record platform spans; write Chrome trace JSON to <f>
//                      (load in Perfetto / chrome://tracing)
//   --watch            (monitor) print a live status line per analysis round
//                      (progress %%, ETA, pipe health) and the final stream
//                      health + server progress scoreboard
//   --drop <p>         (monitor) inject seeded datagram loss with
//                      probability p on the server->monitor stream — a bad
//                      network day on demand, for watching the pipeline
//                      health accounting react
//
// A SQL argument that names a built-in query ("q1", "paper"...) is expanded
// to its text.

#include <cstdio>
#include <cstring>
#include <fstream>

#include "analysis/perfdiff.h"
#include "common/string_util.h"
#include "dot/parser.h"
#include "mal/parser.h"
#include "layout/layout_cache.h"
#include "layout/sugiyama.h"
#include "layout/svg.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "profiler/sink.h"
#include "scope/analysis.h"
#include "scope/online.h"
#include "scope/replayer.h"
#include "scope/session.h"
#include "scope/timeline.h"
#include "scope/trace.h"
#include "server/mserver.h"
#include "server/result_printer.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace stetho;

namespace {

struct CliOptions {
  double sf = 0.01;
  int dop = 0;
  int mitosis = 8;
  uint64_t seed = 19920712;
  bool sequential = false;
  bool metrics = false;
  std::string trace_json;  // empty = span recording off
  bool watch = false;
  double drop_p = 0;  // monitor-stream fault injection
};

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: stethoscope [flags] <explain|run|record|replay|"
               "monitor|diff|queries> [args]\n"
               "flags: --sf N  --dop N  --mitosis N  --seed N  --sequential\n"
               "       --metrics  --trace-json FILE  --watch  --drop P\n");
  return 2;
}

std::string ResolveSql(const std::string& arg) {
  auto q = tpch::GetQuery(arg);
  return q.ok() ? q.value().sql : arg;
}

std::unique_ptr<server::Mserver> MakeServer(const CliOptions& cli) {
  tpch::TpchConfig data;
  data.scale_factor = cli.sf;
  data.seed = cli.seed;
  auto catalog = tpch::GenerateTpch(data);
  if (!catalog.ok()) {
    std::fprintf(stderr, "dbgen: %s\n", catalog.status().ToString().c_str());
    return nullptr;
  }
  server::MserverOptions options;
  options.dop = cli.dop;
  options.mitosis_pieces = cli.mitosis;
  options.force_sequential = cli.sequential;
  return std::make_unique<server::Mserver>(std::move(catalog.value()), options);
}

void PrintAnalyses(const std::vector<profiler::TraceEvent>& events) {
  const profiler::TraceIndex index(events);
  std::printf("\n-- thread utilization --\n%s",
              scope::AnalyzeThreadUtilization(index).ToString().c_str());
  auto ops = scope::AnalyzeOperators(index);
  std::printf("\n-- operators (top 10 by total time) --\n");
  for (size_t i = 0; i < ops.size() && i < 10; ++i) {
    std::printf("  %-24s calls=%-5lld total=%-8lldus max=%-8lldus "
                "peak_rss=%lldB\n",
                ops[i].op.c_str(), static_cast<long long>(ops[i].calls),
                static_cast<long long>(ops[i].total_usec),
                static_cast<long long>(ops[i].max_usec),
                static_cast<long long>(ops[i].max_rss_bytes));
  }
  auto clusters = scope::FindCostlyClusters(events, 500);
  std::printf("\n-- costly clusters (>=500us) --\n");
  for (size_t i = 0; i < clusters.size() && i < 5; ++i) {
    std::printf("  events [%zu..%zu]: %zu instructions, %lldus\n",
                clusters[i].first_event, clusters[i].last_event,
                clusters[i].pcs.size(),
                static_cast<long long>(clusters[i].total_usec));
  }
}

int CmdQueries() {
  for (const auto& q : tpch::TpchQueries()) {
    std::printf("%-14s %s\n", q.id.c_str(), q.title.c_str());
  }
  return 0;
}

int CmdExplain(const CliOptions& cli, const std::string& sql) {
  auto server = MakeServer(cli);
  if (!server) return 1;
  auto plan = server->Explain(ResolveSql(sql));
  if (!plan.ok()) return Fail(plan.status());
  std::printf("%s", plan.value().ToString().c_str());
  return 0;
}

int CmdRun(const CliOptions& cli, const std::string& sql) {
  auto server = MakeServer(cli);
  if (!server) return 1;
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  server->profiler()->AddSink(ring);
  auto outcome = server->ExecuteSql(ResolveSql(sql));
  if (!outcome.ok()) return Fail(outcome.status());
  if (obs::Tracer::Default()->enabled()) {
    // With span recording on, also run the visualization pipeline over the
    // plan's dot file so one invocation traces the full platform lifecycle:
    // parse → optimize → execute → layout → svg.
    auto graph = dot::ParseDot(outcome.value().dot);
    if (graph.ok()) {
      auto layout =
          layout::LayoutCache::Default()->GetOrCompute(graph.value());
      if (layout.ok()) {
        (void)layout::LayoutToSvg(graph.value(), *layout.value(),
                                  layout::SvgOptions());
      }
    }
  }
  std::printf("%s", server::FormatResultTable(outcome.value().result).c_str());
  std::printf("%lld us, plan of %zu instructions, peak memory %lld bytes\n",
              static_cast<long long>(outcome.value().result.total_usec),
              outcome.value().plan.size(),
              static_cast<long long>(outcome.value().result.peak_rss_bytes));
  PrintAnalyses(ring->Snapshot());
  return 0;
}

int CmdRecord(const CliOptions& cli, const std::string& sql,
              const std::string& prefix) {
  auto server = MakeServer(cli);
  if (!server) return 1;
  auto sink = profiler::FileSink::Open(prefix + ".trace");
  if (!sink.ok()) return Fail(sink.status());
  server->profiler()->AddSink(std::move(sink).value());
  auto outcome = server->ExecuteSql(ResolveSql(sql));
  if (!outcome.ok()) return Fail(outcome.status());
  std::ofstream(prefix + ".dot") << outcome.value().dot;
  std::printf("wrote %s.dot and %s.trace (%zu instructions, %zu events)\n",
              prefix.c_str(), prefix.c_str(), outcome.value().plan.size(),
              2 * outcome.value().plan.size());
  return 0;
}

int CmdReplay(const std::string& dot_path, const std::string& trace_path) {
  std::ifstream dot_in(dot_path);
  if (!dot_in) return Fail(Status::IoError("cannot read " + dot_path));
  std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                       std::istreambuf_iterator<char>());
  auto graph = dot::ParseDot(dot_text);
  if (!graph.ok()) return Fail(graph.status());
  auto events = scope::ReadTraceFile(trace_path);
  if (!events.ok()) return Fail(events.status());
  std::printf("replaying %zu events over %zu plan nodes\n",
              events.value().size(), graph.value().num_nodes());

  scope::ReplayOptions replay;
  replay.render_interval_us = 0;
  auto replayer =
      scope::OfflineReplayer::Create(graph.value(), events.value(), replay);
  if (!replayer.ok()) return Fail(replayer.status());
  auto played = replayer.value()->Play(1e12, events.value().size());
  if (!played.ok()) return Fail(played.status());

  std::ofstream(trace_path + ".view.svg")
      << replayer.value()->BirdsEyeView().ToSvg();
  std::ofstream(trace_path + ".timeline.svg")
      << scope::RenderUtilizationTimeline(events.value());
  std::ofstream(trace_path + ".memory.svg")
      << scope::RenderMemoryCurve(events.value());
  std::printf("wrote %s.{view,timeline,memory}.svg\n", trace_path.c_str());
  PrintAnalyses(events.value());
  return 0;
}

int CmdSession(const std::string& dot_path, const std::string& trace_path) {
  std::ifstream dot_in(dot_path);
  if (!dot_in) return Fail(Status::IoError("cannot read " + dot_path));
  std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                       std::istreambuf_iterator<char>());
  auto graph = dot::ParseDot(dot_text);
  if (!graph.ok()) return Fail(graph.status());
  auto events = scope::ReadTraceFile(trace_path);
  if (!events.ok()) return Fail(events.status());

  scope::ReplayOptions replay;
  replay.render_interval_us = 0;
  auto replayer =
      scope::OfflineReplayer::Create(graph.value(), events.value(), replay);
  if (!replayer.ok()) return Fail(replayer.status());
  scope::InteractiveSession session(replayer.value().get(),
                                    SteadyClock::Default(),
                                    /*animation_ms=*/0);
  std::printf("interactive session over %zu nodes / %zu events. 'help' "
              "lists commands, ctrl-d exits.\n",
              graph.value().num_nodes(), events.value().size());
  char line[1024];
  while (std::printf("> "), std::fflush(stdout),
         std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string command = Trim(line);
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    auto response = session.Execute(command);
    if (response.ok()) {
      std::printf("%s\n", response.value().c_str());
    } else {
      std::printf("error: %s\n", response.status().ToString().c_str());
    }
  }
  return 0;
}

int CmdDiff(const std::string& a_path, const std::string& b_path,
            const char* plan_path) {
  auto a = scope::ReadTraceFile(a_path);
  if (!a.ok()) return Fail(a.status());
  auto b = scope::ReadTraceFile(b_path);
  if (!b.ok()) return Fail(b.status());
  mal::Program plan;
  bool have_plan = false;
  if (plan_path != nullptr) {
    std::ifstream plan_in(plan_path);
    if (!plan_in) {
      return Fail(Status::IoError(std::string("cannot read ") + plan_path));
    }
    std::string text((std::istreambuf_iterator<char>(plan_in)),
                     std::istreambuf_iterator<char>());
    auto parsed = mal::ParseProgram(text);
    if (!parsed.ok()) return Fail(parsed.status());
    plan = std::move(parsed).value();
    have_plan = true;
  }
  analysis::TraceDiff diff = analysis::DiffTraces(
      profiler::TraceIndex(a.value()), profiler::TraceIndex(b.value()),
      have_plan ? &plan : nullptr);
  std::printf("a: %s (%zu events)\nb: %s (%zu events)\n%s", a_path.c_str(),
              a.value().size(), b_path.c_str(), b.value().size(),
              analysis::FormatTraceDiff(diff).c_str());
  return 0;
}

int CmdMonitor(const CliOptions& cli, const std::string& sql) {
  auto server = MakeServer(cli);
  if (!server) return 1;
  scope::OnlineOptions online;
  online.render_interval_us = 1000;
  online.fault.drop_p = cli.drop_p;
  if (cli.watch) {
    online.status_line = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    };
  }
  scope::OnlineMonitor monitor(server.get(), online);
  auto report = monitor.MonitorQuery(ResolveSql(sql));
  if (!report.ok()) return Fail(report.status());
  const scope::OnlineReport& r = report.value();
  std::printf("plan nodes: %zu; events: %lld; color updates: %zu; "
              "analysis rounds: %zu\n",
              r.graph_nodes, static_cast<long long>(r.events_received),
              r.color_updates, r.analysis_rounds);
  std::printf("%s\n", r.pipe_health.ToString().c_str());
  if (r.injected_dropped > 0) {
    std::printf("(injected: %lld dropped)\n",
                static_cast<long long>(r.injected_dropped));
  }
  std::printf("%s\n", r.parallelism.summary.c_str());
  if (cli.watch) {
    std::printf("-- progress scoreboard --\n%s",
                server->ProgressText().c_str());
    // Latency distribution footer: estimated quantiles over every
    // populated histogram, the same numbers MetricsText() exposes.
    const std::string summary =
        obs::Registry::Default()->HistogramSummaryText();
    if (!summary.empty()) {
      std::printf("-- histogram quantiles --\n%s", summary.c_str());
    }
    if (!r.stragglers.empty()) {
      std::printf("-- stragglers vs stored baseline --\n");
      for (const scope::StragglerFlag& s : r.stragglers) {
        std::printf("  pc %-4d %lldus vs median %.0fus%s\n", s.pc,
                    static_cast<long long>(s.usec), s.baseline_median,
                    s.completed ? "" : " (still running when flagged)");
      }
    }
  }
  std::printf("%s", server::FormatResultTable(r.outcome.result).c_str());
  PrintAnalyses(r.events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  int i = 1;
  for (; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--sf") {
      const char* v = next();
      if (!v) return Usage();
      cli.sf = std::atof(v);
    } else if (flag == "--dop") {
      const char* v = next();
      if (!v) return Usage();
      cli.dop = std::atoi(v);
    } else if (flag == "--mitosis") {
      const char* v = next();
      if (!v) return Usage();
      cli.mitosis = std::atoi(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return Usage();
      cli.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--sequential") {
      cli.sequential = true;
    } else if (flag == "--metrics") {
      cli.metrics = true;
    } else if (flag == "--watch") {
      cli.watch = true;
    } else if (flag == "--drop") {
      const char* v = next();
      if (!v) return Usage();
      cli.drop_p = std::atof(v);
    } else if (flag == "--trace-json") {
      const char* v = next();
      if (!v) return Usage();
      cli.trace_json = v;
    } else {
      break;  // subcommand
    }
  }
  if (i >= argc) return Usage();
  if (cli.metrics || cli.watch || !cli.trace_json.empty()) {
    // Opt in to the paid observability paths (latency histograms, pass
    // timing) and to flight-recorder dumps on query aborts.
    obs::SetEnabled(true);
    obs::FlightRecorder::Default()->SetEnabled(true);
  }
  if (!cli.trace_json.empty()) obs::Tracer::Default()->SetEnabled(true);
  std::string cmd = argv[i++];
  auto arg = [&](int k) -> const char* {
    return i + k < argc ? argv[i + k] : nullptr;
  };

  int rc = [&]() -> int {
    if (cmd == "queries") return CmdQueries();
    if (cmd == "explain" && arg(0)) return CmdExplain(cli, arg(0));
    if (cmd == "run" && arg(0)) return CmdRun(cli, arg(0));
    if (cmd == "record" && arg(0) && arg(1)) {
      return CmdRecord(cli, arg(0), arg(1));
    }
    if (cmd == "replay" && arg(0) && arg(1)) return CmdReplay(arg(0), arg(1));
    if (cmd == "session" && arg(0) && arg(1)) return CmdSession(arg(0), arg(1));
    if (cmd == "diff" && arg(0) && arg(1)) {
      return CmdDiff(arg(0), arg(1), arg(2));
    }
    if (cmd == "monitor" && arg(0)) return CmdMonitor(cli, arg(0));
    return Usage();
  }();

  if (!cli.trace_json.empty()) {
    std::ofstream out(cli.trace_json);
    if (!out) {
      return Fail(Status::IoError("cannot write " + cli.trace_json));
    }
    out << obs::WriteChromeTrace(obs::Tracer::Default()->Snapshot());
    std::fprintf(stderr,
                 "wrote %s (%zu spans; open in Perfetto or chrome://tracing)\n",
                 cli.trace_json.c_str(), obs::Tracer::Default()->size());
  }
  if (cli.metrics) {
    std::printf("%s", obs::Registry::Default()->ExpositionText().c_str());
  }
  return rc;
}
