// mal_lint — static analysis over MAL plans, dot graphs, and trace files.
//
//   mal_lint [flags] <file>...
//
// Input kinds are inferred from the extension and can be forced with flags:
//   *.dot            parsed with dot::ParseDot        (--dot <file>)
//   *.trace          read with scope::ReadTraceFile   (--trace <file>)
//   *.json           obs::ParseChromeTrace span export (--spans <file>)
//   anything else    parsed with mal::ParseProgram    (--plan <file>)
//
// All inputs are linted together in one analysis::CheckContext, so passing a
// plan + dot + trace triple cross-validates the pc ↔ "nN" ↔ label contract
// and the start/done pairing of the trace against the plan; adding a Chrome
// trace export (stethoscope --trace-json) checks the profiler stream against
// the platform's own kernel spans (trace-span-conformance).
//
// Flags:
//   --json             emit diagnostics as a JSON array instead of text
//   --sarif            emit diagnostics as a SARIF 2.1.0 log (CI annotators)
//   --list-checks      print the check catalog and exit
//   --schedule         also print the happens-before schedule report
//                      (makespan, critical path, slack; needs plan + trace)
//   --memory           also print the static memory profile (per-pc live
//                      bytes, sequential peak, parallel bound, heaviest
//                      live ranges; needs a plan — a trace refines the dop)
//   --fail-on=SEV      exit 1 when any finding is at or above SEV
//                      (note|warning|error; default error)
//   --baseline FILE    suppress findings whose fingerprint is listed in FILE
//                      so CI gates on new findings only
//   --write-baseline   print the baseline for the current findings instead
//                      of diagnostics (redirect to create/refresh FILE)
//   --profile FILE     load a cross-run profile store and enable the
//                      trace-perf-regression check (the trace is compared
//                      against the stored baseline for its plan shape)
//   --write-profile FILE
//                      fold the supplied trace (keyed by the plan when one
//                      is given, else by the trace's own statement text)
//                      into FILE and exit — the way committed baseline
//                      profiles are recorded
//
// Exit status: 0 clean (below the --fail-on threshold), 1 findings at or
// above the threshold, 2 usage or input failure.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/hb.h"
#include "analysis/liveness.h"
#include "analysis/perfdiff.h"
#include "analysis/runner.h"
#include "common/string_util.h"
#include "dot/parser.h"
#include "engine/kernel.h"
#include "mal/parser.h"
#include "obs/trace_export.h"
#include "scope/trace.h"

using namespace stetho;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mal_lint [--json|--sarif] [--list-checks] [--schedule] "
               "[--memory] "
               "[--fail-on=<note|warning|error>] [--baseline <file>] "
               "[--write-baseline] [--profile <file>] "
               "[--write-profile <file>] "
               "[--plan|--dot|--trace|--spans] <file>...\n"
               "       kind is inferred from the extension (.dot, .trace, "
               ".json for Chrome-trace span exports; anything else is a MAL "
               "plan)\n");
  return 2;
}

int ListChecks() {
  for (const auto& check : analysis::Runner::Default().checks()) {
    std::printf("%-22s %s\n", check->id(), check->description());
  }
  return 0;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

enum class InputKind { kAuto, kPlan, kDot, kTrace, kSpans };

InputKind KindFromExtension(const std::string& path) {
  if (EndsWith(path, ".dot")) return InputKind::kDot;
  if (EndsWith(path, ".trace")) return InputKind::kTrace;
  if (EndsWith(path, ".json")) return InputKind::kSpans;
  return InputKind::kPlan;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sarif = false;
  bool schedule = false;
  bool memory = false;
  bool write_baseline = false;
  std::string profile_path;
  std::string write_profile_path;
  analysis::Severity fail_on = analysis::Severity::kError;
  std::vector<std::string> baseline;
  InputKind forced = InputKind::kAuto;
  std::vector<std::pair<InputKind, std::string>> inputs;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--sarif") == 0) {
      sarif = true;
    } else if (std::strcmp(arg, "--schedule") == 0) {
      schedule = true;
    } else if (std::strcmp(arg, "--memory") == 0) {
      memory = true;
    } else if (std::strcmp(arg, "--write-baseline") == 0) {
      write_baseline = true;
    } else if (std::strncmp(arg, "--fail-on=", 10) == 0) {
      const char* level = arg + 10;
      if (std::strcmp(level, "note") == 0) {
        fail_on = analysis::Severity::kNote;
      } else if (std::strcmp(level, "warning") == 0) {
        fail_on = analysis::Severity::kWarning;
      } else if (std::strcmp(level, "error") == 0) {
        fail_on = analysis::Severity::kError;
      } else {
        std::fprintf(stderr, "--fail-on: unknown severity \"%s\"\n", level);
        return Usage();
      }
    } else if (std::strcmp(arg, "--baseline") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--baseline needs a file argument\n");
        return Usage();
      }
      auto text = ReadWholeFile(argv[++i]);
      if (!text.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i],
                     text.status().ToString().c_str());
        return 2;
      }
      std::vector<std::string> parsed =
          analysis::ParseBaseline(text.value());
      baseline.insert(baseline.end(), parsed.begin(), parsed.end());
    } else if (std::strcmp(arg, "--profile") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--profile needs a file argument\n");
        return Usage();
      }
      profile_path = argv[++i];
    } else if (std::strcmp(arg, "--write-profile") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--write-profile needs a file argument\n");
        return Usage();
      }
      write_profile_path = argv[++i];
    } else if (std::strcmp(arg, "--list-checks") == 0) {
      return ListChecks();
    } else if (std::strcmp(arg, "--plan") == 0) {
      forced = InputKind::kPlan;
    } else if (std::strcmp(arg, "--dot") == 0) {
      forced = InputKind::kDot;
    } else if (std::strcmp(arg, "--trace") == 0) {
      forced = InputKind::kTrace;
    } else if (std::strcmp(arg, "--spans") == 0) {
      forced = InputKind::kSpans;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return Usage();
    } else {
      InputKind kind =
          forced != InputKind::kAuto ? forced : KindFromExtension(arg);
      inputs.emplace_back(kind, arg);
      forced = InputKind::kAuto;  // a forcing flag applies to the next file
    }
  }
  if (inputs.empty()) return Usage();

  std::optional<mal::Program> program;
  std::optional<dot::Graph> graph;
  std::optional<std::vector<profiler::TraceEvent>> trace;
  std::optional<std::vector<obs::SpanRecord>> spans;

  for (const auto& [kind, path] : inputs) {
    switch (kind) {
      case InputKind::kPlan: {
        auto text = ReadWholeFile(path);
        if (!text.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       text.status().ToString().c_str());
          return 2;
        }
        auto parsed = mal::ParseProgramLenient(text.value());
        if (!parsed.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       parsed.status().ToString().c_str());
          return 2;
        }
        program = std::move(parsed).value();
        break;
      }
      case InputKind::kDot: {
        auto text = ReadWholeFile(path);
        if (!text.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       text.status().ToString().c_str());
          return 2;
        }
        auto parsed = dot::ParseDot(text.value());
        if (!parsed.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       parsed.status().ToString().c_str());
          return 2;
        }
        graph = std::move(parsed).value();
        break;
      }
      case InputKind::kTrace: {
        auto events = scope::ReadTraceFile(path);
        if (!events.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       events.status().ToString().c_str());
          return 2;
        }
        trace = std::move(events).value();
        break;
      }
      case InputKind::kSpans: {
        auto text = ReadWholeFile(path);
        if (!text.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       text.status().ToString().c_str());
          return 2;
        }
        auto parsed = obs::ParseChromeTrace(text.value());
        if (!parsed.ok()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       parsed.status().ToString().c_str());
          return 2;
        }
        spans = std::move(parsed).value();
        break;
      }
      case InputKind::kAuto:
        break;  // unreachable
    }
  }

  if (!write_profile_path.empty()) {
    // Record mode: fold the trace into the profile file and exit. Keyed by
    // the plan's shape hash when a plan was given (the contract the server
    // folds under) so the recorded baseline lines up with live lookups.
    if (!trace.has_value()) {
      std::fprintf(stderr, "--write-profile needs a trace input\n");
      return 2;
    }
    obs::QueryObservation observation = analysis::ObservationFromTrace(
        profiler::TraceIndex(trace.value()));
    if (program.has_value()) {
      observation.shape_hash = analysis::PlanShapeHash(program.value());
    }
    obs::ProfileStore store;
    // Merge into an existing profile so repeated recordings accumulate
    // runs instead of overwriting them (a missing file starts fresh).
    (void)store.LoadFile(write_profile_path);
    Status folded = store.Fold(observation);
    if (!folded.ok()) {
      std::fprintf(stderr, "--write-profile: %s\n",
                   folded.ToString().c_str());
      return 2;
    }
    Status saved = store.SaveFile(write_profile_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "--write-profile: %s\n", saved.ToString().c_str());
      return 2;
    }
    std::printf("folded %zu pcs (shape %016llx) into %s\n",
                observation.pcs.size(),
                static_cast<unsigned long long>(observation.shape_hash),
                write_profile_path.c_str());
    return 0;
  }

  std::optional<obs::ProfileStore> profile;
  if (!profile_path.empty()) {
    profile.emplace();
    Status loaded = profile->LoadFile(profile_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", profile_path.c_str(),
                   loaded.ToString().c_str());
      return 2;
    }
  }

  analysis::CheckContext ctx;
  if (program.has_value()) {
    ctx.program = &program.value();
    ctx.registry = engine::ModuleRegistry::Default();
  }
  if (graph.has_value()) ctx.graph = &graph.value();
  if (trace.has_value()) ctx.trace = &trace.value();
  if (spans.has_value()) ctx.spans = &spans.value();
  if (profile.has_value()) ctx.profile = &profile.value();

  std::vector<analysis::Diagnostic> diagnostics = analysis::ApplyBaseline(
      analysis::Runner::Default().Run(ctx), baseline);

  if (write_baseline) {
    std::fputs(analysis::FormatBaseline(diagnostics).c_str(), stdout);
    return 0;
  }
  if (sarif) {
    // The first input file names the analyzed artifact in the log.
    std::fputs(analysis::DiagnosticsToSarif(diagnostics, inputs.front().second)
                   .c_str(),
               stdout);
  } else if (json) {
    std::fputs(analysis::DiagnosticsToJson(diagnostics).c_str(), stdout);
  } else {
    std::fputs(analysis::FormatDiagnostics(diagnostics).c_str(), stdout);
    std::printf("%zu diagnostics (%zu errors, %zu warnings, %zu notes)\n",
                diagnostics.size(),
                analysis::CountSeverity(diagnostics, analysis::Severity::kError),
                analysis::CountSeverity(diagnostics,
                                        analysis::Severity::kWarning),
                analysis::CountSeverity(diagnostics, analysis::Severity::kNote));
  }
  if (schedule) {
    if (!program.has_value() || !trace.has_value()) {
      std::fprintf(stderr,
                   "--schedule needs both a plan and a trace input\n");
      return 2;
    }
    std::fputs(
        analysis::FormatScheduleReport(ctx.schedule(), program.value())
            .c_str(),
        stdout);
  }
  if (memory) {
    if (!program.has_value()) {
      std::fprintf(stderr, "--memory needs a plan input\n");
      return 2;
    }
    // With a trace, profile at the dop the engine actually used (distinct
    // admission slots); otherwise report the sequential picture.
    int dop = 1;
    if (trace.has_value()) {
      std::vector<int> threads;
      for (const profiler::TraceEvent& e : trace.value()) {
        threads.push_back(e.thread);
      }
      std::sort(threads.begin(), threads.end());
      threads.erase(std::unique(threads.begin(), threads.end()),
                    threads.end());
      dop = std::max<int>(1, static_cast<int>(threads.size()));
    }
    analysis::MemoryReport report = analysis::AnalyzeMemory(program.value());
    std::fputs(
        analysis::FormatMemoryReport(program.value(), report, dop).c_str(),
        stdout);
  }
  return analysis::AnyAtOrAbove(diagnostics, fail_on) ? 1 : 0;
}
