// Golden-diagnostic tests for every analysis check, Runner/format plumbing,
// and the "seed pipeline is clean" property: random valid plans and every
// TPC-H query produce zero diagnostics after each optimizer stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/checks.h"
#include "analysis/liveness.h"
#include "analysis/runner.h"
#include "analysis/signatures.h"
#include "common/rng.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "engine/kernel.h"
#include "mal/parser.h"
#include "mal/program.h"
#include "obs/metrics.h"
#include "optimizer/pass.h"
#include "profiler/sink.h"
#include "server/mserver.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho {
namespace {

using analysis::CheckContext;
using analysis::Diagnostic;
using analysis::Runner;
using analysis::Severity;
using mal::Argument;
using mal::MalType;
using profiler::EventState;
using profiler::TraceEvent;
using storage::DataType;
using storage::Value;

MalType Lng() { return MalType::Scalar(DataType::kInt64); }
MalType BatLng() { return MalType::Bat(DataType::kInt64); }
MalType BatOid() { return MalType::Bat(DataType::kOid); }

/// Runs exactly one check over the context.
std::vector<Diagnostic> RunOne(std::unique_ptr<analysis::Check> check,
                               const CheckContext& ctx) {
  Runner runner;
  runner.Add(std::move(check));
  return runner.Run(ctx);
}

CheckContext PlanContext(const mal::Program& p) {
  CheckContext ctx;
  ctx.program = &p;
  return ctx;
}

bool HasCheck(const std::vector<Diagnostic>& diags, const std::string& id) {
  for (const Diagnostic& d : diags) {
    if (d.check_id == id) return true;
  }
  return false;
}

/// A well-formed little plan: two sources, an add, a count, and a print
/// consuming everything.
mal::Program CleanPlan() {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(16))});
  int b = p.AddVariable(BatOid());
  p.Add("bat", "mirror", {b}, {Argument::Var(a)});
  int c = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {c}, {Argument::Var(a), Argument::Var(b)});
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(c)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  return p;
}

// ---------------------------------------------------------------------------
// ssa-def-before-use
// ---------------------------------------------------------------------------

TEST(DefBeforeUseTest, CleanPlanHasNoFindings) {
  mal::Program p = CleanPlan();
  EXPECT_TRUE(RunOne(analysis::MakeDefBeforeUseCheck(), PlanContext(p)).empty());
}

TEST(DefBeforeUseTest, FlagsUseBeforeDefinition) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  int b = p.AddVariable(Lng());
  p.Add("calc", "add", {b}, {Argument::Var(a), Argument::Const(Value::Int(1))});
  p.Add("sql", "mvc", {a}, {});
  p.Add("io", "print", {}, {Argument::Var(b)});

  auto diags = RunOne(analysis::MakeDefBeforeUseCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].check_id, "ssa-def-before-use");
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_EQ(diags[0].var, a);
}

TEST(DefBeforeUseTest, FlagsOutOfRangeArgument) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("calc", "add", {a},
        {Argument::Var(99), Argument::Const(Value::Int(1))});

  auto diags = RunOne(analysis::MakeDefBeforeUseCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_EQ(diags[0].var, 99);
  EXPECT_NE(diags[0].message.find("out-of-range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ssa-single-assignment
// ---------------------------------------------------------------------------

TEST(SingleAssignmentTest, FlagsSecondAssignment) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  p.Add("sql", "mvc", {a}, {});
  p.Add("io", "print", {}, {Argument::Var(a)});

  auto diags = RunOne(analysis::MakeSingleAssignmentCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "ssa-single-assignment");
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, a);
  EXPECT_NE(diags[0].message.find("pc=0"), std::string::npos);
}

TEST(SingleAssignmentTest, FlagsOutOfRangeResult) {
  mal::Program p;
  p.Add("sql", "mvc", {7}, {});
  auto diags = RunOne(analysis::MakeSingleAssignmentCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].var, 7);
}

// ---------------------------------------------------------------------------
// dead-instruction
// ---------------------------------------------------------------------------

TEST(DeadInstructionTest, FlagsUnusedPureResult) {
  mal::Program p = CleanPlan();
  int d = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {d}, {Argument::Const(Value::Int(4))});

  auto diags = RunOne(analysis::MakeDeadInstructionCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].check_id, "dead-instruction");
  EXPECT_EQ(diags[0].pc, 5);
}

TEST(DeadInstructionTest, IgnoresEffectfulAndPartiallyUsedOps) {
  mal::Program p;
  // debug.spin is effectful: unused result must NOT be flagged.
  int s = p.AddVariable(Lng());
  p.Add("debug", "spin", {s}, {Argument::Const(Value::Int(1))});
  // algebra.sort's permutation result routinely goes unused: one live
  // result keeps the instruction alive.
  int b = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(8))});
  int sorted = p.AddVariable(BatLng());
  int perm = p.AddVariable(BatOid());
  p.Add("algebra", "sort", {sorted, perm},
        {Argument::Var(b), Argument::Const(Value::Bool(false))});
  p.Add("io", "print", {}, {Argument::Var(sorted)});

  EXPECT_TRUE(
      RunOne(analysis::MakeDeadInstructionCheck(), PlanContext(p)).empty());
}

// ---------------------------------------------------------------------------
// kernel-signature
// ---------------------------------------------------------------------------

TEST(KernelSignatureTest, FlagsUnknownKernelAgainstRegistry) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("user", "mystery", {a}, {});
  CheckContext ctx = PlanContext(p);
  ctx.registry = engine::ModuleRegistry::Default();

  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "kernel-signature");
  EXPECT_NE(diags[0].message.find("unknown kernel user.mystery"),
            std::string::npos);
}

TEST(KernelSignatureTest, FlagsWrongArity) {
  mal::Program p;
  int b = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {b},
        {Argument::Const(Value::Int(4)), Argument::Const(Value::Int(9))});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_NE(diags[0].message.find("takes 1 arguments, got 2"),
            std::string::npos);
}

TEST(KernelSignatureTest, FlagsScalarWhereBatExpected) {
  mal::Program p;
  int s = p.AddVariable(Lng());
  p.Add("sql", "mvc", {s}, {});
  int out = p.AddVariable(BatLng());
  p.Add("bat", "mirror", {out}, {Argument::Var(s)});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, s);
  EXPECT_NE(diags[0].message.find("must be a bat"), std::string::npos);
}

TEST(KernelSignatureTest, FlagsBatcalcWithoutBatArgument) {
  mal::Program p;
  int out = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {out},
        {Argument::Const(Value::Int(1)), Argument::Const(Value::Int(2))});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("at least one BAT argument"),
            std::string::npos);
}

TEST(KernelSignatureTest, FlagsResultDeclaredWithWrongShape) {
  mal::Program p;
  int b = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(4))});
  int n = p.AddVariable(BatLng());  // aggr.count yields a scalar
  p.Add("aggr", "count", {n}, {Argument::Var(b)});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, n);
}

TEST(KernelSignatureTest, FlagsVariadicBelowMinimum) {
  mal::Program p;
  int out = p.AddVariable(BatLng());
  p.Add("mat", "pack", {out}, {});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("at least 1 arguments"), std::string::npos);
}

// ---------------------------------------------------------------------------
// bat-lifetime
// ---------------------------------------------------------------------------

TEST(BatLifetimeTest, FlagsUnconsumedBatFromUnknownProducer) {
  mal::Program p;
  int b = p.AddVariable(BatLng());
  p.Add("user", "loadBat", {b}, {});
  auto diags = RunOne(analysis::MakeBatLifetimeCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].check_id, "bat-lifetime");
  EXPECT_EQ(diags[0].var, b);
}

TEST(BatLifetimeTest, PureProducersLeftToDeadInstructionCheck) {
  mal::Program p;
  int b = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(4))});
  EXPECT_TRUE(RunOne(analysis::MakeBatLifetimeCheck(), PlanContext(p)).empty());
}

TEST(BatLifetimeTest, FlagsConsumerStartingBeforeProducerDone) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace;
  auto push = [&trace, &p](int64_t seq, int pc, EventState state) {
    TraceEvent e;
    e.event = seq;
    e.time_us = seq * 10;
    e.pc = pc;
    e.state = state;
    e.stmt = p.InstructionToString(p.instruction(pc));
    trace.push_back(e);
  };
  // pc=1 (bat.mirror of X_0) starts BEFORE pc=0 (densebat) is done.
  push(0, 0, EventState::kStart);
  push(1, 1, EventState::kStart);
  push(2, 0, EventState::kDone);
  push(3, 1, EventState::kDone);
  for (int pc = 2; pc < 5; ++pc) {
    push(2 * pc, pc, EventState::kStart);
    push(2 * pc + 1, pc, EventState::kDone);
  }
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;

  // bat-lifetime is plan-only: the trace-side producer/consumer ordering
  // moved to trace-dependency-violation (hb.h), which still catches it.
  auto diags = RunOne(analysis::MakeBatLifetimeCheck(), ctx);
  EXPECT_TRUE(diags.empty());
  auto hb = RunOne(analysis::MakeTraceDependencyViolationCheck(), ctx);
  ASSERT_FALSE(hb.empty());
  EXPECT_EQ(hb[0].severity, Severity::kError);
  EXPECT_EQ(hb[0].pc, 1);
}

// ---------------------------------------------------------------------------
// sink-order-key
// ---------------------------------------------------------------------------

TEST(SinkOrderKeyTest, NotesPlanWithoutAnySink) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  auto diags = RunOne(analysis::MakeSinkOrderKeyCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);
  EXPECT_EQ(diags[0].pc, -1);
}

TEST(SinkOrderKeyTest, FlagsUnknownSinkWithoutOrderKey) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  p.Add("user", "printResult", {}, {Argument::Var(a)});
  auto diags = RunOne(analysis::MakeSinkOrderKeyCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].check_id, "sink-order-key");
  EXPECT_EQ(diags[0].pc, 1);
}

TEST(SinkOrderKeyTest, FlagsOrderKeyCollision) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  std::vector<Argument> args(257, Argument::Var(a));
  p.Add("io", "print", {}, std::move(args));
  auto diags = RunOne(analysis::MakeSinkOrderKeyCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("order key"), std::string::npos);
}

// ---------------------------------------------------------------------------
// dot-contract
// ---------------------------------------------------------------------------

TEST(DotContractTest, GeneratedGraphConforms) {
  mal::Program p = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(p);
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  EXPECT_TRUE(RunOne(analysis::MakeDotContractCheck(), ctx).empty());
}

TEST(DotContractTest, FlagsTamperedLabel) {
  mal::Program p = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(p);
  g.node(2).attrs["label"] = "tampered";
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "dot-contract");
  EXPECT_EQ(diags[0].pc, 2);
  EXPECT_NE(diags[0].message.find("label mismatch"), std::string::npos);
}

TEST(DotContractTest, FlagsMissingNodeAndBadId) {
  mal::Program p = CleanPlan();
  dot::Graph g;  // empty graph: every pc is missing
  g.AddNode("opaque_name");
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  EXPECT_TRUE(HasCheck(diags, "dot-contract"));
  bool missing = false, bad_id = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("has no dot node") != std::string::npos) missing = true;
    if (d.message.find("naming convention") != std::string::npos) bad_id = true;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(bad_id);
}

TEST(DotContractTest, FlagsExtraAndMissingEdges) {
  mal::Program p = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(p);
  g.AddEdge("n0", "n4");  // not a dataflow dependency
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_NE(diags[0].message.find("no matching dataflow dependency"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// trace-conformance
// ---------------------------------------------------------------------------

std::vector<TraceEvent> WellFormedTrace(const mal::Program& p) {
  std::vector<TraceEvent> trace;
  int64_t seq = 0;
  for (const mal::Instruction& ins : p.instructions()) {
    for (EventState state : {EventState::kStart, EventState::kDone}) {
      TraceEvent e;
      e.event = seq;
      e.time_us = 100 + seq * 5;
      e.pc = ins.pc;
      e.state = state;
      e.usec = state == EventState::kDone ? 5 : 0;
      e.stmt = p.InstructionToString(ins);
      trace.push_back(e);
      ++seq;
    }
  }
  return trace;
}

TEST(TraceConformanceTest, WellFormedTraceIsClean) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  EXPECT_TRUE(RunOne(analysis::MakeTraceConformanceCheck(), ctx).empty());
}

TEST(TraceConformanceTest, FlagsUnpairedStart) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  trace.erase(trace.begin() + 5);  // drop pc=2's done event
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "trace-conformance");
  EXPECT_EQ(diags[0].pc, 2);
  EXPECT_NE(diags[0].message.find("1 start vs 0 done"), std::string::npos);
}

TEST(TraceConformanceTest, FlagsDoubleExecution) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  std::vector<TraceEvent> doubled = trace;
  for (TraceEvent e : {trace[0], trace[1]}) {
    e.event += 100;
    e.time_us += 1000;
    doubled.push_back(e);
  }
  CheckContext ctx = PlanContext(p);
  ctx.trace = &doubled;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_NE(diags[0].message.find("executed 2 times"), std::string::npos);
}

TEST(TraceConformanceTest, FlagsNonMonotonicClock) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  trace[3].time_us = 1;  // runs backwards
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("runs backwards"), std::string::npos);
}

TEST(TraceConformanceTest, FlagsPcOutOfRangeAndStmtMismatch) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  trace[0].stmt = "something else entirely";
  TraceEvent rogue = trace.back();
  rogue.event = 99;
  rogue.pc = 42;
  trace.push_back(rogue);
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  bool mismatch = false, out_of_range = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("diverges from the plan") != std::string::npos) {
      mismatch = true;
      EXPECT_EQ(d.pc, 0);
    }
    if (d.message.find("outside the plan") != std::string::npos) {
      out_of_range = true;
      EXPECT_EQ(d.pc, 42);
    }
  }
  EXPECT_TRUE(mismatch);
  EXPECT_TRUE(out_of_range);
}

// ---------------------------------------------------------------------------
// Runner + formatting
// ---------------------------------------------------------------------------

TEST(RunnerTest, SkipsChecksWithMissingInputs) {
  CheckContext empty;
  EXPECT_TRUE(Runner::Default().Run(empty).empty());
}

TEST(RunnerTest, DefaultSuiteHasAllChecks) {
  EXPECT_EQ(Runner::Default().size(), 24u);
}

TEST(RunnerTest, SortsErrorsFirstThenByPc) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  // pc=0: dead instruction (warning) — result never used.
  p.Add("sql", "mvc", {a}, {});
  // pc=1: def-before-use (error).
  int b = p.AddVariable(Lng());
  p.Add("calc", "not", {b}, {Argument::Var(5)});
  auto diags = Runner::Default().Run(PlanContext(p));
  ASSERT_GE(diags.size(), 2u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  for (size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(static_cast<int>(diags[i].severity),
              static_cast<int>(diags[i - 1].severity));
  }
}

TEST(RunnerTest, DiagnosticsToStatusNamesContextAndCheck) {
  mal::Program p;
  int b = p.AddVariable(Lng());
  p.Add("calc", "not", {b}, {Argument::Var(9)});
  auto diags = Runner::Default().Run(PlanContext(p));
  Status st = analysis::DiagnosticsToStatus(diags, "pass 'broken'");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("pass 'broken'"), std::string::npos);
  EXPECT_NE(st.message().find("ssa-def-before-use"), std::string::npos);
  EXPECT_NE(st.message().find("pc=0"), std::string::npos);
}

TEST(RunnerTest, WarningsDoNotFailStatus) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});  // dead instruction + no-sink note
  auto diags = Runner::Default().Run(PlanContext(p));
  EXPECT_FALSE(diags.empty());
  EXPECT_TRUE(analysis::DiagnosticsToStatus(diags, "ctx").ok());
}

TEST(RunnerTest, JsonOutputIsStructuredAndEscaped) {
  std::vector<Diagnostic> diags(1);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "dot-contract";
  diags[0].pc = 3;
  diags[0].message = "label \"weird\\path\" mismatch";
  std::string json = analysis::DiagnosticsToJson(diags);
  EXPECT_NE(json.find("\"check\": \"dot-contract\""), std::string::npos);
  EXPECT_NE(json.find("\"pc\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\\"weird\\\\path\\\""), std::string::npos);
  EXPECT_TRUE(analysis::DiagnosticsToJson({}).find("[]") == 0);
}

TEST(RunnerTest, DiagnosticToStringIncludesEveryField) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.check_id = "dead-instruction";
  d.pc = 12;
  d.var = 4;
  d.message = "unused";
  d.fix_hint = "remove it";
  std::string s = d.ToString();
  EXPECT_NE(s.find("warning[dead-instruction]"), std::string::npos);
  EXPECT_NE(s.find("pc=12"), std::string::npos);
  EXPECT_NE(s.find("var=4"), std::string::npos);
  EXPECT_NE(s.find("hint: remove it"), std::string::npos);
}

TEST(RunnerTest, LenientParserFeedsLinter) {
  auto p = mal::ParseProgram(
      "function user.main():void;\n"
      "    X_1:lng := calc.not(X_0);\n"
      "    X_0:lng := sql.mvc();\n"
      "end user.main;\n");
  EXPECT_FALSE(p.ok());  // strict parse rejects def-before-use

  auto lenient = mal::ParseProgramLenient(
      "function user.main():void;\n"
      "    X_1:lng := calc.not(X_0);\n"
      "    X_0:lng := sql.mvc();\n"
      "end user.main;\n");
  ASSERT_TRUE(lenient.ok());
  auto diags = Runner::Default().Run(PlanContext(lenient.value()));
  EXPECT_TRUE(HasCheck(diags, "ssa-def-before-use"));
}

// ---------------------------------------------------------------------------
// Property: random valid plans stay clean through every optimizer stage.
// ---------------------------------------------------------------------------

mal::Program GenerateRandomPlan(uint64_t seed) {
  SplitMix64 rng(seed);
  mal::Program p;
  std::vector<int> bats;
  std::vector<int> scalars;

  int sources = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < sources; ++i) {
    int v = p.AddVariable(BatOid());
    p.Add("bat", "densebat",
          {v}, {Argument::Const(Value::Int(rng.NextRange(1, 64)))});
    bats.push_back(v);
  }

  int ops = 3 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < ops; ++i) {
    switch (rng.NextBounded(6)) {
      case 0: {  // bat.mirror (always produces bat[:oid])
        int in = bats[rng.NextBounded(bats.size())];
        int out = p.AddVariable(BatOid());
        p.Add("bat", "mirror", {out}, {Argument::Var(in)});
        bats.push_back(out);
        break;
      }
      case 1: {  // batcalc over a bat and a constant (or the bat itself;
                 // two independent sources would zip different row counts)
        int in = bats[rng.NextBounded(bats.size())];
        Argument rhs = rng.NextBool(0.5)
                           ? Argument::Const(Value::Int(rng.NextRange(1, 9)))
                           : Argument::Var(in);
        int out = p.AddVariable(BatLng());
        p.Add("batcalc", "add", {out}, {Argument::Var(in), rhs});
        bats.push_back(out);
        break;
      }
      case 2: {  // aggr.count: bat -> scalar
        int in = bats[rng.NextBounded(bats.size())];
        int out = p.AddVariable(Lng());
        p.Add("aggr", "count", {out}, {Argument::Var(in)});
        scalars.push_back(out);
        break;
      }
      case 3: {  // scalar arithmetic, sometimes constant-foldable
        Argument lhs = scalars.empty() || rng.NextBool(0.3)
                           ? Argument::Const(Value::Int(rng.NextRange(1, 9)))
                           : Argument::Var(scalars[rng.NextBounded(
                                 scalars.size())]);
        int out = p.AddVariable(Lng());
        p.Add("calc", "add", {out},
              {lhs, Argument::Const(Value::Int(rng.NextRange(1, 9)))});
        scalars.push_back(out);
        break;
      }
      case 4: {  // bat.append (operands must share an element type)
        int a = bats[rng.NextBounded(bats.size())];
        int b = bats[rng.NextBounded(bats.size())];
        if (p.variable(b).type != p.variable(a).type) b = a;
        int out = p.AddVariable(p.variable(a).type);
        p.Add("bat", "append", {out}, {Argument::Var(a), Argument::Var(b)});
        bats.push_back(out);
        break;
      }
      case 5: {  // duplicate of an earlier op, CSE fodder
        int in = bats[rng.NextBounded(bats.size())];
        int out = p.AddVariable(BatOid());
        p.Add("bat", "mirror", {out}, {Argument::Var(in)});
        bats.push_back(out);
        break;
      }
    }
  }

  // Print every variable so nothing is dead and the plan has a sink.
  std::vector<Argument> args;
  for (int v : bats) args.push_back(Argument::Var(v));
  for (int v : scalars) args.push_back(Argument::Var(v));
  p.Add("io", "print", {}, std::move(args));
  return p;
}

class RandomPlanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPlanTest, OptimizerStagesStayLintClean) {
  mal::Program p = GenerateRandomPlan(GetParam());
  ASSERT_TRUE(p.Validate().ok());

  CheckContext ctx;
  ctx.registry = engine::ModuleRegistry::Default();

  // Lint the raw plan, then after each individual optimizer stage. The raw
  // plan deliberately contains foldable calc.* chains, so allow the
  // missed-constant-fold notes but nothing of consequence.
  ctx.program = &p;
  auto diags = Runner::Default().Run(ctx);
  EXPECT_EQ(analysis::CountSeverity(diags, Severity::kError), 0u)
      << analysis::FormatDiagnostics(diags);
  EXPECT_EQ(analysis::CountSeverity(diags, Severity::kWarning), 0u)
      << analysis::FormatDiagnostics(diags);

  for (int pieces : {0, 4}) {
    mal::Program optimized = GenerateRandomPlan(GetParam());
    optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
    auto fired = pipeline.Run(&optimized);  // lints after every pass itself
    ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    ctx.program = &optimized;
    diags = Runner::Default().Run(ctx);
    EXPECT_TRUE(diags.empty())
        << "pieces=" << pieces << "\n"
        << analysis::FormatDiagnostics(diags) << optimized.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

// ---------------------------------------------------------------------------
// Integration: the whole seed SQL -> MAL -> optimizer -> execution pipeline
// produces plans, graphs, and traces with zero diagnostics.
// ---------------------------------------------------------------------------

class SeedPipelineTest : public ::testing::Test {
 protected:
  static storage::Catalog MakeCatalog() {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    auto cat = tpch::GenerateTpch(config);
    EXPECT_TRUE(cat.ok());
    return std::move(cat.value());
  }
};

TEST_F(SeedPipelineTest, AllQueriesLintCleanAfterOptimization) {
  storage::Catalog catalog = MakeCatalog();
  CheckContext ctx;
  ctx.registry = engine::ModuleRegistry::Default();
  for (const char* query :
       {"paper", "q1", "q3", "q5", "q6", "q12", "q14", "big_group",
        "scan_heavy", "q18", "q11", "q16", "distinct_flags"}) {
    const std::string sql = tpch::GetQuery(query).value().sql;
    for (int pieces : {0, 8}) {
      auto plan = sql::Compiler::CompileSql(&catalog, sql);
      ASSERT_TRUE(plan.ok()) << query;
      optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
      auto fired = pipeline.Run(&plan.value());
      ASSERT_TRUE(fired.ok()) << query << ": " << fired.status().ToString();

      ctx.program = &plan.value();
      dot::Graph graph = dot::ProgramToGraph(plan.value());
      ctx.graph = &graph;
      auto diags = Runner::Default().Run(ctx);
      EXPECT_TRUE(diags.empty())
          << query << " pieces=" << pieces << "\n"
          << analysis::FormatDiagnostics(diags);
      ctx.graph = nullptr;
    }
  }
}

TEST_F(SeedPipelineTest, ExecutedQueryTraceLintsClean) {
  server::MserverOptions options;
  options.mitosis_pieces = 4;
  server::Mserver server(MakeCatalog(), options);
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  server.profiler()->AddSink(ring);

  for (const char* query : {"q1", "q6", "q14"}) {
    ring->Clear();
    auto outcome = server.ExecuteSql(tpch::GetQuery(query).value().sql);
    ASSERT_TRUE(outcome.ok()) << query;
    auto graph = dot::ParseDot(outcome.value().dot);
    ASSERT_TRUE(graph.ok()) << query;
    auto events = ring->Snapshot();
    ASSERT_FALSE(events.empty()) << query;

    CheckContext ctx;
    ctx.program = &outcome.value().plan;
    ctx.graph = &graph.value();
    ctx.trace = &events;
    ctx.registry = engine::ModuleRegistry::Default();
    auto diags = Runner::Default().Run(ctx);
    // Selective plans may earn the informational "bound is >2x the
    // recorded peak" conformance note. The schedule-serialization note (the
    // paper's lost-concurrency anomaly) reports what the host did: whether
    // a dop-4 query overlaps depends on free cores, and under `ctest -j` or
    // one pinned core the admitted instructions run one after another.
    // That the scheduler runs independent instructions concurrently is
    // checked deterministically by
    // SchedulerConcurrencyTest.IndependentInstructionsMeetAtBarrier.
    // Anything at warning or above, or any other note, is a real regression.
    for (const Diagnostic& d : diags) {
      EXPECT_TRUE(d.severity == Severity::kNote &&
                  (d.check_id == "footprint-conformance" ||
                   d.check_id == "schedule-serialization"))
          << query << "\n" << analysis::FormatDiagnostics(diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared plan facts: a context interprets its plan once for every check
// ---------------------------------------------------------------------------

int64_t AbsintRuns() {
  auto value =
      obs::Registry::Default()->CounterValue("stetho_absint_runs_total");
  return value.ok() ? value.value() : 0;
}

/// The q6 plan with a foldable expression and a dead register added, so the
/// program checks have findings to agree on.
mal::Program Q6WithFindings(storage::Catalog* catalog) {
  auto plan =
      sql::Compiler::CompileSql(catalog, tpch::GetQuery("q6").value().sql);
  EXPECT_TRUE(plan.ok());
  mal::Program p = std::move(plan).value();
  int folded = p.AddVariable(Lng());
  p.Add("calc", "add", {folded},
        {Argument::Const(Value::Int(2)), Argument::Const(Value::Int(3))});
  int dead = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {dead}, {Argument::Const(Value::Int(4))});
  p.Add("io", "print", {}, {Argument::Var(folded)});
  return p;
}

TEST_F(SeedPipelineTest, RunnerInterpretsPlanOnce) {
  storage::Catalog catalog = MakeCatalog();
  auto plan =
      sql::Compiler::CompileSql(&catalog, tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(plan.ok());
  const int64_t before = AbsintRuns();
  Runner::Default().Run(PlanContext(plan.value()));
  EXPECT_EQ(AbsintRuns(), before + 1);
}

/// Program checks invoked one at a time on one context (no Runner) share
/// one sweep and report what Runner::Run does — the program-side twin of
/// RecordedQueryTest.DirectCheckRunsShareOneReplay.
TEST_F(SeedPipelineTest, DirectProgramCheckRunsShareOneSweep) {
  storage::Catalog catalog = MakeCatalog();
  const mal::Program plan = Q6WithFindings(&catalog);
  const std::vector<Diagnostic> expected =
      Runner::Default().Run(PlanContext(plan));
  ASSERT_FALSE(expected.empty());
  const CheckContext ctx = PlanContext(plan);
  const int64_t before = AbsintRuns();
  std::vector<Diagnostic> findings;
  for (const auto& check : Runner::Default().checks()) {
    if ((check->needs() & ~unsigned{analysis::kNeedsProgram}) != 0) continue;
    check->Run(ctx, &findings);
  }
  EXPECT_EQ(AbsintRuns(), before + 1);
  auto lines = [](const std::vector<Diagnostic>& diagnostics) {
    std::vector<std::string> out;
    for (const Diagnostic& d : diagnostics) out.push_back(d.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(lines(findings), lines(expected));
}

/// Facts of another plan state never pair silently with this plan's
/// instructions: a count mismatch aborts instead of truncating.
TEST_F(SeedPipelineTest, StaleFactsAbortInsteadOfTruncating) {
  storage::Catalog catalog = MakeCatalog();
  auto plan =
      sql::Compiler::CompileSql(&catalog, tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(plan.ok());
  mal::Program changed = plan.value();
  const analysis::ProgramFacts stale =
      analysis::AnalyzeProgramFacts(plan.value());
  changed.Add("io", "print", {}, {Argument::Const(Value::Int(1))});
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(analysis::AnalyzeMemory(changed, stale), "CHECK failed");
}

// The signature table stays in lock-step with the engine: every kernel the
// registry exposes has a shape entry, so the lint can type-check any plan
// the compiler emits.
TEST(SignatureTableTest, CoversEveryRegisteredKernel) {
  for (const std::string& name :
       engine::ModuleRegistry::Default()->ListKernels()) {
    size_t dotpos = name.find('.');
    ASSERT_NE(dotpos, std::string::npos) << name;
    EXPECT_NE(analysis::LookupKernelSignature(name.substr(0, dotpos),
                                              name.substr(dotpos + 1)),
              nullptr)
        << "registered kernel " << name << " missing from the signature table";
  }
}

// ---------------------------------------------------------------------------
// SARIF schema shape, fingerprints, and baselines
// ---------------------------------------------------------------------------

// Minimal structural audit against SARIF 2.1.0: regions are 1-based with an
// explicit startColumn, every result's ruleIndex points at the entry in the
// rules array whose id matches its ruleId, and rules appear in
// first-appearance order. (Full-output fidelity is the golden-file test in
// absint_test.cc.)
TEST(SarifSchemaShapeTest, RuleIndexAndRegionsAreConsistent) {
  std::vector<Diagnostic> diags(3);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "trace-dependency-violation";
  diags[0].pc = 0;
  diags[0].message = "first";
  diags[1].severity = Severity::kWarning;
  diags[1].check_id = "type-flow";
  diags[1].pc = 4;
  diags[1].message = "second";
  diags[2].severity = Severity::kNote;
  diags[2].check_id = "trace-dependency-violation";
  diags[2].pc = 9;
  diags[2].message = "third";
  std::string sarif = analysis::DiagnosticsToSarif(diags, "p.mal");

  // Rules: first-appearance order, each id exactly once.
  size_t rule0 = sarif.find("{\"id\": \"trace-dependency-violation\"");
  size_t rule1 = sarif.find("{\"id\": \"type-flow\"");
  ASSERT_NE(rule0, std::string::npos);
  ASSERT_NE(rule1, std::string::npos);
  EXPECT_LT(rule0, rule1);
  EXPECT_EQ(sarif.find("{\"id\": \"trace-dependency-violation\"", rule0 + 1),
            std::string::npos);

  // Results reference the matching rule index.
  EXPECT_NE(sarif.find("\"ruleId\": \"trace-dependency-violation\", "
                       "\"ruleIndex\": 0"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"type-flow\", \"ruleIndex\": 1"),
            std::string::npos);

  // Regions are 1-based: pc 0 is line 1 column 1; pc 9 is line 10.
  EXPECT_NE(sarif.find("\"region\": {\"startLine\": 1, \"startColumn\": 1}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"region\": {\"startLine\": 10, \"startColumn\": 1}"),
            std::string::npos);
  EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);
  EXPECT_EQ(sarif.find("\"startColumn\": 0"), std::string::npos);
}

TEST(FingerprintTest, NormalizesDigitsButKeepsIdentity) {
  Diagnostic d;
  d.check_id = "trace-dependency-violation";
  d.pc = 3;
  d.message = "started before producer pc=2 finished";
  std::string fp = analysis::DiagnosticFingerprint(d);
  EXPECT_EQ(fp,
            "trace-dependency-violation:3:started before producer pc=# "
            "finished");

  // Drifting counts inside the message do not change the fingerprint...
  Diagnostic drifted = d;
  drifted.message = "started before producer pc=7 finished";
  EXPECT_EQ(analysis::DiagnosticFingerprint(drifted), fp);
  // ...but a different pc or check does.
  Diagnostic moved = d;
  moved.pc = 4;
  EXPECT_NE(analysis::DiagnosticFingerprint(moved), fp);
}

TEST(BaselineTest, RoundTripSuppressesOnlyListedFindings) {
  std::vector<Diagnostic> diags(2);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "trace-write-race";
  diags[0].pc = 5;
  diags[0].message = "write-write race on X_9";
  diags[1].severity = Severity::kNote;
  diags[1].check_id = "schedule-serialization";
  diags[1].pc = -1;
  diags[1].message = "plan admits 4-wide parallelism";

  // Baseline only the first finding; parse tolerates comments and blanks.
  std::string file = "# comment\n\n" +
                     analysis::DiagnosticFingerprint(diags[0]) + "\n";
  std::vector<std::string> baseline = analysis::ParseBaseline(file);
  ASSERT_EQ(baseline.size(), 1u);
  std::vector<Diagnostic> left = analysis::ApplyBaseline(diags, baseline);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].check_id, "schedule-serialization");

  // FormatBaseline over the findings suppresses everything on re-apply.
  std::vector<std::string> full =
      analysis::ParseBaseline(analysis::FormatBaseline(diags));
  EXPECT_TRUE(analysis::ApplyBaseline(diags, full).empty());
}

TEST(FailOnTest, ThresholdMatchesSeverityOrdering) {
  std::vector<Diagnostic> diags(1);
  diags[0].severity = Severity::kWarning;
  diags[0].check_id = "dead-instruction";
  diags[0].message = "m";
  EXPECT_TRUE(analysis::AnyAtOrAbove(diags, Severity::kNote));
  EXPECT_TRUE(analysis::AnyAtOrAbove(diags, Severity::kWarning));
  EXPECT_FALSE(analysis::AnyAtOrAbove(diags, Severity::kError));
  EXPECT_FALSE(analysis::AnyAtOrAbove({}, Severity::kNote));
}


// ---------------------------------------------------------------------------
// trace-sequence-gap
// ---------------------------------------------------------------------------

std::vector<TraceEvent> SeqTrace(const std::vector<int64_t>& seqs) {
  std::vector<TraceEvent> trace;
  for (int64_t seq : seqs) {
    TraceEvent e;
    e.event = seq;
    e.time_us = 100 + seq;
    e.pc = 0;
    e.state = EventState::kDone;
    trace.push_back(e);
  }
  return trace;
}

TEST(TraceSequenceGapTest, CleanContiguousTraceHasNoFindings) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 1, 2, 3, 4, 5});
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  EXPECT_TRUE(
      RunOne(analysis::MakeTraceSequenceGapCheck(), ctx).empty());
}

TEST(TraceSequenceGapTest, MissingSequenceNumbersWarn) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 1, 4, 5});  // 2 and 3 lost in transit
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].check_id, "trace-sequence-gap");
  EXPECT_NE(diags[0].message.find("2 of 6"), std::string::npos)
      << diags[0].message;
}

TEST(TraceSequenceGapTest, DuplicatedSequenceNumbersError) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 1, 1, 2});
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_NE(diags[0].message.find("appears 2 times"), std::string::npos);
}

TEST(TraceSequenceGapTest, FileOrderRegressionIsANote) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 2, 1, 3});  // complete but recorded out of order
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);
  EXPECT_NE(diags[0].message.find("out of emission order"),
            std::string::npos);
}

TEST(TraceSequenceGapTest, TornTraceCapsDetailedDuplicates) {
  mal::Program p = CleanPlan();
  std::vector<int64_t> seqs;
  for (int64_t q = 0; q < 12; ++q) {
    seqs.push_back(q);
    seqs.push_back(q);  // every number duplicated: 12 > kMaxDetailed
  }
  auto trace = SeqTrace(seqs);
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  // 8 detailed + 1 summary, all errors.
  ASSERT_EQ(diags.size(), 9u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kError);
  }
}

TEST(TraceSequenceGapTest, SkippedWithoutATrace) {
  mal::Program p = CleanPlan();
  EXPECT_TRUE(
      RunOne(analysis::MakeTraceSequenceGapCheck(), PlanContext(p)).empty());
}

}  // namespace
}  // namespace stetho
