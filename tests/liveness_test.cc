// Tests for the static memory-lifetime analysis (analysis/liveness.h): the
// per-range byte model, the sequential accountant simulation, conformance of
// the static bounds against the engine's recorded live-byte peaks, and the
// memory_reorder pass's safety property (execution-equivalent, never
// peak-worse) across the TPC-H sweep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/liveness.h"
#include "engine/interpreter.h"
#include "mal/program.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho {
namespace {

using analysis::AnalyzeMemory;
using analysis::LiveRange;
using analysis::MemoryReport;
using analysis::ParallelPeakBound;
using mal::Argument;
using mal::MalType;
using storage::DataType;
using storage::Value;

MalType Lng() { return MalType::Scalar(DataType::kInt64); }
MalType BatLng() { return MalType::Bat(DataType::kInt64); }
MalType BatOid() { return MalType::Bat(DataType::kOid); }

/// densebat(16) -> mirror -> batcalc.add -> count -> print. Every BAT is an
/// exact 16-row column: 16 * 8 payload + 16 null-mask bytes = 144 each.
mal::Program SmallPlan() {
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

const LiveRange* FindRange(const MemoryReport& report, int var) {
  for (const LiveRange& r : report.ranges) {
    if (r.var == var) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Byte model + sequential profile on a hand-computed plan
// ---------------------------------------------------------------------------

TEST(LivenessTest, HandComputedSequentialProfile) {
  mal::Program p = SmallPlan();
  MemoryReport report = AnalyzeMemory(p);
  ASSERT_TRUE(report.bounded);

  // Each 16-row column: 16 oid/lng payload bytes * 8 + 16 null-mask bytes.
  const LiveRange* a = FindRange(report, 0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->bytes, 16 * 8 + 16);
  EXPECT_EQ(a->card_hi, 16);
  EXPECT_TRUE(a->exact);
  EXPECT_EQ(a->def_pc, 0);
  EXPECT_EQ(a->last_use_pc, 2);  // consumed by mirror (pc 1) and add (pc 2)
  EXPECT_EQ(a->num_consumers, 2);

  // Accountant simulation: a(144) | a+b(288) | a+b+c then release a,b (144)
  // | release c (0) | sink (0). Peak is the instant all three are live.
  ASSERT_EQ(report.live_after.size(), 5u);
  EXPECT_EQ(report.live_after[0], 144);
  EXPECT_EQ(report.live_after[1], 288);
  EXPECT_EQ(report.live_after[2], 144);
  EXPECT_EQ(report.live_after[3], 0);
  EXPECT_EQ(report.live_after[4], 0);
  EXPECT_EQ(report.seq_peak_bytes, 432);
  EXPECT_EQ(report.seq_peak_pc, 2);

  // No base-table reads in this plan.
  EXPECT_EQ(report.input_bytes, 0);
}

TEST(LivenessTest, UnboundedSourceMakesReportUnbounded) {
  mal::Program p;
  int m = p.AddVariable(Lng());
  p.Add("sql", "mvc", {m}, {});
  int t = p.AddVariable(BatOid());
  p.Add("sql", "tid", {t},
        {Argument::Var(m), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("t"))});  // no cardinality annotation
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(t)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  MemoryReport report = AnalyzeMemory(p);
  EXPECT_FALSE(report.bounded);
  EXPECT_EQ(report.seq_peak_bytes, analysis::kUnboundedBytes);
  EXPECT_EQ(ParallelPeakBound(p, report, 4), analysis::kUnboundedBytes);
}

TEST(LivenessTest, AnnotatedSourceContributesInputBytes) {
  mal::Program p;
  int m = p.AddVariable(Lng());
  p.Add("sql", "mvc", {m}, {});
  int t = p.AddVariable(BatOid());
  p.Add("sql", "tid", {t},
        {Argument::Var(m), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("t"))});
  p.AnnotateCardinality(t, 100, 100);
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(t)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  MemoryReport report = AnalyzeMemory(p);
  ASSERT_TRUE(report.bounded);
  EXPECT_EQ(report.input_bytes, 100 * 8 + 100);
  EXPECT_EQ(report.seq_peak_bytes, 100 * 8 + 100);
}

TEST(LivenessTest, HugeCardinalitySaturatesInsteadOfWrapping) {
  // 2^60 string rows cost 2^66 bytes: the product must saturate at the
  // unbounded sentinel, not wrap to a small "dominating" bound.
  mal::Instruction ins;
  ins.module = "algebra";
  ins.function = "projection";
  analysis::AbstractValue value;
  value.defined = true;
  value.is_bat = analysis::Tri::kTrue;
  value.elem = DataType::kString;
  value.card = analysis::Interval::Range(0, int64_t{1} << 60);
  EXPECT_EQ(analysis::EstimateResultBytes(ins, {}, value),
            analysis::kUnboundedBytes);
  // Same for the 8 B/row numeric payload at 2^61 rows.
  value.elem = DataType::kInt64;
  value.card = analysis::Interval::Range(0, int64_t{1} << 61);
  EXPECT_EQ(analysis::EstimateResultBytes(ins, {}, value),
            analysis::kUnboundedBytes);
  EXPECT_EQ(analysis::SaturatingMulBytes(int64_t{1} << 40, int64_t{1} << 30),
            analysis::kUnboundedBytes);
  EXPECT_EQ(analysis::SaturatingMulBytes(3, 8), 24);
  EXPECT_EQ(analysis::SaturatingMulBytes(0, 8), 0);
}

TEST(LivenessTest, FormatBytesAndBudgetParsing) {
  EXPECT_EQ(analysis::FormatBytes(analysis::kUnboundedBytes), "unbounded");
  EXPECT_EQ(analysis::FormatBytes(512), "512 B");
  EXPECT_NE(analysis::FormatBytes(3 << 20).find("MiB"), std::string::npos);

  ASSERT_EQ(setenv("STETHO_MEM_BUDGET", "64m", 1), 0);
  EXPECT_EQ(analysis::EnvMemBudgetBytes(), int64_t{64} << 20);
  ASSERT_EQ(setenv("STETHO_MEM_BUDGET", "1024", 1), 0);
  EXPECT_EQ(analysis::EnvMemBudgetBytes(), 1024);
  ASSERT_EQ(unsetenv("STETHO_MEM_BUDGET"), 0);
  EXPECT_EQ(analysis::EnvMemBudgetBytes(), 0);
}

// ---------------------------------------------------------------------------
// Conformance: the static bounds dominate what the engine actually records
// ---------------------------------------------------------------------------

class TpchLivenessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    auto cat = tpch::GenerateTpch(config);
    ASSERT_TRUE(cat.ok());
    catalog_ = new storage::Catalog(std::move(cat.value()));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static mal::Program Compile(const char* query, int pieces) {
    auto plan =
        sql::Compiler::CompileSql(catalog_, tpch::GetQuery(query).value().sql);
    EXPECT_TRUE(plan.ok());
    optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
    auto fired = pipeline.Run(&plan.value());
    EXPECT_TRUE(fired.ok());
    return std::move(plan.value());
  }
  static storage::Catalog* catalog_;
};

storage::Catalog* TpchLivenessTest::catalog_ = nullptr;

TEST_F(TpchLivenessTest, StaticBoundsDominateRecordedPeaks) {
  for (const char* query : {"paper", "q1", "q6", "q14", "big_group"}) {
    for (int pieces : {0, 8}) {
      SCOPED_TRACE(std::string(query) + " pieces=" + std::to_string(pieces));
      mal::Program plan = Compile(query, pieces);
      MemoryReport report = AnalyzeMemory(plan);
      ASSERT_TRUE(report.bounded);

      engine::Interpreter interp(catalog_);
      engine::ExecOptions seq;
      seq.use_dataflow = false;
      auto sr = interp.Execute(plan, seq);
      ASSERT_TRUE(sr.ok()) << sr.status().ToString();
      // Program-order execution must stay under the sequential simulation.
      EXPECT_LE(sr.value().peak_rss_bytes, report.seq_peak_bytes);

      engine::ExecOptions par;
      par.num_threads = 4;
      auto pr = interp.Execute(plan, par);
      ASSERT_TRUE(pr.ok()) << pr.status().ToString();
      // Any dataflow schedule must stay under the dop-aware bound.
      int64_t bound = ParallelPeakBound(plan, report, 4);
      EXPECT_LE(pr.value().peak_rss_bytes, bound);
      // And the parallel bound can never undercut the sequential peak
      // (sequential order is one of the legal schedules).
      EXPECT_GE(bound, report.seq_peak_bytes);
    }
  }
}

TEST_F(TpchLivenessTest, ReportFormatsWithoutSurprises) {
  mal::Program plan = Compile("q1", 8);
  MemoryReport report = AnalyzeMemory(plan);
  std::string text = analysis::FormatMemoryReport(plan, report, 4);
  EXPECT_NE(text.find("sequential peak"), std::string::npos);
  EXPECT_NE(text.find("parallel bound"), std::string::npos);
  EXPECT_NE(text.find("heaviest live ranges"), std::string::npos);
}

// ---------------------------------------------------------------------------
// memory_reorder property: execution-equivalent and never peak-worse
// ---------------------------------------------------------------------------

void ExpectSameResults(const engine::QueryResult& a,
                       const engine::QueryResult& b) {
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    const auto& ca = a.columns[c];
    const auto& cb = b.columns[c];
    ASSERT_EQ(ca.is_scalar, cb.is_scalar);
    if (ca.is_scalar) {
      EXPECT_EQ(ca.scalar.Compare(cb.scalar), 0);
      continue;
    }
    ASSERT_EQ(ca.column->size(), cb.column->size()) << "col " << c;
    for (size_t i = 0; i < ca.column->size(); ++i) {
      ASSERT_EQ(ca.column->GetValue(i), cb.column->GetValue(i))
          << "col " << c << " row " << i;
    }
  }
}

TEST_F(TpchLivenessTest, MemoryReorderIsSafeAcrossTheQuerySweep) {
  auto pass = optimizer::MakeMemoryReorderPass();
  int fired_count = 0;
  for (const char* query :
       {"paper", "q1", "q3", "q5", "q6", "q12", "q14", "big_group",
        "scan_heavy", "q18", "q11", "q16", "distinct_flags"}) {
    SCOPED_TRACE(query);
    auto base =
        sql::Compiler::CompileSql(catalog_, tpch::GetQuery(query).value().sql);
    ASSERT_TRUE(base.ok());
    MemoryReport before = AnalyzeMemory(base.value());
    analysis::PlanSummary summary =
        analysis::SummarizeObservable(base.value());

    mal::Program reordered = base.value();
    auto changed = pass->Run(&reordered);
    ASSERT_TRUE(changed.ok()) << changed.status().ToString();
    if (!changed.value()) continue;
    ++fired_count;

    // Structurally valid, observably equivalent, and strictly peak-better.
    ASSERT_TRUE(reordered.Validate().ok());
    EXPECT_TRUE(analysis::CheckSummaryEquivalence(
                    summary, analysis::SummarizeObservable(reordered),
                    "memory_reorder")
                    .ok());
    MemoryReport after = AnalyzeMemory(reordered);
    ASSERT_TRUE(after.bounded);
    EXPECT_LT(after.seq_peak_bytes, before.seq_peak_bytes);

    // Execution equivalence, sequentially on both plans.
    engine::Interpreter interp(catalog_);
    engine::ExecOptions seq;
    seq.use_dataflow = false;
    auto ra = interp.Execute(base.value(), seq);
    auto rb = interp.Execute(reordered, seq);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ExpectSameResults(ra.value(), rb.value());
    // The reordered plan's recorded peak also respects its new bound.
    EXPECT_LE(rb.value().peak_rss_bytes, after.seq_peak_bytes);
  }
  // The pass is self-rejecting, but it must actually fire somewhere in the
  // sweep or the property above is vacuous.
  EXPECT_GT(fired_count, 0);
}

}  // namespace
}  // namespace stetho
