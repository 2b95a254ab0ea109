#include <gtest/gtest.h>

#include "engine/interpreter.h"
#include "mal/program.h"
#include "obs/metrics.h"
#include "optimizer/pass.h"
#include "sql/compiler.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::optimizer {
namespace {

using engine::ExecOptions;
using engine::Interpreter;
using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::Catalog;
using storage::DataType;
using storage::Value;

size_t CountOps(const Program& p, const std::string& full_name) {
  size_t n = 0;
  for (const auto& ins : p.instructions()) {
    if (ins.FullName() == full_name) ++n;
  }
  return n;
}

Catalog TinyTpch() {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  EXPECT_TRUE(cat.ok());
  return std::move(cat.value());
}

// --- constant folding ---

TEST(ConstantFoldingTest, FoldsScalarCalc) {
  Program p;
  int a = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {a},
        {Argument::Const(Value::Int(2)), Argument::Const(Value::Int(3))});
  int b = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "mul", {b},
        {Argument::Var(a), Argument::Const(Value::Int(10))});
  p.Add("io", "print", {}, {Argument::Var(b)});

  auto pass = MakeConstantFoldingPass();
  auto changed = pass->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  // Both calc instructions fold away; print receives the constant 50.
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.instruction(0).FullName(), "io.print");
  ASSERT_EQ(p.instruction(0).args.size(), 1u);
  EXPECT_EQ(p.instruction(0).args[0].constant, Value::Int(50));
}

TEST(ConstantFoldingTest, LeavesNonConstAlone) {
  Program p;
  int a = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {a}, {});
  int b = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {b}, {Argument::Var(a), Argument::Const(Value::Int(1))});
  p.Add("io", "print", {}, {Argument::Var(b)});
  auto changed = MakeConstantFoldingPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 3u);
}

// --- CSE ---

TEST(CsePassTest, MergesIdenticalPureInstructions) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  auto bind = [&p, mvc] {
    int v = p.AddVariable(MalType::Bat(DataType::kInt64));
    p.Add("sql", "bind", {v},
          {Argument::Var(mvc), Argument::Const(Value::String("sys")),
           Argument::Const(Value::String("t")),
           Argument::Const(Value::String("c")), Argument::Const(Value::Int(0))});
    return v;
  };
  int b1 = bind();
  int b2 = bind();
  p.Add("io", "print", {}, {Argument::Var(b1)});
  p.Add("io", "print", {}, {Argument::Var(b2)});

  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(CountOps(p, "sql.bind"), 1u);
  // Both prints now reference the same variable.
  EXPECT_EQ(p.instruction(2).args[0].var, p.instruction(3).args[0].var);
}

TEST(CsePassTest, DoesNotMergeImpure) {
  Program p;
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(1))});
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 2u);
}

TEST(CsePassTest, DistinguishesDifferentConstantTypes) {
  Program p;
  int a = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(3))});
  int b = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Oid(3))});
  p.Add("io", "print", {}, {Argument::Var(a)});
  p.Add("io", "print", {}, {Argument::Var(b)});
  auto changed = MakeCommonSubexpressionPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
}

// --- dead code ---

TEST(DeadCodeTest, RemovesUnusedPureChains) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int unused = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {unused},
        {Argument::Var(mvc), Argument::Const(Value::Int(1))});
  int used = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("calc", "add", {used},
        {Argument::Var(mvc), Argument::Const(Value::Int(2))});
  p.Add("io", "print", {}, {Argument::Var(used)});

  auto changed = MakeDeadCodePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(CountOps(p, "calc.add"), 1u);
}

TEST(DeadCodeTest, KeepsImpureInstructions) {
  Program p;
  p.Add("debug", "sleep", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeDeadCodePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.size(), 1u);
}

// --- mitosis ---

TEST(MitosisTest, SplitsScanSelects) {
  Catalog cat = TinyTpch();
  auto program = sql::Compiler::CompileSql(
      &cat, "select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(program.ok());
  Program p = std::move(program.value());
  size_t before = p.size();
  ASSERT_EQ(CountOps(p, "algebra.thetaselect"), 1u);

  auto changed = MakeMitosisPass(4)->Run(&p);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(CountOps(p, "algebra.thetaselect"), 4u);
  EXPECT_EQ(CountOps(p, "bat.partition"), 4u);
  EXPECT_EQ(CountOps(p, "mat.pack"), 1u);
  EXPECT_GT(p.size(), before);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(MitosisTest, ResultsUnchangedByPartitioning) {
  Catalog cat = TinyTpch();
  for (const char* id : {"paper", "q1", "q6"}) {
    auto q = tpch::GetQuery(id);
    ASSERT_TRUE(q.ok());
    auto base = sql::Compiler::CompileSql(&cat, q.value().sql);
    ASSERT_TRUE(base.ok()) << id;
    Program plain = base.value();
    Program split = base.value();
    auto changed = MakeMitosisPass(8)->Run(&split);
    ASSERT_TRUE(changed.ok()) << id;

    Interpreter interp(&cat);
    ExecOptions opts;
    opts.num_threads = 4;
    auto a = interp.Execute(plain, opts);
    auto b = interp.Execute(split, opts);
    ASSERT_TRUE(a.ok()) << id << a.status().ToString();
    ASSERT_TRUE(b.ok()) << id << b.status().ToString();
    ASSERT_EQ(a.value().columns.size(), b.value().columns.size()) << id;
    for (size_t c = 0; c < a.value().columns.size(); ++c) {
      const auto& ca = a.value().columns[c];
      const auto& cb = b.value().columns[c];
      if (ca.is_scalar) {
        EXPECT_EQ(ca.scalar.Compare(cb.scalar), 0) << id;
        continue;
      }
      ASSERT_EQ(ca.column->size(), cb.column->size()) << id;
      for (size_t i = 0; i < ca.column->size(); ++i) {
        EXPECT_EQ(ca.column->GetValue(i), cb.column->GetValue(i)) << id;
      }
    }
  }
}

TEST(MitosisTest, NoEffectWithoutScanSelects) {
  Program p;
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  p.Add("io", "print", {}, {Argument::Var(mvc)});
  auto changed = MakeMitosisPass(4)->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
}

// --- markers / pruning ---

TEST(DataflowMarkerTest, PrependsOnce) {
  Program p;
  p.Add("io", "print", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeDataflowMarkerPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(p.instruction(0).FullName(), "language.dataflow");
  auto again = MakeDataflowMarkerPass()->Run(&p);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
}

TEST(AdminPruneTest, RemovesLanguageNodes) {
  Program p;
  p.Add("language", "dataflow", {}, {});
  p.Add("io", "print", {}, {Argument::Const(Value::Int(1))});
  auto changed = MakeAdminPrunePass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.instruction(0).FullName(), "io.print");
}

// --- pipeline ---

TEST(PipelineTest, DefaultPipelineRunsAndValidates) {
  Catalog cat = TinyTpch();
  auto q = tpch::GetQuery("q3");
  ASSERT_TRUE(q.ok());
  auto program = sql::Compiler::CompileSql(&cat, q.value().sql);
  ASSERT_TRUE(program.ok());
  Program p = std::move(program.value());

  Pipeline pipeline = Pipeline::Default(/*mitosis_pieces=*/4);
  auto fired = pipeline.Run(&p);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.instruction(0).FullName(), "language.dataflow");

  // Optimized plan still executes.
  Interpreter interp(&cat);
  ExecOptions opts;
  opts.num_threads = 4;
  auto r = interp.Execute(p, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(PipelineTest, OptimizedPlanMatchesUnoptimized) {
  Catalog cat = TinyTpch();
  for (const char* id : {"q1", "q3", "q6", "q14", "scan_heavy"}) {
    auto q = tpch::GetQuery(id);
    ASSERT_TRUE(q.ok());
    auto base = sql::Compiler::CompileSql(&cat, q.value().sql);
    ASSERT_TRUE(base.ok()) << id;
    Program plain = base.value();
    Program optimized = base.value();
    Pipeline pipeline = Pipeline::Default(/*mitosis_pieces=*/4);
    auto fired = pipeline.Run(&optimized);
    ASSERT_TRUE(fired.ok()) << id << fired.status().ToString();

    Interpreter interp(&cat);
    ExecOptions opts;
    auto a = interp.Execute(plain, opts);
    auto b = interp.Execute(optimized, opts);
    ASSERT_TRUE(a.ok()) << id;
    ASSERT_TRUE(b.ok()) << id << ": " << b.status().ToString();
    ASSERT_EQ(a.value().columns.size(), b.value().columns.size()) << id;
    for (size_t c = 0; c < a.value().columns.size(); ++c) {
      const auto& ca = a.value().columns[c];
      const auto& cb = b.value().columns[c];
      if (ca.is_scalar) {
        EXPECT_EQ(ca.scalar.Compare(cb.scalar), 0) << id;
        continue;
      }
      ASSERT_EQ(ca.column->size(), cb.column->size()) << id;
      for (size_t i = 0; i < ca.column->size(); ++i) {
        EXPECT_EQ(ca.column->GetValue(i), cb.column->GetValue(i)) << id;
      }
    }
  }
}

// A deliberately broken pass: rewrites the plan so an argument is used
// before its definition. The pipeline's post-pass lint must fail with a
// Status naming the pass and the violated check.
class ClobberPass : public Pass {
 public:
  const char* name() const override { return "clobber"; }
  Result<bool> Run(Program* program) override {
    std::vector<mal::Instruction> reversed(program->instructions().rbegin(),
                                           program->instructions().rend());
    program->ReplaceInstructions(std::move(reversed));
    return true;
  }
};

TEST(PipelineTest, BrokenPassFailsWithPassNameAndCheckId) {
  Catalog cat = TinyTpch();
  auto base = sql::Compiler::CompileSql(&cat, tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(base.ok());
  Program p = std::move(base.value());

  Pipeline pipeline;
  pipeline.Add(std::make_unique<ClobberPass>());
  auto fired = pipeline.Run(&p);
  ASSERT_FALSE(fired.ok());
  const Status st = fired.status();
  const std::string& msg = st.message();
  EXPECT_NE(msg.find("optimizer pass 'clobber'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ssa-def-before-use"), std::string::npos) << msg;
  EXPECT_NE(msg.find("pc="), std::string::npos) << msg;
}

// --- "declined means unchanged": the pipeline skips re-linting on it ---

TEST(PipelineTest, DeclinedPassLeavesPlanByteIdentical) {
  Catalog cat = TinyTpch();
  int declined = 0;
  for (const tpch::TpchQuery& q : tpch::TpchQueries()) {
    auto base = sql::Compiler::CompileSql(&cat, q.sql);
    ASSERT_TRUE(base.ok()) << q.id;
    for (int pieces : {0, 4, 16}) {
      Pipeline pipeline = Pipeline::Default(pieces);
      std::unique_ptr<Pass> prune_input = MakeAdminPrunePass();
      std::unique_ptr<Pass> prune_output = MakeAdminPrunePass();
      // Each pass sees the plan state it sees inside the pipeline; the
      // prune pass runs on the input (nothing to prune) and on the output
      // (the dataflow marker to remove).
      std::vector<Pass*> passes = {prune_input.get()};
      for (const auto& pass : pipeline.passes()) passes.push_back(pass.get());
      passes.push_back(prune_output.get());
      Program p = base.value();
      for (Pass* pass : passes) {
        const std::string before = p.ToString();
        auto changed = pass->Run(&p);
        ASSERT_TRUE(changed.ok()) << q.id << " " << pass->name();
        if (changed.value()) continue;
        ++declined;
        EXPECT_EQ(p.ToString(), before)
            << q.id << " pieces=" << pieces << ": '" << pass->name()
            << "' declined but changed the plan";
      }
    }
  }
  EXPECT_GT(declined, 0);
}

// Two registers, the large one defined first and printed last: the greedy
// schedule hoists the small one and its print, which shrinks the peak.
Program LargeThenSmall() {
  Program p;
  const MalType oids = MalType::Bat(DataType::kOid);
  int a = p.AddVariable(oids);
  int b = p.AddVariable(oids);
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(1000))});
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(10))});
  p.Add("io", "print", {}, {Argument::Var(b)});
  p.Add("io", "print", {}, {Argument::Var(a)});
  return p;
}

TEST(MemoryReorderTest, RejectedReorderRestoresExactOrder) {
  Program hoisted = LargeThenSmall();
  const std::string original = hoisted.ToString();
  auto fired = MakeMemoryReorderPass()->Run(&hoisted);
  ASSERT_TRUE(fired.ok());
  ASSERT_TRUE(fired.value());
  ASSERT_NE(hoisted.ToString(), original);

  // The same pair followed by a much larger register: the schedule still
  // hoists the small pair, but the large register alone sets the peak
  // either way, so the pass must reject its reordering.
  Program p = LargeThenSmall();
  int c = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("bat", "densebat", {c}, {Argument::Const(Value::Int(100000))});
  p.Add("io", "print", {}, {Argument::Var(c)});
  const std::string before = p.ToString();
  auto changed = MakeMemoryReorderPass()->Run(&p);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  EXPECT_EQ(p.ToString(), before);
}

/// Declines without touching the plan.
class DecliningPass : public Pass {
 public:
  const char* name() const override { return "declining"; }
  Result<bool> Run(Program*) override { return false; }
};

TEST(PipelineTest, PipelineOfDecliningPassesStillRejectsInvalidInput) {
  Catalog cat = TinyTpch();
  auto base = sql::Compiler::CompileSql(&cat, tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(base.ok());
  Program p = std::move(base.value());
  std::vector<mal::Instruction> reversed(p.instructions().rbegin(),
                                         p.instructions().rend());
  p.ReplaceInstructions(std::move(reversed));

  Pipeline pipeline;
  pipeline.Add(std::make_unique<DecliningPass>());
  auto fired = pipeline.Run(&p);
  ASSERT_FALSE(fired.ok());
  const std::string msg = fired.status().message();
  EXPECT_NE(msg.find("ssa-def-before-use"), std::string::npos) << msg;
  EXPECT_NE(msg.find("optimizer pipeline input"), std::string::npos) << msg;
}

int64_t AbsintRuns() {
  auto value =
      obs::Registry::Default()->CounterValue("stetho_absint_runs_total");
  return value.ok() ? value.value() : 0;
}

/// One sweep for the input summary, one per plan state a pass produced
/// (its lint and its differ summary share it), and one for memory_reorder's
/// own memory analysis. Re-linting after every pass cost about 48 on q6.
TEST(PipelineTest, InterpretsEachPlanStateOnce) {
  Catalog cat = TinyTpch();
  auto base = sql::Compiler::CompileSql(&cat, tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(base.ok());
  Program p = std::move(base.value());
  const int64_t runs = AbsintRuns();
  auto fired = Pipeline::Default(16).Run(&p);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  EXPECT_LE(AbsintRuns() - runs,
            1 + static_cast<int64_t>(fired.value().size()) + 1);
}

}  // namespace
}  // namespace stetho::optimizer
