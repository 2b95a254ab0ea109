#ifndef STETHO_ANALYSIS_ABSINT_H_
#define STETHO_ANALYSIS_ABSINT_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/domain.h"
#include "analysis/signatures.h"
#include "common/status.h"
#include "mal/program.h"

namespace stetho::analysis {

/// Abstract interpreter over MAL plans: assigns every SSA register an
/// AbstractValue (analysis/domain.h) by running the per-kernel transfer
/// functions registered in the signature table (analysis/signatures.cc) over
/// the plan in pc order. Plans are straight-line SSA, so one forward pass
/// reaches the fixpoint. The results feed the absint-based lint checks
/// (checks_absint.cc) and the optimizer's pass-equivalence differ.

/// One abstract value per program variable, indexed by variable id.
/// Registers no instruction assigns stay bottom (defined == false).
struct AbstractState {
  std::vector<AbstractValue> vars;
};

/// Abstract value of one instruction operand: constants are abstracted
/// exactly, variables read the current state (bottom when out of range or
/// not yet assigned — malformed plans analyze without crashing).
AbstractValue ArgOperandValue(const AbstractState& state,
                              const mal::Argument& arg);

/// Raw transfer result for one instruction: per-result values seeded from
/// the signature's shape kinds and refined by its transfer function, WITHOUT
/// folding in the results' declared MAL types. The type-flow check compares
/// this raw view against the declarations; AnalyzeProgram merges the two.
std::vector<AbstractValue> EvalInstruction(const mal::Program& program,
                                           const mal::Instruction& ins,
                                           const AbstractState& state);

/// Everything known about one instruction as the analysis steps over it.
/// `merged_results` is what the state records: the raw transfer result
/// refined by each result's declared type and cardinality annotation.
struct InstructionFacts {
  std::vector<AbstractValue> args;
  std::vector<AbstractValue> raw_results;
  std::vector<AbstractValue> merged_results;
};

using InstructionVisitor =
    std::function<void(const mal::Instruction&, const InstructionFacts&)>;

/// One sweep's results: the final state and every instruction's facts in
/// program order (`instructions[i]` belongs to pc i). The lint checks, the
/// memory model and the pass-equivalence differ all read one ProgramFacts
/// per plan state (analysis::CheckContext::absint()).
struct ProgramFacts {
  AbstractState state;
  std::vector<InstructionFacts> instructions;
};

/// Runs the analysis over the whole plan: the one abstract-interpretation
/// sweep every entry point below goes through. Each call counts in
/// `stetho_absint_runs_total`.
ProgramFacts AnalyzeProgramFacts(const mal::Program& program);

/// Calls `visit` on every instruction in pc order with its stored facts.
/// `facts` must have been derived from `program` as it is now; a count
/// mismatch aborts (facts of another plan state would pair with the wrong
/// instructions).
void VisitFacts(const mal::Program& program, const ProgramFacts& facts,
                const InstructionVisitor& visit);

/// AnalyzeProgramFacts, then `visit` (when non-null) on every instruction
/// with its facts; returns the final state.
AbstractState AnalyzeProgram(const mal::Program& program,
                             const InstructionVisitor& visit = nullptr);

/// One observable output slot: argument `arg_index` of the result-sink
/// instruction at `pc`. Identity across optimizer passes is positional
/// (op + arg_index in sink order) because passes renumber pcs.
struct SinkColumn {
  int pc = -1;
  std::string op;        ///< "module.function" of the sink
  size_t arg_index = 0;  ///< operand position within the sink
  AbstractValue value;
};

/// Abstract summary of everything a plan makes observable: the values
/// reaching result-sink operands, in plan order.
struct PlanSummary {
  std::vector<SinkColumn> columns;
};

/// The summary read from already derived facts of `program`.
PlanSummary SummarizeObservable(const mal::Program& program,
                                const ProgramFacts& facts);
/// SummarizeObservable(program, AnalyzeProgramFacts(program)).
PlanSummary SummarizeObservable(const mal::Program& program);

/// Pass-equivalence test: OkStatus when `after` is a plausible rewrite of
/// `before` (same sink columns, each column's abstract values compatible —
/// AbstractValue::CompatibleWith). Otherwise an Internal status naming
/// `label` (the pass), the column, and both abstract summaries. The
/// optimizer Pipeline calls this around every pass; a pass that narrows a
/// column to a DIFFERENT value than before provably changed query results.
Status CheckSummaryEquivalence(const PlanSummary& before,
                               const PlanSummary& after,
                               const std::string& label);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_ABSINT_H_
