#ifndef STETHO_OPTIMIZER_PASS_H_
#define STETHO_OPTIMIZER_PASS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mal/program.h"

namespace stetho::optimizer {

/// One MAL-to-MAL rewrite, mirroring MonetDB's optimizer pipeline stages.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Rewrites `program` in place; returns true when anything changed. A
  /// pass that returns false must leave `program` exactly as it found it
  /// (the pipeline does not re-lint a plan state a pass declined to change).
  virtual Result<bool> Run(mal::Program* program) = 0;
};

/// True for kernels whose only observable effect is their result value —
/// these are safe to eliminate, deduplicate, and fold. Catalog readers
/// (sql.bind/tid/mvc) count as pure because tables are immutable.
bool IsPureOperation(const std::string& module, const std::string& function);

/// An ordered list of passes applied until fixpoint-per-pass (each pass runs
/// once, in order; the pipeline records which passes fired).
class Pipeline {
 public:
  Pipeline() = default;

  void Add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  size_t size() const { return passes_.size(); }
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

  /// Runs all passes in order. Returns the names of passes that changed the
  /// program. The program is re-linted with analysis::Runner::Default() and
  /// re-checked by the pass-equivalence differ after every pass that
  /// reports it changed the plan; when no pass does, the input plan is
  /// linted. A pass that returns false is trusted to have left the plan
  /// byte-identical (Pass::Run's contract), so the final plan is linted as
  /// long as every pass keeps that contract. An error diagnostic fails
  /// the pipeline with a Status naming the pass (or the input), the check
  /// id, and the offending pc/variable. Each plan state is interpreted once:
  /// its lint and its differ summary share one analysis::CheckContext.
  Result<std::vector<std::string>> Run(mal::Program* program) const;

  /// MonetDB-like default pipeline: constant folding, common subexpression
  /// elimination, dead code elimination, mitosis (with `mitosis_pieces`
  /// partitions when > 1), memory-aware reordering, and the dataflow
  /// marker.
  static Pipeline Default(int mitosis_pieces = 0);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// --- concrete passes ---

/// Evaluates calc.* instructions whose operands are all constants and
/// propagates the folded value into consumers.
std::unique_ptr<Pass> MakeConstantFoldingPass();

/// Deduplicates pure instructions with identical operations and arguments.
std::unique_ptr<Pass> MakeCommonSubexpressionPass();

/// Removes pure instructions whose results are never consumed.
std::unique_ptr<Pass> MakeDeadCodePass();

/// Splits candidate-list selects over sql.tid ranges into `pieces` parallel
/// partitions re-joined with mat.pack — MonetDB's mitosis/mergetable pair.
/// Enables multi-core dataflow execution and inflates plan graphs to the
/// >1000-node scale of the paper's Fig. 2.
std::unique_ptr<Pass> MakeMitosisPass(int pieces);

/// Topologically reorders instructions to shrink the sequential live-byte
/// peak predicted by analysis/liveness.h (greedy list scheduling that
/// consumes heavy intermediates as early as legal). Keeps the relative
/// order of effectful instructions, must pass Program::Validate() and the
/// pass-equivalence differ, and restores the original order (reporting
/// "did not fire") unless the predicted peak strictly shrinks. A plan that
/// fails Program::Validate() is left as it is.
std::unique_ptr<Pass> MakeMemoryReorderPass();

/// Prepends the language.dataflow() marker instruction (an administrative
/// node; the paper's §6 mentions pruning such nodes as future work).
std::unique_ptr<Pass> MakeDataflowMarkerPass();

/// Removes administrative instructions (language.*) from a plan — the
/// paper's planned "selective pruning of MAL plans" feature.
std::unique_ptr<Pass> MakeAdminPrunePass();

}  // namespace stetho::optimizer

#endif  // STETHO_OPTIMIZER_PASS_H_
