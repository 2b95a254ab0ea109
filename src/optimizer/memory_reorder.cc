// memory_reorder — topologically reorders instructions to shrink the
// sequential live-byte peak predicted by the static footprint model
// (analysis/liveness.h). Greedy list scheduling over the dependency DAG:
// at every step the ready instruction with the smallest net live-byte
// delta (result bytes minus the bytes its completion releases) runs next,
// so heavy intermediates are consumed as soon as their consumers are
// legal instead of idling across unrelated work. Effectful instructions
// (sinks, unknown extensions) form a serialized backbone that keeps their
// relative order — observable output order is untouched, which is exactly
// what the pass-equivalence differ checks. The rewrite is self-rejecting:
// if the reordered plan's predicted sequential peak is not strictly
// smaller, the original order is restored and the pass reports "did not
// fire".

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/liveness.h"
#include "optimizer/pass.h"

namespace stetho::optimizer {
namespace {

class MemoryReorderPass final : public Pass {
 public:
  const char* name() const override { return "memory_reorder"; }

  Result<bool> Run(mal::Program* program) override {
    const size_t n = program->size();
    // A malformed plan's facts depend on its order (a use before its
    // definition reads bottom), so only a valid plan is reordered; the
    // pipeline's lint reports the malformed one.
    if (n < 3 || !program->Validate().ok()) return false;
    analysis::ProgramFacts facts = analysis::AnalyzeProgramFacts(*program);
    analysis::MemoryReport before = analysis::AnalyzeMemory(*program, facts);
    if (!before.bounded) return false;  // no finite objective to improve

    // Per-variable footprints and consumer counts.
    const size_t nvars = program->num_variables();
    std::vector<int64_t> var_bytes(nvars, 0);
    std::vector<int> consumers(nvars, 0);
    for (const analysis::LiveRange& r : before.ranges) {
      if (r.var >= 0 && static_cast<size_t>(r.var) < nvars) {
        var_bytes[static_cast<size_t>(r.var)] = r.bytes;
      }
    }
    for (const mal::Instruction& ins : program->instructions()) {
      for (const mal::Argument& a : ins.args) {
        if (a.kind == mal::Argument::Kind::kVar && a.var >= 0 &&
            static_cast<size_t>(a.var) < nvars) {
          consumers[static_cast<size_t>(a.var)]++;
        }
      }
    }

    // Dependency edges + a serialized backbone through every effectful
    // instruction so side effects keep their order.
    std::vector<std::vector<int>> succ(n);
    std::vector<int> indegree(n, 0);
    std::vector<std::vector<int>> deps = program->BuildDependencies();
    auto add_edge = [&](int from, int to) {
      succ[static_cast<size_t>(from)].push_back(to);
      indegree[static_cast<size_t>(to)]++;
    };
    for (size_t c = 0; c < deps.size(); ++c) {
      for (int p : deps[c]) add_edge(p, static_cast<int>(c));
    }
    int prev_effectful = -1;
    for (size_t pc = 0; pc < n; ++pc) {
      const mal::Instruction& ins = program->instruction(static_cast<int>(pc));
      if (IsPureOperation(ins.module, ins.function)) continue;
      if (prev_effectful >= 0) add_edge(prev_effectful, static_cast<int>(pc));
      prev_effectful = static_cast<int>(pc);
    }

    // Greedy schedule: smallest net live-byte delta first, original pc as
    // the deterministic tie break.
    std::vector<int> remaining = consumers;
    std::vector<int> ready;
    for (size_t pc = 0; pc < n; ++pc) {
      if (indegree[pc] == 0) ready.push_back(static_cast<int>(pc));
    }
    auto net_delta = [&](int pc) {
      const mal::Instruction& ins = program->instruction(pc);
      int64_t delta = 0;
      for (int r : ins.results) {
        if (r < 0 || static_cast<size_t>(r) >= nvars) continue;
        // Consumer-less results are released before the next instruction
        // runs, so they don't change the standing live set.
        if (consumers[static_cast<size_t>(r)] > 0) {
          delta += var_bytes[static_cast<size_t>(r)];
        }
      }
      std::vector<int> seen;
      for (const mal::Argument& a : ins.args) {
        if (a.kind != mal::Argument::Kind::kVar || a.var < 0 ||
            static_cast<size_t>(a.var) >= nvars) {
          continue;
        }
        if (std::find(seen.begin(), seen.end(), a.var) != seen.end()) continue;
        seen.push_back(a.var);
        int occurrences = 0;
        for (const mal::Argument& b : ins.args) {
          if (b.kind == mal::Argument::Kind::kVar && b.var == a.var) {
            occurrences++;
          }
        }
        if (remaining[static_cast<size_t>(a.var)] <= occurrences) {
          delta -= var_bytes[static_cast<size_t>(a.var)];
        }
      }
      return delta;
    };
    std::vector<int> order;
    order.reserve(n);
    while (!ready.empty()) {
      size_t best = 0;
      int64_t best_delta = net_delta(ready[0]);
      for (size_t i = 1; i < ready.size(); ++i) {
        int64_t d = net_delta(ready[i]);
        if (d < best_delta || (d == best_delta && ready[i] < ready[best])) {
          best = i;
          best_delta = d;
        }
      }
      int pc = ready[best];
      ready.erase(ready.begin() + static_cast<long>(best));
      order.push_back(pc);
      const mal::Instruction& ins = program->instruction(pc);
      for (const mal::Argument& a : ins.args) {
        if (a.kind == mal::Argument::Kind::kVar && a.var >= 0 &&
            static_cast<size_t>(a.var) < nvars &&
            remaining[static_cast<size_t>(a.var)] > 0) {
          remaining[static_cast<size_t>(a.var)]--;
        }
      }
      for (int s : succ[static_cast<size_t>(pc)]) {
        if (--indegree[static_cast<size_t>(s)] == 0) ready.push_back(s);
      }
    }
    if (order.size() != n) return false;  // cyclic deps: malformed plan
    bool identity = true;
    for (size_t i = 0; i < n; ++i) {
      if (order[i] != static_cast<int>(i)) {
        identity = false;
        break;
      }
    }
    if (identity) return false;

    std::vector<mal::Instruction> original = program->instructions();
    std::vector<mal::Instruction> reordered;
    reordered.reserve(n);
    for (int pc : order) {
      reordered.push_back(original[static_cast<size_t>(pc)]);
    }
    program->ReplaceInstructions(std::move(reordered));

    // Self-rejecting: the pass never ships a plan whose predicted peak is
    // not strictly smaller than what it started from. The new order is a
    // topological order of the same SSA instructions, and an instruction's
    // abstract facts depend only on its operands' producers and its result
    // declarations, so the facts carry over by permutation instead of a
    // second sweep.
    analysis::ProgramFacts reordered_facts;
    reordered_facts.instructions.reserve(n);
    for (int pc : order) {
      reordered_facts.instructions.push_back(
          std::move(facts.instructions[static_cast<size_t>(pc)]));
    }
    analysis::MemoryReport after =
        analysis::AnalyzeMemory(*program, reordered_facts);
    if (!after.bounded ||
        after.seq_peak_bytes >= before.seq_peak_bytes ||
        !program->Validate().ok()) {
      program->ReplaceInstructions(std::move(original));
      return false;
    }
    return true;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeMemoryReorderPass() {
  return std::make_unique<MemoryReorderPass>();
}

}  // namespace stetho::optimizer
