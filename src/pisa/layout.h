// Stage layout: place every program's match-action tables into the
// physical pipeline subject to the ILP's switch constraints (paper Table 2):
//   C1  per-stage register bits  <= B
//   C2  per-stage stateful ops   <= A
//   C3  every table in a stage    < S
//   C4  tables of one query in increasing stage order
//   C5  total PHV metadata       <= M
// plus the per-register cap within a stage.
//
// Independent queries share stages freely; dependent tables of the same
// pipeline occupy strictly increasing stages. The greedy earliest-fit order
// is optimal for C3/C4 given per-stage capacities, and the planner treats a
// failed layout as an infeasible candidate plan.
//
// Earliest-fit in program order is prefix-stable: placing a program never
// moves an earlier one. StagePacker exploits that for the planner's search,
// which grows and shrinks one program list depth-first: push() places one
// program on top of the current prefix, truncate() drops back to an earlier
// prefix, and neither re-packs what is already placed. assign_stages() is a
// loop of push() over a fresh packer, so there is one first-fit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pisa/config.h"
#include "pisa/program.h"

namespace sonata::pisa {

struct StageUsage {
  int stateful = 0;
  int stateless_actions = 0;
  std::uint64_t register_bits = 0;
};

struct Layout {
  bool feasible = false;
  std::string error;                           // why layout failed
  std::vector<std::vector<int>> table_stages;  // [program][table] -> stage
  std::vector<StageUsage> stages;
  int metadata_bits_used = 0;
};

class StagePacker {
 public:
  explicit StagePacker(const SwitchConfig& cfg);

  // Place `program` after the programs already placed. Returns false, and
  // leaves the packer unchanged, when it breaks C1-C5 or the per-register
  // cap; `error` (optional) then says why.
  bool push(const ProgramResources& program, std::string* error = nullptr);

  // Programs placed so far: the mark to truncate() back to.
  [[nodiscard]] std::size_t size() const noexcept { return prefix_.size(); }

  // Remove every program after the first `mark`.
  void truncate(std::size_t mark);

  // The feasible layout of the programs placed so far.
  [[nodiscard]] Layout layout() const;

 private:
  // State before one placed program, restored when truncate() drops it.
  struct Prefix {
    std::size_t first_table = 0;  // into table_stages_
    int metadata_bits = 0;
  };

  SwitchConfig cfg_;
  std::vector<StageUsage> stages_;      // current usage, cfg_.stages entries
  std::vector<StageUsage> saved_;       // stages_ before each placed program
  std::vector<Prefix> prefix_;          // one per placed program
  std::vector<int> table_stages_;       // stage of every placed table, in order
  int metadata_bits_ = 0;
};

[[nodiscard]] Layout assign_stages(const SwitchConfig& cfg,
                                   const std::vector<ProgramResources>& programs);

}  // namespace sonata::pisa
