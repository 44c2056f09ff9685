#include "pisa/layout.h"

#include <algorithm>

namespace sonata::pisa {

StagePacker::StagePacker(const SwitchConfig& cfg)
    : cfg_(cfg), stages_(static_cast<std::size_t>(cfg.stages)) {}

bool StagePacker::push(const ProgramResources& program, std::string* error) {
  // C5: total metadata across all placed programs.
  const int metadata = metadata_bits_ + program.metadata_bits;
  if (static_cast<std::uint64_t>(metadata) > cfg_.metadata_bits) {
    if (error) {
      *error = "metadata budget exceeded: " + std::to_string(metadata) + " > " +
               std::to_string(cfg_.metadata_bits) + " bits (C5)";
    }
    return false;
  }

  const std::size_t first_table = table_stages_.size();
  saved_.insert(saved_.end(), stages_.begin(), stages_.end());
  const auto fail = [&](std::string why) {
    std::copy(saved_.end() - static_cast<std::ptrdiff_t>(stages_.size()), saved_.end(),
              stages_.begin());
    saved_.resize(saved_.size() - stages_.size());
    table_stages_.resize(first_table);
    if (error) *error = std::move(why);
    return false;
  };

  int prev_stage = -1;
  for (const auto& table : program.tables) {
    if (table.stateful && table.register_bits > cfg_.max_bits_per_register) {
      return fail("table " + table.name + " needs " + std::to_string(table.register_bits) +
                  " register bits; per-register cap is " +
                  std::to_string(cfg_.max_bits_per_register));
    }
    int placed = -1;
    for (int s = prev_stage + 1; s < cfg_.stages; ++s) {
      const StageUsage& u = stages_[static_cast<std::size_t>(s)];
      const bool stateful_ok = !table.stateful || u.stateful < cfg_.stateful_actions_per_stage;
      const bool actions_ok =
          u.stateless_actions + table.actions <= cfg_.stateless_actions_per_stage;
      const bool bits_ok = u.register_bits + table.register_bits <= cfg_.register_bits_per_stage;
      if (stateful_ok && actions_ok && bits_ok) {
        placed = s;
        break;
      }
    }
    if (placed < 0) {
      return fail("no stage fits table " + table.name + " (S=" + std::to_string(cfg_.stages) +
                  ", C1-C4)");
    }
    StageUsage& u = stages_[static_cast<std::size_t>(placed)];
    if (table.stateful) ++u.stateful;
    u.stateless_actions += table.actions;
    u.register_bits += table.register_bits;
    table_stages_.push_back(placed);
    prev_stage = placed;
  }
  prefix_.push_back({first_table, metadata_bits_});
  metadata_bits_ = metadata;
  return true;
}

void StagePacker::truncate(std::size_t mark) {
  if (mark >= prefix_.size()) return;
  const auto saved_at = static_cast<std::ptrdiff_t>(mark * stages_.size());
  std::copy(saved_.begin() + saved_at, saved_.begin() + saved_at +
                                           static_cast<std::ptrdiff_t>(stages_.size()),
            stages_.begin());
  saved_.resize(mark * stages_.size());
  table_stages_.resize(prefix_[mark].first_table);
  metadata_bits_ = prefix_[mark].metadata_bits;
  prefix_.resize(mark);
}

Layout StagePacker::layout() const {
  Layout layout;
  layout.feasible = true;
  layout.stages = stages_;
  layout.metadata_bits_used = metadata_bits_;
  layout.table_stages.reserve(prefix_.size());
  for (std::size_t pi = 0; pi < prefix_.size(); ++pi) {
    const std::size_t end =
        pi + 1 < prefix_.size() ? prefix_[pi + 1].first_table : table_stages_.size();
    layout.table_stages.emplace_back(
        table_stages_.begin() + static_cast<std::ptrdiff_t>(prefix_[pi].first_table),
        table_stages_.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return layout;
}

Layout assign_stages(const SwitchConfig& cfg, const std::vector<ProgramResources>& programs) {
  StagePacker packer(cfg);
  for (const auto& program : programs) {
    Layout failed;
    if (!packer.push(program, &failed.error)) return failed;
  }
  return packer.layout();
}

}  // namespace sonata::pisa
