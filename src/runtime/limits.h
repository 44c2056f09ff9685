// Deployment limits the drivers enforce when they are built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sonata::runtime {

// WindowStats::contribution_mask holds one bit per switch (data-plane
// shard), so a deployment has at most this many switches. A larger one
// would report a window that lost shard 64 or above as complete.
inline constexpr std::size_t kMaxSwitches = 64;

// The contribution mask of a window that all `switches` switches
// contributed to.
[[nodiscard]] constexpr std::uint64_t full_contribution_mask(std::size_t switches) noexcept {
  return switches >= kMaxSwitches ? ~0ull : ((1ull << switches) - 1);
}

// "" when `switches` is deployable, else a one-line reason.
[[nodiscard]] inline std::string switch_count_error(std::size_t switches) {
  if (switches <= kMaxSwitches) return {};
  return std::to_string(switches) + " switches exceed the " + std::to_string(kMaxSwitches) +
         " a window's contribution_mask can account for";
}

}  // namespace sonata::runtime
