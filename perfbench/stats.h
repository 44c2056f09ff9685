// Sample statistics and the window digest the benchmark reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "runtime/stream_processor.h"

namespace perfbench {

// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Refuses — returns
// nullopt — when fewer than `min_beyond` samples lie above the chosen rank,
// so a reported p90 always has at least ten windows slower than it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double p,
                                               std::size_t min_beyond = 10);

// Median (mean of the middle pair for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

// The smallest third (rounded up) of each group's samples, ascending, one
// vector per group id below `group_count`. `groups[i]` is the group of
// `samples[i]`; samples of a group id at or past `group_count` are left out.
[[nodiscard]] std::vector<std::vector<double>> smallest_third_per_group(
    std::span<const double> samples, std::span<const std::size_t> groups,
    std::size_t group_count);

// Order-sensitive 64-bit FNV-1a digest over what a window computed: its
// packet and tuple counts (N), every result tuple and every installed
// winner key. Timing fields, the window index and the modelled control
// latency are left out, so two replays of the same plan over the same
// packets digest equal exactly when their windows are bit-identical.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(std::string_view s) noexcept;
  void add(const sonata::query::Tuple& t) noexcept;
  void add(const sonata::runtime::WindowStats& ws) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::uint64_t window_digest(const sonata::runtime::WindowStats& ws) noexcept;

}  // namespace perfbench
