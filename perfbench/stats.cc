#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double p, std::size_t min_beyond) {
  if (samples.empty() || p <= 0.0 || p >= 100.0) return std::nullopt;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, n) - 1;
  if (n - 1 - idx < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<std::vector<double>> smallest_third_per_group(std::span<const double> samples,
                                                           std::span<const std::size_t> groups,
                                                           std::size_t group_count) {
  std::vector<std::vector<double>> out(group_count);
  for (std::size_t i = 0; i < samples.size() && i < groups.size(); ++i) {
    if (groups[i] < group_count) out[groups[i]].push_back(samples[i]);
  }
  for (auto& g : out) {
    std::sort(g.begin(), g.end());
    g.resize((g.size() + 2) / 3);
  }
  return out;
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view s) noexcept {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const sonata::query::Tuple& t) noexcept {
  add(static_cast<std::uint64_t>(t.size()));
  for (const auto& v : t.values) {
    if (v.is_string()) {
      add(std::uint64_t{1});
      add(v.as_string());
    } else {
      add(std::uint64_t{0});
      add(v.as_uint());
    }
  }
}

void Digest::add(const sonata::runtime::WindowStats& ws) noexcept {
  add(ws.packets);
  add(ws.tuples_to_sp);
  add(ws.raw_mirror_packets);
  add(ws.overflow_records);
  add(static_cast<std::uint64_t>(ws.results.size()));
  for (const auto& r : ws.results) {
    add(static_cast<std::uint64_t>(r.qid));
    add(static_cast<std::uint64_t>(r.outputs.size()));
    for (const auto& t : r.outputs) add(t);
  }
  add(static_cast<std::uint64_t>(ws.winners.per_query.size()));
  for (const auto& w : ws.winners.per_query) {
    add(static_cast<std::uint64_t>(w.qid));
    add(static_cast<std::uint64_t>(w.keys.size()));
    for (const auto& k : w.keys) add(k);
  }
}

std::uint64_t window_digest(const sonata::runtime::WindowStats& ws) noexcept {
  Digest d;
  d.add(ws);
  return d.value();
}

}  // namespace perfbench
