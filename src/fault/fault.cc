#include "fault/fault.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace sonata::fault {

namespace {

void fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
}

bool parse_double(std::string_view v, double& out) {
  char* end = nullptr;
  const std::string s(v);
  out = std::strtod(s.c_str(), &end);
  return end && *end == '\0' && !s.empty();
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  char* end = nullptr;
  const std::string s(v);
  // Base 0 accepts hex seeds like hash_seed=0xbad5eed.
  out = std::strtoull(s.c_str(), &end, 0);
  return end && *end == '\0' && !s.empty();
}

// The wire's band table, in draw order: frame bands, then report bands.
enum Band : std::size_t { kDropBand, kDupBand, kReorderBand, kCorruptBand, kTruncateBand, kBands };

// One uniform over the bands [first, last), carved into cumulative bands,
// so each frame or report suffers at most one fault and the decisions are
// a pure function of the seed and the send order. `last` when the uniform
// falls past them; no draw when they are all zero.
std::size_t draw_band(util::Rng& rng, const FaultSpec& spec, std::size_t first, std::size_t last) {
  const double rates[kBands] = {spec.drop_rate, spec.dup_rate, spec.reorder_rate,
                                spec.corrupt_rate, spec.truncate_rate};
  double total = 0.0;
  for (std::size_t b = first; b < last; ++b) total += rates[b];
  if (total <= 0.0) return last;
  const double u = rng.uniform01();
  double band = 0.0;
  for (std::size_t b = first; b < last; ++b) {
    band += rates[b];
    if (u < band) return b;
  }
  return last;
}

void add(std::atomic<std::uint64_t>& count, obs::Counter* ctr, std::uint64_t n) noexcept {
  count.fetch_add(n, std::memory_order_relaxed);
  ctr->add(n);
}

}  // namespace

std::string FaultSpec::to_string() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "seed=%llu,corrupt=%g,truncate=%g,drop=%g,dup=%g,reorder=%g,"
                "slow_ns=%llu,stall_switch=%zu,stall_from=%llu,stall_windows=%llu,"
                "watchdog_ms=%llu,shrink=%zu,hash_seed=0x%llx",
                static_cast<unsigned long long>(seed), corrupt_rate, truncate_rate, drop_rate,
                dup_rate, reorder_rate, static_cast<unsigned long long>(slow_ns), stall_switch,
                static_cast<unsigned long long>(stall_from_window),
                static_cast<unsigned long long>(stall_windows),
                static_cast<unsigned long long>(watchdog_ms), register_shrink,
                static_cast<unsigned long long>(hash_seed));
  return buf;
}

std::optional<FaultSpec> parse_fault_spec(std::string_view text, std::string* error) {
  FaultSpec spec;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      fail(error, "expected key=value, got '" + std::string(item) + "'");
      return std::nullopt;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    double d = 0.0;
    std::uint64_t u = 0;
    if (key == "corrupt" || key == "truncate" || key == "drop" || key == "dup" ||
        key == "reorder") {
      if (!parse_double(val, d) || d < 0.0 || d > 1.0) {
        fail(error, std::string(key) + " must be a rate in [0,1]");
        return std::nullopt;
      }
      if (key == "corrupt") spec.corrupt_rate = d;
      else if (key == "truncate") spec.truncate_rate = d;
      else if (key == "drop") spec.drop_rate = d;
      else if (key == "dup") spec.dup_rate = d;
      else spec.reorder_rate = d;
      continue;
    }
    if (!parse_u64(val, u)) {
      fail(error, "bad integer value for '" + std::string(key) + "'");
      return std::nullopt;
    }
    if (key == "seed") spec.seed = u;
    else if (key == "slow_ns") spec.slow_ns = u;
    else if (key == "stall_switch") spec.stall_switch = static_cast<std::size_t>(u);
    else if (key == "stall_from") spec.stall_from_window = u;
    else if (key == "stall_windows") spec.stall_windows = u;
    else if (key == "watchdog_ms") spec.watchdog_ms = u;
    else if (key == "shrink") spec.register_shrink = static_cast<std::size_t>(u);
    else if (key == "hash_seed") spec.hash_seed = u;
    else {
      fail(error, "unknown fault key '" + std::string(key) + "'");
      return std::nullopt;
    }
  }
  const double wire_sum = spec.corrupt_rate + spec.truncate_rate + spec.drop_rate +
                          spec.dup_rate + spec.reorder_rate;
  if (wire_sum > 1.0) {
    fail(error, "wire fault rates must sum to <= 1");
    return std::nullopt;
  }
  if (spec.register_shrink == 0) {
    fail(error, "shrink must be >= 1");
    return std::nullopt;
  }
  if (spec.stall_windows > 0 && spec.watchdog_ms == 0) {
    fail(error, "a stall needs watchdog_ms > 0 or the window barrier never completes");
    return std::nullopt;
  }
  return spec;
}

FaultAccount FaultAccount::operator-(const FaultAccount& o) const noexcept {
  FaultAccount d;
  d.corrupted = corrupted - o.corrupted;
  d.corrupted_delivered = corrupted_delivered - o.corrupted_delivered;
  d.truncated = truncated - o.truncated;
  d.dropped = dropped - o.dropped;
  d.duplicated = duplicated - o.duplicated;
  d.reordered = reordered - o.reordered;
  d.decode_failures = decode_failures - o.decode_failures;
  d.slowdowns = slowdowns - o.slowdowns;
  d.watchdog_fires = watchdog_fires - o.watchdog_fires;
  d.late_packets = late_packets - o.late_packets;
  d.shed_packets = shed_packets - o.shed_packets;
  return d;
}

Injector::Injector(FaultSpec spec) : spec_(spec), rng_(spec.seed) {
  auto& reg = obs::Registry::global();
  corrupted_ctr_ = &reg.counter("sonata_fault_corrupted_total");
  corrupted_delivered_ctr_ = &reg.counter("sonata_fault_corrupted_delivered_total");
  truncated_ctr_ = &reg.counter("sonata_fault_truncated_total");
  dropped_ctr_ = &reg.counter("sonata_fault_dropped_total");
  duplicated_ctr_ = &reg.counter("sonata_fault_duplicated_total");
  reordered_ctr_ = &reg.counter("sonata_fault_reordered_total");
  decode_failures_ctr_ = &reg.counter("sonata_fault_decode_failures_total");
  slowdowns_ctr_ = &reg.counter("sonata_fault_slowdowns_total");
  watchdog_fires_ctr_ = &reg.counter("sonata_fault_watchdog_fires_total");
  late_packets_ctr_ = &reg.counter("sonata_fault_late_packets_total");
  shed_packets_ctr_ = &reg.counter("sonata_fault_shed_packets_total");
}

void Injector::count_band(std::size_t band) noexcept {
  std::atomic<std::uint64_t>* const counts[kBands] = {&dropped_, &duplicated_, &reordered_,
                                                      &corrupted_, &truncated_};
  obs::Counter* const ctrs[kBands] = {dropped_ctr_, duplicated_ctr_, reordered_ctr_,
                                      corrupted_ctr_, truncated_ctr_};
  add(*counts[band], ctrs[band], 1);
}

FrameFate Injector::frame_fate(bool can_hold) {
  const std::size_t band = draw_band(rng_, spec_, kDropBand, kCorruptBand);
  if (band == kCorruptBand || (band == kReorderBand && !can_hold)) return FrameFate::kSend;
  count_band(band);
  return band == kDropBand ? FrameFate::kDrop
         : band == kDupBand ? FrameFate::kDuplicate
                            : FrameFate::kHold;
}

bool Injector::mutate_report(std::vector<std::byte>& report) {
  const std::size_t band =
      report.empty() ? kBands : draw_band(rng_, spec_, kCorruptBand, kBands);
  if (band == kCorruptBand) {
    const std::size_t bit = rng_.uniform(report.size() * 8);
    report[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  } else if (band == kTruncateBand) {
    report.resize(rng_.uniform(report.size()));
  } else {
    return false;
  }
  count_band(band);
  return true;
}

void Injector::note_decode_failures(std::uint64_t reports) noexcept {
  add(decode_failures_, decode_failures_ctr_, reports);
}

void Injector::note_corrupted_delivered(std::uint64_t reports) noexcept {
  add(corrupted_delivered_, corrupted_delivered_ctr_, reports);
}

void Injector::note_slowdown() noexcept { add(slowdowns_, slowdowns_ctr_, 1); }

void Injector::note_watchdog_fire() noexcept { add(watchdog_fires_, watchdog_fires_ctr_, 1); }

void Injector::note_late(std::uint64_t packets) noexcept {
  add(late_packets_, late_packets_ctr_, packets);
}

void Injector::note_shed(std::uint64_t packets) noexcept {
  add(shed_packets_, shed_packets_ctr_, packets);
}

FaultAccount Injector::account() const noexcept {
  FaultAccount a;
  a.corrupted = corrupted_.load(std::memory_order_relaxed);
  a.corrupted_delivered = corrupted_delivered_.load(std::memory_order_relaxed);
  a.truncated = truncated_.load(std::memory_order_relaxed);
  a.dropped = dropped_.load(std::memory_order_relaxed);
  a.duplicated = duplicated_.load(std::memory_order_relaxed);
  a.reordered = reordered_.load(std::memory_order_relaxed);
  a.decode_failures = decode_failures_.load(std::memory_order_relaxed);
  a.slowdowns = slowdowns_.load(std::memory_order_relaxed);
  a.watchdog_fires = watchdog_fires_.load(std::memory_order_relaxed);
  a.late_packets = late_packets_.load(std::memory_order_relaxed);
  a.shed_packets = shed_packets_.load(std::memory_order_relaxed);
  return a;
}

}  // namespace sonata::fault
