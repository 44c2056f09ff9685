// Outside-in layer tracing: an in-memory span log, and the single-switch
// window loop re-composed from the layers' public calls so each call can
// be timed from the benchmark's own code.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "runtime/stream_processor.h"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Completed spans (name, start, end, parent) of one thread, kept in memory
// and written out once at the end. Spans nest: open() makes the innermost
// open span the parent.
class SpanLog {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  struct Span {
    Id name = 0;
    Id parent = kNone;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct Totals {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;  // total minus the time covered by child spans
  };

  [[nodiscard]] Id intern(std::string_view name);
  void open(Id name);
  void close();

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::string& name(Id id) const { return names_.at(id); }
  // Per-name totals, in first-seen name order.
  [[nodiscard]] std::vector<Totals> totals() const;
  // Chrome trace-event JSON (loads in Perfetto) of the first `max_events`
  // spans.
  [[nodiscard]] std::string chrome_json(std::size_t max_events) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // indices of open spans
};

// Opens a span for its lifetime; a null log records nothing and reads no
// clock.
class Scope {
 public:
  Scope(SpanLog* log, SpanLog::Id name) : log_(log) {
    if (log_ != nullptr) log_->open(name);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close();
  }

 private:
  SpanLog* log_;
};

// Work counts the traced loop gathers alongside its spans.
struct LayerCounts {
  std::uint64_t windows = 0;
  std::uint64_t packets = 0;
  std::uint64_t records = 0;           // mirrored records the switch emitted
  std::uint64_t overflow_records = 0;
  std::uint64_t tuples_in = 0;         // tuples entering stream executors
  std::uint64_t tuples_out = 0;        // finest results + installed winner keys
  std::uint64_t state_entries = 0;     // keyed-state entries at window close
  std::uint64_t state_bytes = 0;       // keyed-state bytes at window close
  std::uint64_t codec_records = 0;     // records (or raw tuples) replayed through the codec
  std::uint64_t codec_bytes = 0;
  std::uint64_t codec_failures = 0;    // replays that did not decode to the input
};

// Runtime's single-switch window loop (batched path) re-composed from
// public calls: pisa::extract_batch -> Switch::process_batch ->
// StreamProcessor::deliver_batch / deliver_raw_batch -> poll_switch ->
// close_levels -> Switch::reset_all_registers. Untraced, it makes exactly
// those calls. Traced, it records a span per call and also:
//   * delivers records grouped per (qid, level), and fans the raw mirror
//     out executor by executor, timing each group. Executors are
//     independent and each sees its tuples in the same order, so windows
//     stay bit-identical;
//   * runs every pipeline of a shadow switch — same tuples, same winner
//     installs and resets — one pipeline at a time, so per-pipeline time
//     is measured without touching the primary path;
//   * replays each batch's records through the report codec.
// The shadow and codec spans are named "instrument.*"; their time is
// measurement work, not the system's.
class LayeredRuntime {
 public:
  // `plan` (and the queries behind it) must outlive the object.
  LayeredRuntime(const sonata::planner::Plan& plan, std::size_t batch, SpanLog* spans);
  // The SP's winner hook holds `this`.
  LayeredRuntime(const LayeredRuntime&) = delete;
  LayeredRuntime& operator=(const LayeredRuntime&) = delete;

  // Ingest one window's packets and close it.
  sonata::runtime::WindowStats run_window(std::span<const sonata::net::Packet> packets);

  [[nodiscard]] const LayerCounts& counts() const noexcept { return counts_; }
  // Tuples delivered per stream executor, keyed by its "stream.ingest.*"
  // span name (traced only).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> ingest_tuples() const;

 private:
  struct Group {
    sonata::query::QueryId qid = 0;
    int level = 0;
    SpanLog::Id span = 0;
    std::vector<sonata::pisa::EmitRecord> records;
    std::uint64_t delivered = 0;
  };
  struct RawFeed {
    sonata::query::QueryId qid = 0;
    int level = 0;
    int source_index = 0;
    SpanLog::Id span = 0;
    std::uint64_t delivered = 0;
  };

  void run_batch(std::span<const sonata::net::Packet> packets);
  void deliver_grouped();
  void deliver_raw_traced(std::span<sonata::query::Tuple> sources);
  void run_shadow(std::span<const sonata::query::Tuple> sources);
  void replay_codec(std::span<const sonata::query::Tuple> sources);
  Group& group_for(sonata::query::QueryId qid, int level);

  const sonata::planner::Plan& plan_;
  std::size_t batch_;
  SpanLog* spans_;
  std::unique_ptr<sonata::pisa::Switch> sw_;
  std::unique_ptr<sonata::pisa::Switch> shadow_;  // traced only
  sonata::runtime::StreamProcessor sp_;
  bool raw_ = false;

  std::vector<sonata::query::Tuple> tuples_;
  sonata::pisa::EmitSink sink_;
  sonata::pisa::EmitSink shadow_sink_;
  std::vector<Group> groups_;
  std::vector<RawFeed> raw_feeds_;
  std::vector<SpanLog::Id> pipeline_spans_;
  std::vector<std::byte> codec_buf_;
  std::vector<std::size_t> codec_ends_;

  sonata::runtime::WindowStats current_;
  std::uint64_t window_counter_ = 0;
  LayerCounts counts_;

  struct SpanIds {
    SpanLog::Id window, extract, process, deliver, raw, poll, close, reset, shadow_reset,
        shadow_poll, encode, decode;
  } ids_{};
};

// Span name of the shadow timing for one installed pipeline:
// "instrument.pipeline.q<qid>.l<level>.s<src>".
[[nodiscard]] std::string pipeline_label(const sonata::pisa::CompiledSwitchQuery& p);

}  // namespace perfbench
