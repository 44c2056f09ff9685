#include "runtime/distributed.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/tracing.h"
#include "query/field.h"
#include "query/tuple.h"
#include "runtime/limits.h"
#include "runtime/report.h"
#include "trace/trace.h"
#include "util/bytes.h"
#include "util/cpu.h"
#include "util/log.h"
#include "util/time.h"

namespace sonata::runtime {

namespace nt = net::transport;
using query::Tuple;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

namespace {

// Protocol timing. The barrier is stop-and-wait: a switch node retransmits
// its kWindowEnd until the collector's feedback arrives (UDP can lose
// either direction; the collector re-sends its cached bundle on a
// duplicate), and gives up after the hard deadline.
constexpr int kConnectTimeoutMs = 30000;
constexpr int kHelloRetransmitMs = 200;
constexpr int kEndRetransmitMs = 1000;
constexpr int kBarrierTimeoutMs = 60000;
constexpr int kCollectorPollMs = 100;
constexpr int kCollectorIdleTimeoutMs = 120000;

// Reads the items of a chunked payload (kRecords, kRaw, kPartial, and a
// kWinners install's keys) after its header: a u32 count, then per item a
// u64 value when `with_value` (kPartial), a u32 length and the item's
// bytes. `item(value, bytes)` returns false to stop. False on a payload
// that ends early or a stopped read.
template <typename Fn>
bool read_items(util::ByteReader& r, bool with_value, Fn&& item) {
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t value = with_value ? r.u64() : 0;
    const auto bytes = r.bytes(r.u32());
    if (!r.ok() || !item(value, bytes)) return false;
  }
  return r.ok();
}

// Milliseconds (>= 1) until `when`, for poll timeouts.
int ms_until(steady_clock::time_point when) {
  const auto now = steady_clock::now();
  if (when <= now) return 1;
  const auto ms = std::chrono::duration_cast<milliseconds>(when - now).count();
  return static_cast<int>(std::clamp<long long>(ms, 1, 1u << 30));
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void counter_add(const char* name, std::uint64_t current, std::uint64_t& published) {
  obs::Registry::global().counter(name).add(current - published);
  published = current;
}

}  // namespace

// Writes one chunked payload stream: every frame's payload is the stream's
// header, a u32 item count, then items, as many as fit `max_payload`. A
// kPartial item leads with a u64 value; kRecords, kRaw and kPartial items
// are u32-length-prefixed; a kWinners install is self-delimiting and goes
// in as is. A full frame goes to `emit` as soon as the next item does not
// fit it, and the last one at finish().
class ChunkWriter {
 public:
  using Emit = std::function<void(nt::Frame&&)>;

  ChunkWriter(nt::FrameType type, std::vector<std::byte> header, std::size_t max_payload,
              const char* what, Emit emit)
      : type_(type),
        header_(std::move(header)),
        max_payload_(max_payload),
        what_(what),
        emit_(std::move(emit)) {}

  // False, with error() set, when the item cannot fit even an empty frame:
  // it would go out oversized (EMSGSIZE on UDP, a wedged shm ring).
  [[nodiscard]] bool add(std::span<const std::byte> item, std::uint64_t value = 0) {
    const std::size_t framing =
        (type_ == nt::FrameType::kPartial ? 8 : 0) + (type_ == nt::FrameType::kWinners ? 0 : 4);
    const std::size_t size = framing + item.size();
    if (count_ > 0 && payload_.size() + size > max_payload_) finish();
    if (count_ == 0) {
      if (header_.size() + 4 + size > max_payload_) {
        error_ = std::string("encoded ") + what_ + " exceeds the transport's max frame payload";
        return false;
      }
      payload_ = header_;
      util::put_u32(payload_, 0);
    }
    if (type_ == nt::FrameType::kPartial) util::put_u64(payload_, value);
    if (type_ != nt::FrameType::kWinners) {
      util::put_u32(payload_, static_cast<std::uint32_t>(item.size()));
    }
    payload_.insert(payload_.end(), item.begin(), item.end());
    ++count_;
    return true;
  }

  // Patch the open frame's count and emit it.
  void finish() {
    if (count_ == 0) return;
    util::patch_u32(payload_, header_.size(), count_);
    count_ = 0;
    emit_({.type = type_, .payload = std::exchange(payload_, {})});
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  nt::FrameType type_;
  std::vector<std::byte> header_;
  std::size_t max_payload_;
  const char* what_;
  Emit emit_;
  std::vector<std::byte> payload_;  // the open frame's
  std::uint32_t count_ = 0;         // items in the open frame
  std::string error_;
};

// ======================================================================
// SwitchNode
// ======================================================================

SwitchNode::SwitchNode(const planner::Plan& plan, DistributedConfig cfg,
                       std::unique_ptr<nt::ReportTransport> transport)
    : plan_(plan),
      fingerprint_(plan.fingerprint()),
      cfg_(std::move(cfg)),
      transport_(std::move(transport)),
      rng_(cfg_.faults.seed * 0x9e3779b97f4a7c15ull + cfg_.node_index + 1) {
  assert(cfg_.nodes >= 1 && cfg_.node_index < cfg_.nodes);
  assert(cfg_.switches >= 1);
  cfg_.batch = std::max<std::size_t>(cfg_.batch, 1);
  const fault::FaultSpec& f = cfg_.faults;
  frame_faults_ = f.drop_rate > 0 || f.dup_rate > 0 || f.reorder_rate > 0;
  record_faults_ = f.corrupt_rate > 0 || f.truncate_rate > 0;
  // Owned shards: the fleet-wide numbering striped across nodes. Every
  // node compiles the identical per-shard switch program the in-process
  // Fleet would have installed (including the register-pressure faults).
  for (std::size_t g = cfg_.node_index; g < cfg_.switches; g += cfg_.nodes) {
    shards_.push_back(std::make_unique<OwnedShard>(plan_.switch_config, g));
    shards_.back()->exec.install(plan_, {f.register_shrink, f.hash_seed}, {});
  }
}

SwitchNode::~SwitchNode() = default;

const nt::TransportCounters& SwitchNode::transport_counters() const noexcept {
  return transport_->counters();
}

std::string SwitchNode::run(std::span<const net::Packet> trace) {
  if (std::string err = switch_count_error(cfg_.switches); !err.empty()) return err;
  std::string err = handshake();
  if (!err.empty()) return err;
  // TelemetryEngine::run_trace's window split: every role iterates the
  // full shared trace, so window boundaries line up even for a node that
  // owns no packets in some window.
  const auto windows = trace::split_windows(trace, plan_.window);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (const net::Packet& packet : windows[w]) ingest(packet);
    err = close_window(w, w + 1 == windows.size());
    if (!err.empty()) return err;
  }
  // Empty trace: one final (empty) barrier so the collector terminates.
  if (windows.empty()) return close_window(0, true);
  return "";
}

std::string SwitchNode::handshake() {
  std::string err = transport_->connect(kConnectTimeoutMs);
  if (!err.empty()) return err;
  nt::Frame hello;
  hello.type = nt::FrameType::kHello;
  hello.source = cfg_.node_index;
  util::put_u16(hello.payload, cfg_.node_index);
  util::put_u16(hello.payload, cfg_.nodes);
  util::put_u16(hello.payload, static_cast<std::uint16_t>(cfg_.switches));
  util::put_u16(hello.payload, kDistributedProto);
  util::put_u64(hello.payload, fingerprint_);
  const auto deadline = steady_clock::now() + milliseconds(kConnectTimeoutMs);
  for (;;) {
    if (!raw_send(hello)) return "transport send failed during handshake";
    nt::Frame in;
    if (transport_->poll(in, kHelloRetransmitMs) && in.type == nt::FrameType::kHelloAck) {
      util::ByteReader r(in.payload);
      const std::uint16_t node = r.u16();
      const std::uint16_t proto = r.u16();
      const std::uint64_t fingerprint = r.u64();
      if (!r.ok() || node != cfg_.node_index || proto != kDistributedProto) {
        return "handshake rejected: node/protocol mismatch in hello-ack";
      }
      if (fingerprint != fingerprint_) {
        return "handshake rejected: plan fingerprint mismatch (collector " +
               hex64(fingerprint) + ", node " + hex64(fingerprint_) +
               "): the roles run different queries, plans or switch configs";
      }
      return "";
    }
    if (steady_clock::now() >= deadline) {
      return "handshake timed out waiting for the collector";
    }
  }
}

void SwitchNode::ingest(const net::Packet& packet) {
  const std::size_t g = route_to_shard(packet, cfg_.switches);
  if (g % cfg_.nodes != cfg_.node_index) return;  // another process's shard
  OwnedShard& shard = *shards_[g / cfg_.nodes];
  ++shard.packets;
  ++stats_.packets;
  if (shard.exec.stage(packet) >= cfg_.batch) shard.exec.flush();
}

bool SwitchNode::raw_send(const nt::Frame& f) { return transport_->send(f); }

bool SwitchNode::send_data(nt::Frame f) {
  // Every data frame consumes a sequence number FIRST — an injected drop
  // leaves a real gap the collector's reassembly accounts exactly once.
  f.seq = data_seq_++;
  if (frame_faults_) {
    const double u = rng_.uniform01();
    double p = cfg_.faults.drop_rate;
    if (u < p) {
      ++stats_.tx_dropped;
      return true;
    }
    p += cfg_.faults.dup_rate;
    if (u < p) {
      ++stats_.tx_duplicated;
      return raw_send(f) && raw_send(f);
    }
    p += cfg_.faults.reorder_rate;
    if (u < p && !held_) {
      // Hold this frame past its successor; flush_held() bounds the delay
      // to the window barrier.
      ++stats_.tx_reordered;
      held_ = std::move(f);
      return true;
    }
  }
  if (held_) {
    const bool ok = raw_send(f) && raw_send(*held_);
    held_.reset();
    return ok;
  }
  return raw_send(f);
}

void SwitchNode::flush_held() {
  if (!held_) return;
  if (!raw_send(*held_)) note_send_failure("reorder-held data");
  held_.reset();
}

void SwitchNode::note_send_failure(const char* frame_kind) {
  SONATA_WARN("switch", "node %u: %s frame send failed",
              static_cast<unsigned>(cfg_.node_index), frame_kind);
  // On a datagram transport a failed send is indistinguishable from wire
  // loss and the collector's gap accounting covers it; in-order transports
  // never lose frames, so a failed send there is fatal for the window.
  if (transport_->kind() != nt::TransportKind::kUdp && send_err_.empty()) {
    send_err_ = std::string("transport send failed (") + frame_kind + " frame)";
  }
}

ChunkWriter SwitchNode::data_writer(nt::FrameType type, std::size_t shard, const char* what,
                                    std::uint32_t pipeline) {
  std::vector<std::byte> header;
  util::put_u16(header, static_cast<std::uint16_t>(shard));
  if (type == nt::FrameType::kPartial) util::put_u32(header, pipeline);
  return ChunkWriter(type, std::move(header), nt::max_frame_payload(transport_->kind()), what,
                     [this, what](nt::Frame&& f) {
                       f.source = cfg_.node_index;
                       if (!send_data(std::move(f))) note_send_failure(what);
                     });
}

void SwitchNode::send_records(OwnedShard& shard) {
  if (!send_err_.empty()) return;
  ChunkWriter out = data_writer(nt::FrameType::kRecords, shard.global, "record");
  for (const pisa::EmitRecord& rec : shard.exec.records()) {
    record_scratch_.clear();
    encode_report_into(rec, record_scratch_);
    if (record_faults_) {
      // Per-record wire faults inside the frame, mirroring the in-process
      // WireChannel: the record's length prefix stays consistent, so
      // exactly this record fails (or mis-)decodes.
      const double u = rng_.uniform01();
      if (u < cfg_.faults.corrupt_rate) {
        const std::size_t bit = rng_.uniform(record_scratch_.size() * 8);
        record_scratch_[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        ++stats_.corrupted;
      } else if (u < cfg_.faults.corrupt_rate + cfg_.faults.truncate_rate &&
                 record_scratch_.size() > 1) {
        record_scratch_.resize(rng_.uniform(record_scratch_.size() - 1) + 1);
        ++stats_.truncated;
      }
    }
    if (!out.add(record_scratch_)) {
      send_err_ = out.error();
      return;
    }
    ++stats_.records_sent;
  }
  out.finish();
}

void SwitchNode::send_raw(OwnedShard& shard) {
  if (!send_err_.empty()) return;
  ChunkWriter out = data_writer(nt::FrameType::kRaw, shard.global, "raw tuple");
  for (const Tuple& raw : shard.exec.raw_sources()) {
    record_scratch_.clear();
    encode_tuple(raw, record_scratch_);
    if (!out.add(record_scratch_)) {
      send_err_ = out.error();
      return;
    }
    ++stats_.raw_sent;
  }
  out.finish();
}

void SwitchNode::send_partials(const OwnedShard& shard, std::size_t pipeline,
                               const pisa::PolledBlock& block) {
  if (!send_err_.empty()) return;
  ChunkWriter out = data_writer(nt::FrameType::kPartial, shard.global, "partial entry",
                                static_cast<std::uint32_t>(pipeline));
  for (std::size_t i = 0; i < block.size(); ++i) {
    record_scratch_.clear();
    encode_polled_key(block, i, record_scratch_);
    if (!out.add(record_scratch_, block.value(i))) {
      send_err_ = out.error();
      return;
    }
    ++stats_.partial_entries_sent;
  }
  out.finish();
}

std::string SwitchNode::close_window(std::uint64_t window, bool final) {
  std::uint64_t packets = 0;
  std::uint64_t tuples = 0;
  std::uint64_t raw = 0;
  // Ship per-shard contributions in ascending global shard order — the
  // collector replays this order, which is the Fleet's merge order. Each
  // pipeline's block ships as soon as it is polled, so the collector
  // decodes it while the node polls the next.
  for (auto& shard_ptr : shards_) {
    OwnedShard& shard = *shard_ptr;
    shard.exec.flush();
    send_records(shard);
    send_raw(shard);
    shard.exec.poll_and_reset([&](std::size_t p, const pisa::PolledBlock& block) {
      send_partials(shard, p, block);
    });
    packets += shard.packets;
    tuples += shard.exec.tuples_to_sp();
    raw += shard.exec.raw_mirror_packets();
    shard.packets = 0;
    shard.exec.clear();
  }
  flush_held();
  if (!send_err_.empty()) {
    std::string err = std::move(send_err_);
    send_err_.clear();
    return err;
  }
  nt::Frame end;
  end.type = nt::FrameType::kWindowEnd;
  end.source = cfg_.node_index;
  end.seq = data_seq_;  // next data seq: finalizes the collector's gap accounting
  util::put_u64(end.payload, window);
  util::put_u64(end.payload, packets);
  util::put_u64(end.payload, tuples);
  util::put_u64(end.payload, raw);
  util::put_u64(end.payload, stats_.tx_dropped);  // cumulative, for the loss-accounting gate
  util::put_u8(end.payload, final ? 1 : 0);
  if (!raw_send(end)) return "transport send failed at the window barrier";
  const std::string err = await_feedback(window, end);
  if (!err.empty()) return err;
  ++stats_.windows;
  publish_obs();
  return "";
}

std::string SwitchNode::await_feedback(std::uint64_t window, const nt::Frame& end) {
  const auto deadline = steady_clock::now() + milliseconds(kBarrierTimeoutMs);
  auto next_retx = steady_clock::now() + milliseconds(kEndRetransmitMs);
  bool acked = false;
  std::uint32_t expected = 0;
  // kWinners chunks are keyed by their seq (= chunk index): UDP can
  // reorder them, and the installs must replay in the collector's call
  // order.
  std::map<std::uint64_t, std::vector<std::byte>> winners;
  while (!acked || winners.size() < expected) {
    if (steady_clock::now() >= deadline) {
      return "window barrier timed out waiting for collector feedback";
    }
    nt::Frame in;
    if (transport_->poll(in, ms_until(std::min(next_retx, deadline)))) {
      if (in.type == nt::FrameType::kWindowAck) {
        util::ByteReader r(in.payload);
        const std::uint64_t w = r.u64();
        const std::uint32_t exp = r.u32();
        (void)r.u8();  // collector's partial flag (informational)
        if (r.ok() && w == window) {
          acked = true;
          expected = exp;
        }
      } else if (in.type == nt::FrameType::kWinners) {
        util::ByteReader r(in.payload);
        if (r.u64() == window && r.ok()) winners.emplace(in.seq, std::move(in.payload));
      }
      // kHelloAck / stale-window frames: ignore.
    } else if (steady_clock::now() >= next_retx) {
      // Stop-and-wait: either our kWindowEnd or the feedback got lost.
      raw_send(end);
      next_retx = steady_clock::now() + milliseconds(kEndRetransmitMs);
    }
  }
  // Apply the installs in chunk order — the same (table, winners) sequence
  // close_levels applied to the in-process switches, including empty
  // winner sets (which clear a table).
  for (auto& [seq, payload] : winners) {
    util::ByteReader r(payload);
    r.skip(8);  // window
    const std::uint32_t installs = r.u32();
    for (std::uint32_t k = 0; k < installs && r.ok(); ++k) {
      const std::string table = r.str(r.u16());
      std::vector<Tuple> keys;
      const bool ok = read_items(r, false, [&](std::uint64_t, std::span<const std::byte> bytes) {
        auto key = decode_tuple(bytes);
        if (key) keys.push_back(std::move(*key));
        return key.has_value();
      });
      if (!ok) return "malformed winner install in collector feedback";
      for (auto& shard_ptr : shards_) shard_ptr->exec.sw().update_filter_entries(table, keys);
      ++stats_.winner_installs;
    }
    if (!r.ok()) return "malformed winner frame in collector feedback";
  }
  return "";
}

void SwitchNode::publish_obs() {
  if (!obs::enabled()) return;
  const nt::TransportCounters& tc = transport_->counters();
  counter_add("sonata_net_tx_frames_total", tc.tx_frames, tc_pub_.tx_frames);
  counter_add("sonata_net_tx_bytes_total", tc.tx_bytes, tc_pub_.tx_bytes);
  counter_add("sonata_net_rx_frames_total", tc.rx_frames, tc_pub_.rx_frames);
  counter_add("sonata_net_rx_bytes_total", tc.rx_bytes, tc_pub_.rx_bytes);
  counter_add("sonata_net_tx_dropped_total", stats_.tx_dropped, obs_pub_.tx_dropped);
  counter_add("sonata_net_tx_duplicated_total", stats_.tx_duplicated, obs_pub_.tx_duplicated);
  counter_add("sonata_net_tx_reordered_total", stats_.tx_reordered, obs_pub_.tx_reordered);
  counter_add("sonata_net_records_sent_total", stats_.records_sent, obs_pub_.records_sent);
  counter_add("sonata_net_corrupted_total", stats_.corrupted, obs_pub_.corrupted);
  counter_add("sonata_net_truncated_total", stats_.truncated, obs_pub_.truncated);
}

// ======================================================================
// Collector
// ======================================================================

Collector::Collector(const planner::Plan& plan, DistributedConfig cfg,
                     std::unique_ptr<nt::CollectorEndpoint> endpoint)
    : plan_(plan),
      fingerprint_(plan.fingerprint()),
      cfg_(std::move(cfg)),
      endpoint_(std::move(endpoint)),
      sp_(std::make_unique<StreamProcessor>(plan_)),
      pool_(std::min(util::available_cores(), std::max<std::size_t>(plan.queries.size(), 1)) - 1) {
  assert(cfg_.nodes >= 1 && cfg_.switches >= 1);
  PipelineBuild build = build_pipelines(plan_, {}, {});
  ref_pipelines_ = std::move(build.pipelines);
  nodes_.resize(cfg_.nodes);
  shards_.resize(cfg_.switches);
  for (auto& s : shards_) {
    s.polls.resize(ref_pipelines_.size());
    for (std::size_t p = 0; p < ref_pipelines_.size(); ++p) {
      if (ref_pipelines_[p]->has_stateful_tail()) {
        s.polls[p].configure(ref_pipelines_[p]->tail_key_kinds());
      }
    }
  }
  sp_->set_winner_sink([this](const std::string& table, std::span<const Tuple> keys) {
    encode_install(table, keys);
  });
}

Collector::~Collector() = default;

std::string Collector::listen() {
  if (std::string err = switch_count_error(cfg_.switches); !err.empty()) return err;
  return endpoint_->listen();
}

bool Collector::all_ended() const {
  bool any = false;
  for (const auto& n : nodes_) {
    if (n.done) continue;
    if (!n.end_seen) return false;
    any = true;
  }
  return any;
}

bool Collector::all_done() const {
  for (const auto& n : nodes_) {
    if (!n.done) return false;
  }
  return true;
}

std::string Collector::run(const WindowFn& on_window) {
  if (std::string err = switch_count_error(cfg_.switches); !err.empty()) return err;
  auto last_activity = steady_clock::now();
  std::vector<nt::Frame> frames;
  while (!all_done()) {
    frames.clear();
    if (!endpoint_->poll(frames, kCollectorPollMs)) {
      return "collector transport failed";
    }
    if (!frames.empty()) last_activity = steady_clock::now();
    for (nt::Frame& f : frames) {
      std::string err = handle(f);
      if (!err.empty()) return err;
    }
    if (all_ended()) {
      std::string err = close_current(on_window);
      if (!err.empty()) return err;
    }
    if (steady_clock::now() - last_activity > milliseconds(kCollectorIdleTimeoutMs)) {
      return "collector idle timeout: no frames from any node";
    }
  }
  return "";
}

std::string Collector::handle(nt::Frame& f) {
  if (f.source >= cfg_.nodes) return "";  // stray traffic: not one of our nodes
  obs::PhaseTimer decode_timer{phases_, obs::Phase::kMerge};
  NodeState& node = nodes_[f.source];
  switch (f.type) {
    case nt::FrameType::kHello: {
      util::ByteReader r(f.payload);
      const std::uint16_t n = r.u16();
      const std::uint16_t nodes = r.u16();
      const std::uint16_t switches = r.u16();
      const std::uint16_t proto = r.u16();
      if (!r.ok()) return "malformed hello frame";
      if (n != f.source || nodes != cfg_.nodes || switches != cfg_.switches ||
          proto != kDistributedProto) {
        return "handshake mismatch: node " + std::to_string(n) + " announced nodes=" +
               std::to_string(nodes) + " switches=" + std::to_string(switches) + " proto=" +
               std::to_string(proto) + ", collector expects nodes=" +
               std::to_string(cfg_.nodes) + " switches=" + std::to_string(cfg_.switches) +
               " proto=" + std::to_string(kDistributedProto);
      }
      const std::uint64_t fingerprint = r.u64();
      if (!r.ok()) return "malformed hello frame";
      // The ack carries the collector's fingerprint either way, so a
      // mismatched node fails its handshake at once instead of timing out.
      nt::Frame ack;
      ack.type = nt::FrameType::kHelloAck;
      ack.source = f.source;
      util::put_u16(ack.payload, f.source);
      util::put_u16(ack.payload, kDistributedProto);
      util::put_u64(ack.payload, fingerprint_);
      if (!endpoint_->send_to(f.source, ack)) {
        // Idempotent: the node retransmits its hello until acked.
        SONATA_WARN("collector", "hello ack to node %u failed",
                    static_cast<unsigned>(f.source));
      }
      if (fingerprint != fingerprint_) {
        return "handshake mismatch: node " + std::to_string(n) + " runs plan fingerprint " +
               hex64(fingerprint) + ", collector runs " + hex64(fingerprint_) +
               " (different queries, plan or switch config)";
      }
      node.hello = true;
      return "";
    }
    case nt::FrameType::kRecords:
    case nt::FrameType::kRaw:
    case nt::FrameType::kPartial: {
      util::ByteReader r(f.payload);
      const std::uint16_t shard = r.u16();
      const bool partial = f.type == nt::FrameType::kPartial;
      const std::uint32_t pipeline = partial ? r.u32() : 0;
      const bool ok =
          r.ok() && shard < cfg_.switches && shard % cfg_.nodes == f.source &&
          (!partial || pipeline < ref_pipelines_.size()) &&
          read_items(r, partial, [&](std::uint64_t value, std::span<const std::byte> bytes) {
            // An item that does not decode (for a partial, not to the
            // pipeline's key layout) is counted and dropped — the same
            // boundary behaviour as the in-process WireChannel.
            ShardBuffer& sb = shards_[shard];
            if (f.type == nt::FrameType::kRecords) {
              auto rec = decode_report(bytes);
              if (rec) sb.records.push_back(std::move(*rec));
              ++(rec ? stats_.records : stats_.decode_failures);
            } else if (f.type == nt::FrameType::kRaw) {
              auto t = decode_tuple(bytes);
              if (t) sb.raws.push_back(std::move(*t));
              ++(t ? stats_.raw_tuples : stats_.decode_failures);
            } else {
              auto t = decode_tuple(bytes);
              const bool appended = t && sb.polls[pipeline].append(*t, value);
              ++(appended ? stats_.partial_entries : stats_.decode_failures);
            }
            return true;
          });
      return ok ? "" : "malformed data frame";
    }
    case nt::FrameType::kWindowEnd: {
      util::ByteReader r(f.payload);
      const std::uint64_t w = r.u64();
      const std::uint64_t packets = r.u64();
      const std::uint64_t tuples = r.u64();
      const std::uint64_t raw = r.u64();
      const std::uint64_t dropped = r.u64();
      const std::uint8_t final_flag = r.u8();
      if (!r.ok()) return "malformed window-end frame";
      if (w + 1 == window_counter_ && node.feedback_window == w) {
        // Duplicate after we closed: the ack or the winners got lost on
        // the way down — re-send the cached bundle.
        send_feedback(node, f.source);
        return "";
      }
      if (w != window_counter_) return "";  // stale retransmission
      node.end_seen = true;
      node.packets = packets;
      node.tuples_to_sp = tuples;
      node.raw_mirror = raw;
      node.peer_dropped_cum = dropped;
      node.final_flag = final_flag != 0;
      return "";
    }
    default:
      return "";  // kWinners/kWindowAck/kHelloAck never arrive at the collector
  }
}

std::string Collector::close_current(const WindowFn& on_window) {
  WindowStats ws;
  ws.window_index = window_counter_;
  ws.plan_version = plan_.version;
  std::uint64_t mask = full_contribution_mask(cfg_.switches);
  std::uint64_t peer_dropped = 0;
  for (std::uint16_t i = 0; i < cfg_.nodes; ++i) {
    NodeState& node = nodes_[i];
    ws.packets += node.packets;
    ws.tuples_to_sp += node.tuples_to_sp;
    ws.raw_mirror_packets += node.raw_mirror;
    peer_dropped += node.peer_dropped_cum;
    // Frames lost since the node's last barrier mean its contribution this
    // window is incomplete: clear its shards' bits, close partial (PR 5's
    // degradation surface, fed by real wire loss).
    if (endpoint_->reassembly().stats(i).lost > node.lost_baseline) {
      for (std::size_t s = i; s < cfg_.switches && s < 64; s += cfg_.nodes) {
        mask &= ~(1ull << s);
      }
    }
  }
  ws.contribution_mask = mask;
  ws.partial = mask != full_contribution_mask(cfg_.switches);
  // 1. The Fleet's shared close, its tasks on the pool while the nodes
  //    wait, over every shard in ascending global shard order. No local
  //    switches — the winner sink encodes every install, and the nodes
  //    replay them before their next window. control_update_millis stays
  //    0: the modelled install latency is paid on the switch nodes, inside
  //    the next window's barrier wait.
  obs::PhaseTimer close_timer{phases_, obs::Phase::kClose};
  outputs_.clear();
  for (auto& sb : shards_) outputs_.push_back({sb.records, sb.raws, &sb.polls});
  winner_chunks_.clear();
  std::vector<std::byte> header;
  util::put_u64(header, window_counter_);
  winners_ = std::make_unique<ChunkWriter>(
      nt::FrameType::kWinners, std::move(header), nt::max_frame_payload(endpoint_->kind()),
      "winner install", [this](nt::Frame&& chunk) {
        chunk.seq = winner_chunks_.size();
        winner_chunks_.push_back(std::move(chunk));
      });
  sp_->begin_delivery(obs::enabled() ? obs::now_ns() : 0);
  sp_->close_window(ws, outputs_, ref_pipelines_, {}, pool_.slots(),
                    [this](std::size_t count, const util::Task& task) { pool_.run(count, task); });
  winners_->finish();
  for (auto& sb : shards_) {
    sb.records.clear();
    sb.raws.clear();
  }
  if (!install_err_.empty()) return install_err_;
  // 2. Feedback: winner chunks + ack per node (cached for retransmission).
  for (std::uint16_t i = 0; i < cfg_.nodes; ++i) {
    NodeState& node = nodes_[i];
    node.feedback.assign(winner_chunks_.begin(), winner_chunks_.end());
    nt::Frame ack;
    ack.type = nt::FrameType::kWindowAck;
    util::put_u64(ack.payload, window_counter_);
    util::put_u32(ack.payload, static_cast<std::uint32_t>(node.feedback.size()));
    util::put_u8(ack.payload, ws.partial ? 1 : 0);
    node.feedback.push_back(std::move(ack));
    for (nt::Frame& fb : node.feedback) fb.source = i;
    send_feedback(node, i);
    node.feedback_window = window_counter_;
    node.lost_baseline = endpoint_->reassembly().stats(i).lost;
    node.end_seen = false;
    if (node.final_flag) node.done = true;
    node.packets = 0;
    node.tuples_to_sp = 0;
    node.raw_mirror = 0;
  }
  close_timer.stop();
  ws.phases = to_breakdown(phases_);
  phases_.reset();
  stats_.peer_dropped = peer_dropped;
  stats_.lost_frames = endpoint_->reassembly().totals().lost;
  ++window_counter_;
  ++stats_.windows;
  publish_obs();
  if (ws.partial) {
    SONATA_WARN("collector",
                "window %llu closed PARTIAL: contribution_mask=0x%llx lost_frames=%llu",
                static_cast<unsigned long long>(ws.window_index),
                static_cast<unsigned long long>(ws.contribution_mask),
                static_cast<unsigned long long>(stats_.lost_frames));
  }
  if (on_window) on_window(ws);
  return "";
}

void Collector::encode_install(const std::string& table, std::span<const Tuple> keys) {
  if (!install_err_.empty()) return;
  install_.clear();
  util::put_u16(install_, static_cast<std::uint16_t>(table.size()));
  const auto* name = reinterpret_cast<const std::byte*>(table.data());
  install_.insert(install_.end(), name, name + table.size());
  util::put_u32(install_, static_cast<std::uint32_t>(keys.size()));
  for (const Tuple& key : keys) {
    const std::size_t at = install_.size();
    util::put_u32(install_, 0);
    encode_tuple(key, install_);
    util::patch_u32(install_, at, static_cast<std::uint32_t>(install_.size() - at - 4));
  }
  if (!winners_->add(install_)) install_err_ = winners_->error() + " (table '" + table + "')";
}

void Collector::send_feedback(NodeState& node, std::uint16_t index) {
  for (const nt::Frame& fb : node.feedback) {
    if (!endpoint_->send_to(index, fb)) {
      // The bundle stays cached: the node's kWindowEnd retransmit triggers
      // a re-send, and the barrier timeout bounds a persistent failure.
      SONATA_WARN("collector", "feedback send to node %u failed (frame type %u)",
                  static_cast<unsigned>(index), static_cast<unsigned>(fb.type));
    }
  }
}

void Collector::publish_obs() {
  if (!obs::enabled()) return;
  const nt::TransportCounters& tc = endpoint_->counters();
  counter_add("sonata_net_rx_frames_total", tc.rx_frames, tc_pub_.rx_frames);
  counter_add("sonata_net_rx_bytes_total", tc.rx_bytes, tc_pub_.rx_bytes);
  counter_add("sonata_net_tx_frames_total", tc.tx_frames, tc_pub_.tx_frames);
  counter_add("sonata_net_tx_bytes_total", tc.tx_bytes, tc_pub_.tx_bytes);
  counter_add("sonata_net_frame_decode_errors_total", tc.decode_errors, tc_pub_.decode_errors);
  const nt::ReassemblyStats totals = endpoint_->reassembly().totals();
  counter_add("sonata_net_delivered_total", totals.delivered, rs_pub_.delivered);
  counter_add("sonata_net_lost_total", totals.lost, rs_pub_.lost);
  counter_add("sonata_net_reordered_total", totals.reordered, rs_pub_.reordered);
  counter_add("sonata_net_resynced_total", totals.resynced, rs_pub_.resynced);
  counter_add("sonata_net_duplicates_total", totals.duplicates, rs_pub_.duplicates);
  counter_add("sonata_net_record_decode_failures_total", stats_.decode_failures,
              obs_pub_.decode_failures);
  counter_add("sonata_net_peer_dropped_total", stats_.peer_dropped, obs_pub_.peer_dropped);
  // Per-node loss as gauges (cumulative values, set not added).
  auto& reg = obs::Registry::global();
  for (std::uint16_t i = 0; i < cfg_.nodes; ++i) {
    const std::pair<std::string_view, std::string> labels[] = {{"node", std::to_string(i)}};
    reg.gauge(obs::labeled("sonata_net_node_lost", labels))
        .set(static_cast<std::int64_t>(endpoint_->reassembly().stats(i).lost));
  }
}

}  // namespace sonata::runtime
