// Multi-process deployment: switch-node and collector roles over a real
// wire (ROADMAP item 2; `sonata_run --role switch|collector`).
//
// The in-process Fleet keeps its shards and its StreamProcessor in one
// address space and merges at a window barrier. This layer cuts that
// barrier across processes: N switch-node processes each own the shards
// `s` with `s % nodes == node_index`, run the identical compiled switch
// programs against the shared trace, and ship their window contribution
// to a collector process over a ReportTransport (shm ring / UDP / TCP).
// The collector buffers per-shard contributions, replays the Fleet's
// exact merge order (ascending shard index: records, raw mirror,
// combined register partials), closes the window through the one shared
// StreamProcessor, and feeds the winner installs back so every node's
// switches enter the next window with the same dynamic-filter state the
// in-process close would have installed.
//
// Determinism contract: every role derives the identical plan from the
// same seed/queries/training traffic (EngineBuilder::plan_only), every
// switch node replays the identical generated trace (filtering to its
// owned shards), and the collector merges in shard order regardless of
// arrival interleaving — so distributed windows are bit-identical to the
// in-process Fleet's for lossless transports. The one accepted divergence
// is WindowStats::control_update_millis: winner installs land on the
// switch nodes during the *next* window's barrier wait, so the collector
// reports 0 instead of the modelled per-window install latency.
//
// Window barrier protocol (stop-and-wait, per node):
//
//   switch:    kRecords* kRaw* kPartial*  (per owned shard, ascending)
//              kWindowEnd (seq = next data seq; retransmitted on timeout)
//   collector: ... waits for every node's kWindowEnd, closes the window,
//              kWinners* + kWindowAck to every node (cached: a duplicate
//              kWindowEnd re-sends the cached feedback bundle)
//   switch:    applies the winner installs to its switches, next window.
//
// Loss accounting (UDP): injected or real frame drops consume a sequence
// number, the collector's reassembly window counts every gap exactly once
// at the kWindowEnd flush, and a window that lost frames closes partial
// with the losing node's shard bits cleared from contribution_mask —
// PR 5's partial-window machinery, now fed by a real wire. Counters
// surface as sonata_net_{lost,reordered,resynced,duplicates}_total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/packet.h"
#include "net/transport/transport.h"
#include "planner/planner.h"
#include "runtime/plan_install.h"
#include "runtime/shard_exec.h"
#include "runtime/stream_processor.h"
#include "util/task_pool.h"
#include "runtime/window_merge.h"
#include "util/rng.h"

namespace sonata::runtime {

// Bumped on any incompatible payload-codec change; checked at handshake.
// 2: kHello and kHelloAck carry Plan::fingerprint().
inline constexpr std::uint16_t kDistributedProto = 2;

// Writes one chunked payload stream (distributed.cc).
class ChunkWriter;

struct DistributedConfig {
  std::size_t switches = 2;      // total data-plane shards across all nodes (<= kMaxSwitches)
  std::uint16_t nodes = 1;       // switch-node process count
  std::uint16_t node_index = 0;  // this process's index (switch role only)
  std::size_t batch = 256;       // data-path handoff granularity
  // Frame-level fault injection (switch role): drop/dup/reorder act on
  // whole data frames (a dropped frame consumes its sequence number, so
  // the collector's gap accounting counts it exactly once);
  // corrupt/truncate mutate one encoded record inside a kRecords payload,
  // mirroring the in-process WireChannel's per-record semantics.
  // register_shrink/hash_seed apply to the node's pipeline build.
  fault::FaultSpec faults;
};

// The data-plane half: owns this process's shards, replays the trace
// window by window, ships each window's contribution, and applies the
// collector's winner feedback. Single-threaded by design — process-level
// parallelism replaces the Fleet's worker threads.
class SwitchNode {
 public:
  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t packets = 0;        // packets routed to owned shards
    std::uint64_t records_sent = 0;   // EmitRecords shipped
    std::uint64_t raw_sent = 0;       // raw-mirror tuples shipped
    std::uint64_t partial_entries_sent = 0;
    std::uint64_t winner_installs = 0;
    std::uint64_t tx_dropped = 0;     // injected frame drops
    std::uint64_t tx_duplicated = 0;
    std::uint64_t tx_reordered = 0;
    std::uint64_t corrupted = 0;      // injected record corruptions
    std::uint64_t truncated = 0;
  };

  // `plan` must outlive the node (the caller owns the PlannedSetup).
  SwitchNode(const planner::Plan& plan, DistributedConfig cfg,
             std::unique_ptr<net::transport::ReportTransport> transport);
  ~SwitchNode();

  // Connect + handshake, then replay the whole trace (window split by the
  // plan's window size, identical to TelemetryEngine::run_trace). Returns
  // "" on success, or a config (more than kMaxSwitches switches),
  // protocol or transport error.
  [[nodiscard]] std::string run(std::span<const net::Packet> trace);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const net::transport::TransportCounters& transport_counters() const noexcept;

 private:
  struct OwnedShard {
    OwnedShard(const pisa::SwitchConfig& cfg, std::size_t g)
        : global(g), exec(cfg, std::to_string(g)) {}
    std::size_t global = 0;  // shard index in the fleet-wide numbering
    ShardExec exec;
    std::uint64_t packets = 0;  // window-scoped accounting
  };

  [[nodiscard]] std::string handshake();
  void ingest(const net::Packet& packet);
  [[nodiscard]] std::string close_window(std::uint64_t window, bool final);
  // Chunked data frames of `shard` (and, for kPartial, `pipeline`) for
  // send_data; `what` names an item in errors.
  [[nodiscard]] ChunkWriter data_writer(net::transport::FrameType type, std::size_t shard,
                                        const char* what, std::uint32_t pipeline = 0);
  void send_records(OwnedShard& shard);
  void send_raw(OwnedShard& shard);
  // One pipeline's polled register block, as kPartial frames.
  void send_partials(const OwnedShard& shard, std::size_t pipeline,
                     const pisa::PolledBlock& block);
  // Records a failed data send: always warns; fatal (sticky in send_err_,
  // surfaced by close_window) on in-order transports, where a send failure
  // is never recoverable loss.
  void note_send_failure(const char* frame_kind);
  // Sequence-numbered send with frame-level fault injection; a dropped
  // frame still consumes its sequence number.
  bool send_data(net::transport::Frame f);
  bool raw_send(const net::transport::Frame& f);
  void flush_held();
  [[nodiscard]] std::string await_feedback(std::uint64_t window,
                                           const net::transport::Frame& end);
  void publish_obs();

  const planner::Plan& plan_;
  std::uint64_t fingerprint_ = 0;  // plan_.fingerprint()
  DistributedConfig cfg_;
  std::unique_ptr<net::transport::ReportTransport> transport_;
  std::vector<std::unique_ptr<OwnedShard>> shards_;  // ascending global index
  std::uint64_t data_seq_ = 0;
  std::optional<net::transport::Frame> held_;  // reorder-injected frame
  util::Rng rng_;
  bool frame_faults_ = false;
  bool record_faults_ = false;
  // First fatal error from the window's send phase (oversized entry, or a
  // failed send on an in-order transport); close_window surfaces it.
  std::string send_err_;
  Stats stats_;
  std::vector<std::byte> record_scratch_;
  // Last-published cumulative values behind the add-only obs counters.
  Stats obs_pub_;
  net::transport::TransportCounters tc_pub_;
};

// The control-plane half: one StreamProcessor fed by every node's frames.
class Collector {
 public:
  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t records = 0;         // EmitRecords decoded and delivered
    std::uint64_t raw_tuples = 0;
    std::uint64_t partial_entries = 0;
    std::uint64_t decode_failures = 0; // records/tuples that failed to decode
    std::uint64_t peer_dropped = 0;    // switch-reported injected frame drops
    std::uint64_t lost_frames = 0;     // reassembly gap accounting (all sources)
  };

  using WindowFn = std::function<void(const WindowStats&)>;

  // `plan` must outlive the collector.
  Collector(const planner::Plan& plan, DistributedConfig cfg,
            std::unique_ptr<net::transport::CollectorEndpoint> endpoint);
  ~Collector();

  [[nodiscard]] std::string listen();

  // Serve until every node's final window closed (or a protocol error /
  // idle timeout). `on_window` fires once per closed window, in order.
  // listen() and run() refuse a config with more than kMaxSwitches
  // switches.
  [[nodiscard]] std::string run(const WindowFn& on_window);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const StreamProcessor& stream_processor() const noexcept { return *sp_; }
  [[nodiscard]] const planner::Plan& plan() const noexcept { return plan_; }

 private:
  struct NodeState {
    bool hello = false;
    bool done = false;       // final window closed
    bool end_seen = false;   // kWindowEnd for the current window
    bool final_flag = false;
    std::uint64_t packets = 0;       // current window's totals, from kWindowEnd
    std::uint64_t tuples_to_sp = 0;
    std::uint64_t raw_mirror = 0;
    std::uint64_t peer_dropped_cum = 0;
    std::uint64_t lost_baseline = 0;  // reassembly lost total at last close
    // Feedback bundle for the last closed window, re-sent on a duplicate
    // kWindowEnd (the ack or the winners were lost on the way down).
    std::vector<net::transport::Frame> feedback;
    std::uint64_t feedback_window = ~0ull;
  };
  struct ShardBuffer {
    std::vector<pisa::EmitRecord> records;
    std::vector<query::Tuple> raws;
    std::vector<pisa::PolledBlock> polls;  // per pipeline, decoded kPartial keys
  };

  [[nodiscard]] std::string handle(net::transport::Frame& f);
  [[nodiscard]] std::string close_current(const WindowFn& on_window);
  // The winner sink: appends an install to this window's kWinners chunks.
  void encode_install(const std::string& table, std::span<const query::Tuple> keys);
  void send_feedback(NodeState& node, std::uint16_t index);
  [[nodiscard]] bool all_ended() const;
  [[nodiscard]] bool all_done() const;
  void publish_obs();

  const planner::Plan& plan_;
  std::uint64_t fingerprint_ = 0;  // plan_.fingerprint()
  DistributedConfig cfg_;
  std::unique_ptr<net::transport::CollectorEndpoint> endpoint_;
  std::unique_ptr<StreamProcessor> sp_;
  // Compiled once for pipeline metadata only (tail reduce fn and key
  // kinds, SP entry op) — never processes a packet. Built without the
  // register-pressure fault options: sizing never affects metadata.
  std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>> ref_pipelines_;
  std::vector<NodeState> nodes_;
  std::vector<ShardBuffer> shards_;  // indexed by global shard
  std::vector<ShardOutput> outputs_;  // the close's input, reused
  // This window's kWinners chunks, encoded once and copied to every node.
  std::vector<net::transport::Frame> winner_chunks_;
  std::unique_ptr<ChunkWriter> winners_;  // writes winner_chunks_, one per window
  std::vector<std::byte> install_;  // encode_install's scratch, reused
  std::string install_err_;         // an install too large for any chunk
  util::TaskPool pool_;  // the close's tasks: min(available cores, queries) threads
  obs::PhaseAccum phases_;  // frame decode (merge) and close, per window
  std::uint64_t window_counter_ = 0;
  Stats stats_;
  Stats obs_pub_;
  net::transport::TransportCounters tc_pub_;
  net::transport::ReassemblyStats rs_pub_;
};

}  // namespace sonata::runtime
