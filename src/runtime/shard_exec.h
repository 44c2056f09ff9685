// One switch's per-window data path (paper §3, Figure 6), the one copy every
// driver runs: the Fleet's shards (inline and on workers; the single-switch
// Runtime is a one-shard Fleet) and the SwitchNode's owned shards. Per
// window, each packet is parsed into a source tuple and run through the
// installed pipelines (match-action, register updates); mirrored records
// and raw-mirror tuples collect here on their way to the stream processor;
// at the window's end every pipeline's registers are polled into packed
// blocks and reset.
//
// Packets arrive one at a time (stage, then flush a gathered batch) or as a
// span processed in place (run, the threaded Fleet's zero-copy ring drain).
// Either way the packets go through the one compute step, so every batch
// size — one packet included — produces the same records in the same order.
// A ShardExec is single-threaded; the Fleet hands each one to one thread at
// a time (its shard's claim holder).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "obs/tracing.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "query/tuple.h"
#include "runtime/plan_install.h"
#include "runtime/window_merge.h"

namespace sonata::runtime {

// Packet -> shard: the flow 5-tuple hashed onto `shards` switches (ECMP-like
// spread across ingress points). The Fleet and the SwitchNodes both route
// with it, so a packet reaches the same shard in every deployment mode.
[[nodiscard]] std::size_t route_to_shard(const net::Packet& packet, std::size_t shards) noexcept;

class ShardExec {
 public:
  // `label` names the switch in its metrics (`sw="<label>"`).
  explicit ShardExec(const pisa::SwitchConfig& cfg, std::string label = "0");

  // Install `plan`'s switch program, reusing matching compiled pipelines
  // from `reusable` (none on a first install; a swap hands back the
  // outgoing program). The plan must fit the switch it was planned for.
  void install(const planner::Plan& plan, const PipelineBuildOptions& opts,
               std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>> reusable);

  [[nodiscard]] pisa::Switch& sw() noexcept { return *sw_; }
  [[nodiscard]] const pisa::Switch& sw() const noexcept { return *sw_; }

  // Parse one packet into the next warm tuple slot (no allocation once
  // warm); returns the number staged. With metrics on, the first staged
  // packet's clock read stamps every record the flush emits.
  std::size_t stage(const net::Packet& packet);
  [[nodiscard]] std::size_t staged() const noexcept { return staged_; }
  // Run the staged packets through the compute step.
  void flush();
  // Run `packets` in place, kRun at a time: batched PHV extraction (timed
  // as ingest into `phases`), then the compute step (timed as compute), with
  // one clock read per run stamping its records.
  void run(std::span<const net::Packet> packets, obs::PhaseAccum& phases);

  // End of window: poll every pipeline's registers into its block (empty
  // without a stateful tail), handing each block to `polled` as soon as it
  // is filled, then reset the registers.
  using PolledFn = std::function<void(std::size_t pipeline, const pisa::PolledBlock& block)>;
  void poll_and_reset(const PolledFn& polled = {});

  // The window's output so far, in arrival order.
  [[nodiscard]] std::span<pisa::EmitRecord> records() noexcept { return sink_.records(); }
  [[nodiscard]] std::span<query::Tuple> raw_sources() noexcept { return raw_sources_; }
  [[nodiscard]] ShardOutput output() noexcept { return {records(), raw_sources(), &polls_}; }
  // Packets sent toward the stream processor: packets with at least one
  // record (the PHV carries one report bit, paper §3.1.3), or every packet
  // under the raw mirror.
  [[nodiscard]] std::uint64_t tuples_to_sp() const noexcept { return tuples_to_sp_; }
  [[nodiscard]] std::uint64_t raw_mirror_packets() const noexcept { return raw_mirror_packets_; }
  // Drop the window's output (end of window, or a quarantine resync); the
  // buffers keep their allocations.
  void clear() noexcept;

 private:
  static constexpr std::size_t kRun = 256;

  // process_batch into the sink, stamp the new records with `ingest_ns`
  // (metadata only; 0 = metrics off), then the tuples-to-SP accounting.
  // Under the raw mirror the tuples are moved out into raw_sources_.
  void compute(std::span<query::Tuple> tuples, std::uint64_t ingest_ns);

  std::unique_ptr<pisa::Switch> sw_;
  bool raw_mirror_ = false;  // StreamProcessor::plan_wants_raw_mirror(plan)
  std::vector<query::Tuple> slots_;  // warm tuple slots, reused batch to batch
  std::size_t staged_ = 0;
  std::uint64_t first_ns_ = 0;  // stage(): first staged packet's clock read
  pisa::EmitSink sink_;
  std::vector<query::Tuple> raw_sources_;
  std::uint64_t tuples_to_sp_ = 0;
  std::uint64_t raw_mirror_packets_ = 0;
  std::vector<pisa::PolledBlock> polls_;  // per pipeline, filled by poll_and_reset
};

}  // namespace sonata::runtime
