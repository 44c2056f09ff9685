#include "runtime/shard_exec.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "pisa/extract.h"
#include "runtime/stream_processor.h"
#include "util/hash.h"

namespace sonata::runtime {

using query::Tuple;

std::size_t route_to_shard(const net::Packet& packet, std::size_t shards) noexcept {
  const std::uint64_t flow =
      util::hash_combine(util::hash_combine(packet.src_ip, packet.dst_ip),
                         (static_cast<std::uint64_t>(packet.src_port) << 24) ^
                             (static_cast<std::uint64_t>(packet.dst_port) << 8) ^ packet.proto);
  return static_cast<std::size_t>(flow % shards);
}

ShardExec::ShardExec(const pisa::SwitchConfig& cfg, std::string label)
    : sw_(std::make_unique<pisa::Switch>(cfg)) {
  sw_->set_obs_label(std::move(label));
}

void ShardExec::install(const planner::Plan& plan, const PipelineBuildOptions& opts,
                        std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>> reusable) {
  PipelineBuild build = build_pipelines(plan, std::move(reusable), opts);
  const std::string err = sw_->install(std::move(build.pipelines), build.resources);
  assert(err.empty() && "plan does not fit the switch it was planned for");
  (void)err;
  raw_mirror_ = StreamProcessor::plan_wants_raw_mirror(plan);
}

std::size_t ShardExec::stage(const net::Packet& packet) {
  if (staged_ == 0 && obs::enabled()) first_ns_ = obs::now_ns();
  if (staged_ == slots_.size()) slots_.emplace_back();
  query::materialize_tuple_into(packet, slots_[staged_]);
  return ++staged_;
}

void ShardExec::flush() {
  if (staged_ == 0) return;
  compute({slots_.data(), staged_}, first_ns_);
  staged_ = 0;
  first_ns_ = 0;
}

void ShardExec::run(std::span<const net::Packet> packets, obs::PhaseAccum& phases) {
  // Each phase timer spans a whole run: per-call clock reads would dominate
  // the obs overhead budget.
  while (!packets.empty()) {
    const std::size_t n = std::min(packets.size(), kRun);
    if (slots_.size() < n) slots_.resize(n);
    {
      // AVX2 gathers pull the numeric columns of 4 packets per pass (scalar
      // under SONATA_NO_AVX2 / old CPUs, bit-identical either way).
      obs::PhaseTimer t{phases, obs::Phase::kIngest};
      pisa::extract_batch(packets.first(n), slots_.data());
    }
    {
      const std::uint64_t ingest_ns = obs::enabled() ? obs::now_ns() : 0;
      obs::PhaseTimer t{phases, obs::Phase::kCompute};
      compute({slots_.data(), n}, ingest_ns);
    }
    packets = packets.subspan(n);
  }
}

void ShardExec::compute(std::span<Tuple> tuples, std::uint64_t ingest_ns) {
  const std::uint64_t before = sink_.packets_with_records();
  const std::size_t first = sink_.size();
  sw_->process_batch(tuples, sink_);
  if (ingest_ns != 0) {
    for (pisa::EmitRecord& rec : sink_.records().subspan(first)) rec.ingest_ns = ingest_ns;
  }
  if (raw_mirror_) {
    raw_mirror_packets_ += tuples.size();
    tuples_to_sp_ += tuples.size();
    for (Tuple& t : tuples) raw_sources_.push_back(std::move(t));
  } else {
    tuples_to_sp_ += sink_.packets_with_records() - before;
  }
}

void ShardExec::poll_and_reset(const PolledFn& polled) {
  const auto& pipelines = sw_->pipelines();
  polls_.resize(pipelines.size());
  for (std::size_t p = 0; p < pipelines.size(); ++p) {
    pipelines[p]->poll_block(polls_[p]);
    if (polled) polled(p, polls_[p]);
  }
  // The reset publishes the switch's metrics first, so its occupancy gauges
  // see the pre-reset registers.
  sw_->reset_all_registers();
}

void ShardExec::clear() noexcept {
  sink_.clear();
  raw_sources_.clear();
  tuples_to_sp_ = 0;
  raw_mirror_packets_ = 0;
}

}  // namespace sonata::runtime
