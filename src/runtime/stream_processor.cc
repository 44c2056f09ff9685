#include "runtime/stream_processor.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/journal.h"

namespace sonata::runtime {

using planner::PlannedPipeline;
using planner::PlannedQuery;
using query::Tuple;

std::uint64_t Emitter::total_tuples() const noexcept {
  std::uint64_t total = unplanned_;
  for (const auto& [qid, s] : stats_) total += s.tuples;
  return total;
}

PhaseBreakdown to_breakdown(const obs::PhaseAccum& accum) noexcept {
  return {.ingest_nanos = accum.nanos(obs::Phase::kIngest),
          .compute_nanos = accum.nanos(obs::Phase::kCompute),
          .merge_nanos = accum.nanos(obs::Phase::kMerge),
          .poll_nanos = accum.nanos(obs::Phase::kPoll),
          .close_nanos = accum.nanos(obs::Phase::kClose),
          .total_nanos = accum.total_nanos()};
}

StreamProcessor::StreamProcessor(const planner::Plan& plan) : plan_(&plan) {
  auto& reg = obs::Registry::global();
  std::size_t raw_queries = 0;
  for (const PlannedQuery& pq : plan_->queries) {
    const query::QueryId qid = pq.base->id();
    if (qid >= query_of_.size()) query_of_.resize(qid + 1U, kNoQuery);
    if (query_of_[qid] == kNoQuery) query_of_[qid] = static_cast<std::uint32_t>(queries_.size());
    QueryState qs;
    qs.pq = &pq;
    emitter_.register_query(qid);
    const std::string qid_str = std::to_string(qid);
    const std::pair<std::string_view, std::string> qid_label[] = {{"qid", qid_str}};
    qs.winners_counter = &reg.counter(obs::labeled("sonata_sp_winners_total", qid_label));
    qs.close_task_hist = &reg.histogram(obs::labeled("sonata_sp_close_task_ns", qid_label),
                                        LatencyTally::kBounds);
    for (const int level : pq.chain) {
      LevelExec le;
      le.level = level;
      le.exec = std::make_unique<stream::QueryExecutor>(pq.exec_queries.at(level));
      // Identity unless the level remaps; out-of-range targets route nowhere.
      const auto remap = pq.source_remap.find(level);
      const std::size_t n = le.exec->source_count();
      le.sources.resize(remap == pq.source_remap.end() ? n : remap->second.size());
      for (std::size_t s = 0; s < le.sources.size(); ++s) {
        const int to = remap == pq.source_remap.end() ? static_cast<int>(s) : remap->second[s];
        le.sources[s] = to >= 0 && static_cast<std::size_t>(to) < n ? to : -1;
      }
      const auto at = static_cast<std::size_t>(std::max(level, 0));
      if (at >= qs.level_index.size()) qs.level_index.resize(at + 1, -1);
      if (level >= 0) qs.level_index[at] = static_cast<int>(qs.levels.size());
      const std::pair<std::string_view, std::string> labels[] = {
          {"qid", qid_str}, {"level", std::to_string(level)}};
      le.in_counter = &reg.counter(obs::labeled("sonata_sp_tuples_in_total", labels));
      le.out_counter = &reg.counter(obs::labeled("sonata_sp_tuples_out_total", labels));
      le.state_gauge = &reg.gauge(obs::labeled("sonata_sp_reduce_state", labels));
      le.state_bytes_gauge = &reg.gauge(obs::labeled("sonata_sp_state_bytes", labels));
      le.state_error_gauge = &reg.gauge(obs::labeled("sonata_sp_state_error_bound", labels));
      le.latency_hist = &reg.histogram(obs::labeled("sonata_report_latency_ns", labels),
                                       LatencyTally::kBounds);
      qs.levels.push_back(std::move(le));
    }
    qs.winners.resize(qs.levels.empty() ? 0 : qs.levels.size() - 1);
    qs.estimate = pq.est_tuples;
    for (const PlannedPipeline& p : pq.pipelines) {
      for (const auto& [op, rs] : p.sizing) qs.estimate += rs.entries * std::size_t(rs.depth);
      if (p.partition != 0) continue;
      ++raw_feeds_;
      const LevelExec* le = find_level(qs, p.level);
      const int src = le == nullptr ? -1 : source_of(*le, p.source_index);
      if (src >= 0) qs.raw_feeds.emplace_back(le - qs.levels.data(), src);
    }
    if (!qs.raw_feeds.empty() && raw_queries++ == 0) raw_owner_ = std::uint32_t(queries_.size());
    close_order_.push_back(std::uint32_t(queries_.size()));
    queries_.push_back(std::move(qs));
  }
  if (raw_queries > 1) raw_owner_ = kNoQuery;
  sort_close_order();
}

void StreamProcessor::sort_close_order() {
  std::stable_sort(close_order_.begin(), close_order_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const QueryState& x = queries_[a];
    const QueryState& y = queries_[b];
    return x.task_ns != y.task_ns ? x.task_ns > y.task_ns : x.estimate > y.estimate;
  });
}

bool StreamProcessor::plan_wants_raw_mirror(const planner::Plan& plan) noexcept {
  if (!plan.raw_mirror) return false;
  // Mirrors the constructor's raw_feeds_ scan: any SP-kept pipeline
  // (partition == 0) consumes the raw mirror.
  for (const PlannedQuery& pq : plan.queries) {
    for (const PlannedPipeline& p : pq.pipelines) {
      if (p.partition == 0) return true;
    }
  }
  return false;
}

const PlannedQuery* StreamProcessor::planned(query::QueryId qid) const noexcept {
  const std::uint32_t qi = query_index(qid);
  return qi == kNoQuery ? nullptr : queries_[qi].pq;
}

const StreamProcessor::LevelExec* StreamProcessor::find_level(const QueryState& qs,
                                                              int level) noexcept {
  const auto at = static_cast<std::size_t>(level);
  const int li = level >= 0 && at < qs.level_index.size() ? qs.level_index[at] : -1;
  return li < 0 ? nullptr : &qs.levels[static_cast<std::size_t>(li)];
}

int StreamProcessor::source_of(const LevelExec& le, int source_index) noexcept {
  const auto at = static_cast<std::size_t>(source_index);
  return source_index >= 0 && at < le.sources.size() ? le.sources[at] : -1;
}

const StreamProcessor::LevelExec* StreamProcessor::level_exec(query::QueryId qid,
                                                              int level) const noexcept {
  const std::uint32_t qi = query_index(qid);
  return qi == kNoQuery ? nullptr : find_level(queries_[qi], level);
}

int StreamProcessor::remap_source(query::QueryId qid, int level, int source_index) const {
  const LevelExec* le = level_exec(qid, level);
  return le == nullptr ? -1 : source_of(*le, source_index);
}

stream::QueryExecutor& StreamProcessor::executor(query::QueryId qid, int level) {
  const LevelExec* le = level_exec(qid, level);
  assert(le && "no executor for (qid, level)");
  return *le->exec;
}

bool StreamProcessor::deliver(pisa::EmitRecord&& rec) {
  const std::uint32_t qi = query_index(rec.qid);
  if (qi != kNoQuery) return deliver_to(qi, std::move(rec));
  emitter_.record_unplanned(1);
  return rec.kind == pisa::EmitRecord::Kind::kKeyReport;
}

bool StreamProcessor::deliver_to(std::size_t qi, pisa::EmitRecord&& rec) {
  emitter_.record(qi, rec.kind);
  // Key reports only notify the SP which registers to poll; the polled
  // aggregates are ingested at window end.
  if (rec.kind == pisa::EmitRecord::Kind::kKeyReport) return true;
  auto* le = const_cast<LevelExec*>(find_level(queries_[qi], rec.level));
  const int src = le == nullptr ? -1 : source_of(*le, rec.source_index);
  if (src < 0) return false;
  ++le->tuples_in;
  if (delivery_now_ != 0 && rec.ingest_ns != 0) {
    le->latency.note(delivery_now_ >= rec.ingest_ns ? delivery_now_ - rec.ingest_ns : 0);
  }
  le->exec->ingest(src, std::move(rec.tuple), rec.op_index);
  return true;
}

void StreamProcessor::deliver_batch(std::span<pisa::EmitRecord> recs) {
  for (pisa::EmitRecord& rec : recs) deliver(std::move(rec));
}

void StreamProcessor::deliver_raw_batch(std::span<Tuple> sources) {
  // Every active feed but the last copies the batch; the last (in the
  // common single-feed case, the only one) takes it by move.
  QueryState* last = nullptr;
  for (QueryState& qs : queries_) {
    if (qs.raw_feeds.empty()) continue;
    if (last != nullptr) feed_raw(*last, sources, false);
    last = &qs;
  }
  if (last != nullptr) feed_raw(*last, sources, true);
}

void StreamProcessor::feed_raw(QueryState& qs, std::span<Tuple> sources, bool move_last) {
  for (std::size_t f = 0; f < qs.raw_feeds.size(); ++f) {
    LevelExec& le = qs.levels[qs.raw_feeds[f].first];
    const int src = qs.raw_feeds[f].second;
    le.tuples_in += sources.size();
    if (move_last && f + 1 == qs.raw_feeds.size()) {
      le.exec->ingest_batch(src, sources, 0);
    } else {
      for (const Tuple& t : sources) le.exec->ingest(src, t, 0);
    }
  }
}

void StreamProcessor::poll_switch(const pisa::Switch& sw) {
  const auto& pipelines = sw.pipelines();
  polls_.resize(pipelines.size());
  for (std::size_t p = 0; p < pipelines.size(); ++p) pipelines[p]->poll_block(polls_[p]);
  const ShardOutput shard[] = {{{}, {}, &polls_}};
  for (std::size_t p = 0; p < pipelines.size(); ++p) merge_.merge(*this, *pipelines[p], p, shard);
}

stream::ChainExecutor* StreamProcessor::ingest_merged(const pisa::CompiledSwitchQuery& pipe,
                                                     std::uint64_t logical) {
  const auto& o = pipe.options();
  const int src_idx = remap_source(o.qid, o.level, o.source_index);
  if (src_idx < 0) return nullptr;
  auto* le = const_cast<LevelExec*>(level_exec(o.qid, o.level));
  le->tuples_in += logical;
  return &le->exec->source_chain(src_idx);
}

std::uint64_t StreamProcessor::close_window(
    WindowStats& window, std::span<const ShardOutput> shards,
    std::span<const std::unique_ptr<pisa::CompiledSwitchQuery>> pipelines,
    std::span<pisa::Switch* const> switches, std::size_t slots, const util::TaskRunner& run) {
  if (task_merges_.size() < slots) task_merges_.resize(slots);
  if (routed_.size() < shards.size()) {
    routed_.resize(shards.size());
    unrouted_.resize(shards.size());
  }
  // Two rounds of tasks: one routes each shard's records to their queries,
  // the next closes each query, the longest last window first.
  const util::Task route = [&](std::size_t s, std::size_t) {
    auto& lists = routed_[s];
    lists.resize(queries_.size());
    for (auto& list : lists) list.clear();
    unrouted_[s] = 0;
    const std::span<pisa::EmitRecord> recs = shards[s].records;
    for (std::uint32_t r = 0; r < recs.size(); ++r) {
      const std::uint32_t qi = query_index(recs[r].qid);
      if (qi != kNoQuery) {
        lists[qi].push_back(r);
      } else if (recs[r].kind != pisa::EmitRecord::Kind::kKeyReport) {
        ++unrouted_[s];
      }
    }
  };
  const util::Task close = [&](std::size_t i, std::size_t slot) {
    const std::uint32_t qi = close_order_[i];
    const auto start = std::chrono::steady_clock::now();
    close_query(qi, shards, pipelines, task_merges_[slot]);
    queries_[qi].task_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
  };
  if (run) {
    run(shards.size(), route);
    run(close_order_.size(), close);
  } else {
    for (std::size_t s = 0; s < shards.size(); ++s) route(s, 0);
    for (std::size_t i = 0; i < close_order_.size(); ++i) close(i, 0);
  }
  // The next window starts the longest of this window's tasks first.
  sort_close_order();

  // The serial epilogue, in plan order. Dense winner table: every query
  // gets a slot so two runs of the same plan compare equal window-by-window
  // even when a query installs nothing.
  std::uint64_t unplanned = 0;  // records no planned query takes (corrupted qid)
  std::uint64_t unrouted = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    unplanned += shards[s].records.size();
    unrouted += unrouted_[s];
  }
  const bool obs_on = obs::enabled();
  window.winners.per_query.resize(queries_.size());
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryState& qs = queries_[qi];
    const PlannedQuery& pq = *qs.pq;
    auto& installed = window.winners.per_query[qi];
    installed.qid = pq.base->id();
    unplanned -= qs.taken;
    unrouted += qs.unrouted;
    if (obs_on) qs.close_task_hist->observe(qs.task_ns);
    window.overflow_records += qs.overflows;
    qs.taken = qs.overflows = qs.unrouted = 0;
    for (std::size_t li = 0; li < qs.levels.size(); ++li) {
      const state::StateUsage& usage = qs.levels[li].usage;
      if (obs_on && usage.error_bound > 0) {
        obs::Journal::global().emit(obs::EventType::kSketchBoundReport, window.window_index,
                                    pq.base->id(), 0, static_cast<std::int64_t>(usage.entries),
                                    static_cast<std::int64_t>(usage.bytes),
                                    static_cast<std::int64_t>(usage.error_bound),
                                    pq.base->name());
      }
      if (li + 1 == qs.levels.size()) {
        window.results.push_back({pq.base->id(), pq.base->name(), std::move(qs.outputs)});
        break;
      }
      // Install on the switches: every source's next-level pipeline.
      const std::vector<Tuple>& winners = qs.winners[li];
      for (const auto& p : pq.pipelines) {
        if (p.level != qs.levels[li + 1].level || p.filter_table.empty()) continue;
        for (pisa::Switch* sw : switches) sw->update_filter_entries(p.filter_table, winners);
        if (winner_sink_) winner_sink_(p.filter_table, winners);
      }
      if (obs_on) qs.winners_counter->add(winners.size());
      installed.keys.insert(installed.keys.end(), winners.begin(), winners.end());
    }
  }
  emitter_.record_unplanned(unplanned);
  return unrouted;
}

void StreamProcessor::close_query(
    std::size_t qi, std::span<const ShardOutput> shards,
    std::span<const std::unique_ptr<pisa::CompiledSwitchQuery>> pipelines, WindowMerge& merge) {
  QueryState& qs = queries_[qi];
  // 1. This query's records and raw tuples, shard by shard in arrival
  //    order: each executor sees the sequence a serial merge hands it.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const std::uint32_t r : routed_[s][qi]) {
      pisa::EmitRecord& rec = shards[s].records[r];
      const bool overflow = rec.kind == pisa::EmitRecord::Kind::kOverflow;
      if (!deliver_to(qi, std::move(rec))) {
        ++qs.unrouted;
      } else if (overflow) {
        ++qs.overflows;
      }
    }
    qs.taken += routed_[s][qi].size();
    if (!shards[s].raws.empty()) feed_raw(qs, shards[s].raws, raw_owner_ == qi);
  }
  // 2. Its pipelines' polls, folded across shards into the reduce.
  for (std::size_t p = 0; p < pipelines.size(); ++p) {
    if (query_index(pipelines[p]->options().qid) == qi) merge.merge(*this, *pipelines[p], p, shards);
  }
  // 3. Its levels, coarse to fine; each level's winners filter the next
  //    level on the SP side here, and on the switches in the epilogue.
  const bool obs_on = obs::enabled();
  const PlannedQuery& pq = *qs.pq;
  for (std::size_t li = 0; li < qs.levels.size(); ++li) {
    LevelExec& le = qs.levels[li];
    // Reduce-state peak for the window: read before close() clears it.
    le.usage = obs_on ? le.exec->state_usage() : state::StateUsage{};
    if (obs_on) {
      le.state_gauge->set(static_cast<std::int64_t>(le.usage.entries));
      le.state_bytes_gauge->set(static_cast<std::int64_t>(le.usage.bytes));
      le.state_error_gauge->set(static_cast<std::int64_t>(le.usage.error_bound));
      le.in_counter->add(le.tuples_in);
      if (le.latency.n > 0) {
        // One merge per window per (query, level): the whole tally lands
        // in the registry histogram with two shard-local loops.
        le.latency_hist->merge_counts(le.latency.counts, le.latency.sum);
      }
    }
    le.latency.reset();
    le.tuples_in = 0;
    stream::RowBlock& outputs = le.exec->close();
    if (obs_on) le.out_counter->add(outputs.size());
    if (li + 1 == qs.levels.size()) {
      qs.outputs = outputs.take_tuples();
      break;
    }
    // Winner keys: the refinement key column of this level's output.
    const auto& schema = pq.exec_queries.at(le.level).root()->output_schema();
    const std::string& key_col = pq.keys.empty() ? std::string{} : pq.keys.front().key_column;
    const auto idx = schema.index_of(key_col);
    std::vector<Tuple>& winners = qs.winners[li];
    winners.clear();
    if (idx) outputs.distinct_column(*idx, winners);
    for (const auto& p : pq.pipelines) {
      if (p.level != qs.levels[li + 1].level || p.filter_table.empty()) continue;
      qs.levels[li + 1].exec->set_filter_entries(p.filter_table, winners);
    }
  }
}

}  // namespace sonata::runtime
