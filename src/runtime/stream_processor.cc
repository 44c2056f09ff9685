#include "runtime/stream_processor.h"

#include <cassert>

#include "obs/journal.h"
#include "util/flat_table.h"

namespace sonata::runtime {

using planner::PlannedPipeline;
using planner::PlannedQuery;
using query::Tuple;

void Emitter::register_query(query::QueryId qid) {
  if (qid >= qid_to_index_.size()) qid_to_index_.resize(qid + 1U, kUnregistered);
  if (qid_to_index_[qid] != kUnregistered) return;
  qid_to_index_[qid] = static_cast<std::uint32_t>(stats_.size());
  stats_.emplace_back(qid, PerQuery{});
}

void Emitter::record(const pisa::EmitRecord& rec) {
  ++total_;
  if (rec.qid >= qid_to_index_.size() || qid_to_index_[rec.qid] == kUnregistered) return;
  auto& s = stats_[qid_to_index_[rec.qid]].second;
  ++s.tuples;
  if (rec.kind == pisa::EmitRecord::Kind::kOverflow) ++s.overflows;
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
  for (const PlannedQuery& pq : plan_->queries) {
    QueryState qs;
    qs.pq = &pq;
    emitter_.register_query(pq.base->id());
    const std::string qid_str = std::to_string(pq.base->id());
    {
      const std::pair<std::string_view, std::string> labels[] = {{"qid", qid_str}};
      qs.winners_counter = &reg.counter(obs::labeled("sonata_sp_winners_total", labels));
    }
    for (const int level : pq.chain) {
      LevelExec le;
      le.level = level;
      le.exec = std::make_unique<stream::QueryExecutor>(pq.exec_queries.at(level));
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
    queries_.push_back(std::move(qs));
    for (const PlannedPipeline& p : pq.pipelines) {
      if (p.partition == 0) raw_feeds_.push_back({p.qid, p.level, p.source_index});
    }
  }
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
  for (const auto& qs : queries_) {
    if (qs.pq->base->id() == qid) return qs.pq;
  }
  return nullptr;
}

int StreamProcessor::remap_source(query::QueryId qid, int level, int source_index) const {
  if (source_index < 0) return -1;
  if (const PlannedQuery* pq = planned(qid)) {
    const auto it = pq->source_remap.find(level);
    if (it == pq->source_remap.end()) return source_index;
    // Bounds-checked: a corrupted wire record can carry any source index.
    if (static_cast<std::size_t>(source_index) >= it->second.size()) return -1;
    return it->second[static_cast<std::size_t>(source_index)];
  }
  return source_index;
}

StreamProcessor::LevelExec* StreamProcessor::level_exec(query::QueryId qid, int level) noexcept {
  for (auto& qs : queries_) {
    if (qs.pq->base->id() != qid) continue;
    for (auto& le : qs.levels) {
      if (le.level == level) return &le;
    }
  }
  return nullptr;
}

stream::QueryExecutor& StreamProcessor::executor(query::QueryId qid, int level) {
  LevelExec* le = level_exec(qid, level);
  assert(le && "no executor for (qid, level)");
  return *le->exec;
}

bool StreamProcessor::deliver(const pisa::EmitRecord& rec) {
  emitter_.record(rec);
  if (rec.kind == pisa::EmitRecord::Kind::kKeyReport) {
    // Key reports only notify the SP which registers to poll; the polled
    // aggregates are ingested at window end.
    return true;
  }
  LevelExec* le = level_exec(rec.qid, rec.level);
  if (!le) return false;
  const int src_idx = remap_source(rec.qid, rec.level, rec.source_index);
  if (src_idx < 0 || static_cast<std::size_t>(src_idx) >= le->exec->source_count()) return false;
  ++le->tuples_in;
  if (delivery_now_ != 0 && rec.ingest_ns != 0) {
    le->latency.note(delivery_now_ >= rec.ingest_ns ? delivery_now_ - rec.ingest_ns : 0);
  }
  le->exec->ingest(src_idx, rec.tuple, rec.op_index);
  return true;
}

bool StreamProcessor::deliver(pisa::EmitRecord&& rec) {
  emitter_.record(rec);
  if (rec.kind == pisa::EmitRecord::Kind::kKeyReport) return true;
  LevelExec* le = level_exec(rec.qid, rec.level);
  if (!le) return false;
  const int src_idx = remap_source(rec.qid, rec.level, rec.source_index);
  if (src_idx < 0 || static_cast<std::size_t>(src_idx) >= le->exec->source_count()) return false;
  ++le->tuples_in;
  if (delivery_now_ != 0 && rec.ingest_ns != 0) {
    le->latency.note(delivery_now_ >= rec.ingest_ns ? delivery_now_ - rec.ingest_ns : 0);
  }
  le->exec->ingest(src_idx, std::move(rec.tuple), rec.op_index);
  return true;
}

void StreamProcessor::deliver_batch(std::span<pisa::EmitRecord> recs) {
  for (pisa::EmitRecord& rec : recs) deliver(std::move(rec));
}

void StreamProcessor::deliver_raw(const Tuple& source) {
  for (const auto& feed : raw_feeds_) {
    const int src_idx = remap_source(feed.qid, feed.level, feed.source_index);
    if (src_idx < 0) continue;
    LevelExec& le = *level_exec(feed.qid, feed.level);  // raw feeds come from the plan
    ++le.tuples_in;
    le.exec->ingest(src_idx, source, 0);
  }
}

void StreamProcessor::deliver_raw_batch(std::span<Tuple> sources) {
  // Resolve the active feeds once per batch; the common single-feed case
  // then moves the whole buffer through the chain with zero tuple copies.
  struct Active {
    LevelExec* le;
    int src_idx;
  };
  std::vector<Active> active;
  active.reserve(raw_feeds_.size());
  for (const auto& feed : raw_feeds_) {
    const int src_idx = remap_source(feed.qid, feed.level, feed.source_index);
    if (src_idx >= 0) active.push_back({level_exec(feed.qid, feed.level), src_idx});
  }
  if (active.empty()) return;
  for (std::size_t f = 0; f + 1 < active.size(); ++f) {
    active[f].le->tuples_in += sources.size();
    for (const Tuple& t : sources) active[f].le->exec->ingest(active[f].src_idx, t, 0);
  }
  active.back().le->tuples_in += sources.size();
  active.back().le->exec->ingest_batch(active.back().src_idx, sources, 0);
}

void StreamProcessor::poll_switch(const pisa::Switch& sw) {
  const auto& pipelines = sw.pipelines();
  polls_.resize(pipelines.size());
  for (std::size_t p = 0; p < pipelines.size(); ++p) pipelines[p]->poll_block(polls_[p]);
  std::vector<pisa::PolledBlock>* const shards[] = {&polls_};
  merge_.merge(*this, pipelines, shards);
}

void StreamProcessor::ingest_merged(const pisa::CompiledSwitchQuery& pipe, std::uint64_t logical,
                                    WindowMerge& merged) {
  const auto& o = pipe.options();
  const int src_idx = remap_source(o.qid, o.level, o.source_index);
  if (src_idx < 0) return;
  LevelExec& le = *level_exec(o.qid, o.level);
  le.tuples_in += logical;
  le.exec->ingest_reduce(src_idx, pipe.poll_entry_op(), merged.size(), merged.hashes(),
                         merged.values(), [&](std::size_t e) { return merged.take_key(e); });
}

void StreamProcessor::close_levels(WindowStats& window,
                                   std::span<pisa::Switch* const> switches) {
  // Close coarse-to-fine; each level's winner keys go into the next level's
  // dynamic filter tables on every switch and on the SP side.
  const bool obs_on = obs::enabled();
  // Dense winner table in plan order; every query gets a slot so two runs
  // of the same plan compare equal window-by-window even when a query
  // installs nothing.
  window.winners.per_query.resize(queries_.size());
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    window.winners.per_query[qi].qid = queries_[qi].pq->base->id();
  }
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryState& qs = queries_[qi];
    const PlannedQuery& pq = *qs.pq;
    for (std::size_t li = 0; li < qs.levels.size(); ++li) {
      LevelExec& le = qs.levels[li];
      if (obs_on) {
        // Reduce-state peak for the window: read before end_window clears it.
        const state::StateUsage usage = le.exec->state_usage();
        le.state_gauge->set(static_cast<std::int64_t>(usage.entries));
        le.state_bytes_gauge->set(static_cast<std::int64_t>(usage.bytes));
        le.state_error_gauge->set(static_cast<std::int64_t>(usage.error_bound));
        le.in_counter->add(le.tuples_in);
        if (usage.error_bound > 0) {
          obs::Journal::global().emit(obs::EventType::kSketchBoundReport, window.window_index,
                                      pq.base->id(), 0,
                                      static_cast<std::int64_t>(usage.entries),
                                      static_cast<std::int64_t>(usage.bytes),
                                      static_cast<std::int64_t>(usage.error_bound),
                                      pq.base->name());
        }
        if (le.latency.n > 0) {
          // One merge per window per (query, level): the whole tally lands
          // in the registry histogram with two shard-local loops.
          le.latency_hist->merge_counts(le.latency.counts, le.latency.sum);
        }
      }
      le.latency.reset();
      le.tuples_in = 0;
      std::vector<Tuple> outputs = le.exec->end_window();
      if (obs_on) le.out_counter->add(outputs.size());
      const bool finest = li + 1 == qs.levels.size();
      if (finest) {
        window.results.push_back({pq.base->id(), pq.base->name(), std::move(outputs)});
        continue;
      }
      // Winner keys: the refinement key column of this level's output.
      const int level = qs.levels[li].level;
      const int next = qs.levels[li + 1].level;
      const auto& schema = pq.exec_queries.at(level).root()->output_schema();
      const std::string& key_col =
          pq.keys.empty() ? std::string{} : pq.keys.front().key_column;
      const auto idx = schema.index_of(key_col);
      std::vector<Tuple> winners;
      if (idx) {
        util::FlatSet dedup;
        dedup.reserve(outputs.size());
        for (const Tuple& out : outputs) {
          Tuple key;
          key.values.push_back(out.at(*idx));
          if (dedup.insert(key)) winners.push_back(std::move(key));
        }
      }
      // Install on both sides: every source's next-level pipeline.
      for (const auto& p : pq.pipelines) {
        if (p.level != next || p.filter_table.empty()) continue;
        for (pisa::Switch* sw : switches) sw->update_filter_entries(p.filter_table, winners);
        if (winner_sink_) winner_sink_(p.filter_table, winners);
        qs.levels[li + 1].exec->set_filter_entries(p.filter_table, winners);
      }
      if (obs_on) qs.winners_counter->add(winners.size());
      auto& installed = window.winners.per_query[qi].keys;
      installed.insert(installed.end(), winners.begin(), winners.end());
    }
  }
}

}  // namespace sonata::runtime
