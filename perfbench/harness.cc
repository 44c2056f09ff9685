#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "pisa/extract.h"
#include "runtime/plan_install.h"
#include "runtime/report.h"

namespace perfbench {

using sonata::pisa::EmitRecord;
using sonata::query::Tuple;
namespace rt = sonata::runtime;

// -- SpanLog ----------------------------------------------------------------

SpanLog::Id SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<Id>(i);
  }
  names_.emplace_back(name);
  return static_cast<Id>(names_.size() - 1);
}

void SpanLog::open(Id name) {
  const Id parent = stack_.empty() ? kNone : static_cast<Id>(stack_.back());
  stack_.push_back(spans_.size());
  spans_.push_back({name, parent, now_ns(), 0});
}

void SpanLog::close() {
  spans_[stack_.back()].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<Totals> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    Totals& t = out[s.name];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, child_ns[i]);
  }
  return out;
}

std::string SpanLog::chrome_json(std::size_t max_events) const {
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t n = std::min(max_events, spans_.size());
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %lld}}",
                  i == 0 ? "" : ",\n", names_[s.name].c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// -- LayeredRuntime -------------------------------------------------------------

std::string pipeline_label(const sonata::pisa::CompiledSwitchQuery& p) {
  const auto& o = p.options();
  return "q" + std::to_string(o.qid) + ".l" + std::to_string(o.level) + ".s" +
         std::to_string(o.source_index);
}

namespace {

std::unique_ptr<sonata::pisa::Switch> install_switch(const sonata::planner::Plan& plan) {
  auto sw = std::make_unique<sonata::pisa::Switch>(plan.switch_config);
  rt::PipelineBuild build = rt::build_pipelines(plan, {});
  const std::string err = sw->install(std::move(build.pipelines), build.resources);
  if (!err.empty()) throw std::runtime_error("plan does not fit its switch: " + err);
  return sw;
}

std::string level_label(sonata::query::QueryId qid, int level) {
  return "q" + std::to_string(qid) + ".l" + std::to_string(level);
}

}  // namespace

LayeredRuntime::LayeredRuntime(const sonata::planner::Plan& plan, std::size_t batch,
                               SpanLog* spans)
    : plan_(plan),
      batch_(std::max<std::size_t>(batch, 1)),
      spans_(spans),
      sw_(install_switch(plan)),
      sp_(plan) {
  raw_ = sp_.wants_raw_mirror();
  tuples_.resize(batch_);
  if (spans_ == nullptr) return;

  ids_ = {spans_->intern("window"),
          spans_->intern("pisa.extract"),
          spans_->intern("pisa.switch"),
          spans_->intern("runtime.sp_deliver"),
          spans_->intern("runtime.sp_raw"),
          spans_->intern("runtime.poll"),
          spans_->intern("runtime.close_levels"),
          spans_->intern("pisa.reset"),
          spans_->intern("instrument.shadow_reset"),
          spans_->intern("instrument.shadow_poll"),
          spans_->intern("instrument.report.encode"),
          spans_->intern("instrument.report.decode")};
  shadow_ = install_switch(plan);
  shadow_->set_obs_label("shadow");
  for (const auto& p : shadow_->pipelines()) {
    pipeline_spans_.push_back(spans_->intern("instrument.pipeline." + pipeline_label(*p)));
  }
  for (const auto& pq : plan_.queries) {
    for (const auto& p : pq.pipelines) {
      if (p.partition != 0) continue;
      raw_feeds_.push_back({p.qid, p.level, p.source_index,
                            spans_->intern("stream.ingest." + level_label(p.qid, p.level))});
    }
  }
  // Winner installs reach the shadow switch through the SP's install hook,
  // in the same order close_levels applies them to the primary switch.
  const SpanLog::Id install_id = spans_->intern("instrument.shadow_install");
  sp_.set_winner_sink([this, install_id](const std::string& table,
                                         std::span<const Tuple> keys) {
    Scope s(spans_, install_id);
    shadow_->update_filter_entries(table, std::vector<Tuple>(keys.begin(), keys.end()));
  });
}

LayeredRuntime::Group& LayeredRuntime::group_for(sonata::query::QueryId qid, int level) {
  for (Group& g : groups_) {
    if (g.qid == qid && g.level == level) return g;
  }
  groups_.push_back({qid, level, spans_->intern("stream.ingest." + level_label(qid, level)), {}});
  return groups_.back();
}

void LayeredRuntime::deliver_grouped() {
  for (EmitRecord& rec : sink_.records()) {
    if (rec.kind != EmitRecord::Kind::kKeyReport) ++counts_.tuples_in;
    group_for(rec.qid, rec.level).records.push_back(std::move(rec));
  }
  for (Group& g : groups_) {
    if (g.records.empty()) continue;
    Scope s(spans_, g.span);
    g.delivered += g.records.size();
    sp_.deliver_batch(g.records);
    g.records.clear();
  }
}

void LayeredRuntime::deliver_raw_traced(std::span<Tuple> sources) {
  // StreamProcessor::deliver_raw_batch, feed by feed: every active feed but
  // the last copies the batch, the last takes it by move.
  std::vector<std::pair<RawFeed*, int>> active;
  for (RawFeed& f : raw_feeds_) {
    const int src = sp_.remap_source(f.qid, f.level, f.source_index);
    if (src >= 0) active.emplace_back(&f, src);
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    RawFeed& f = *active[i].first;
    Scope s(spans_, f.span);
    auto& exec = sp_.executor(f.qid, f.level);
    if (i + 1 < active.size()) {
      for (const Tuple& t : sources) exec.ingest(active[i].second, t, 0);
    } else {
      exec.ingest_batch(active[i].second, sources, 0);
    }
    f.delivered += sources.size();
    counts_.tuples_in += sources.size();
  }
}

std::vector<std::pair<std::string, std::uint64_t>> LayeredRuntime::ingest_tuples() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto add = [&](SpanLog::Id span, std::uint64_t n) {
    for (auto& [name, total] : out) {
      if (name == spans_->name(span)) {
        total += n;
        return;
      }
    }
    out.emplace_back(spans_->name(span), n);
  };
  for (const Group& g : groups_) add(g.span, g.delivered);
  for (const RawFeed& f : raw_feeds_) add(f.span, f.delivered);
  return out;
}

void LayeredRuntime::run_shadow(std::span<const Tuple> sources) {
  const auto& pipelines = shadow_->pipelines();
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    Scope s(spans_, pipeline_spans_[i]);
    for (const Tuple& t : sources) pipelines[i]->process_into(t, shadow_sink_);
    shadow_sink_.clear();
  }
}

void LayeredRuntime::replay_codec(std::span<const Tuple> sources) {
  // Encode then decode this batch's records (the raw-mirror tuples when the
  // plan mirrors raw packets): what a distributed deployment would ship.
  codec_buf_.clear();
  codec_ends_.clear();
  const bool records = !raw_;
  {
    Scope s(spans_, ids_.encode);
    if (records) {
      for (const EmitRecord& rec : sink_.records()) {
        rt::encode_report_into(rec, codec_buf_);
        codec_ends_.push_back(codec_buf_.size());
      }
    } else {
      for (const Tuple& t : sources) {
        rt::encode_tuple(t, codec_buf_);
        codec_ends_.push_back(codec_buf_.size());
      }
    }
  }
  {
    Scope s(spans_, ids_.decode);
    const std::span<const std::byte> all(codec_buf_);
    std::size_t begin = 0;
    for (std::size_t i = 0; i < codec_ends_.size(); ++i) {
      const auto bytes = all.subspan(begin, codec_ends_[i] - begin);
      begin = codec_ends_[i];
      if (records) {
        const auto rec = rt::decode_report(bytes);
        if (!rec || !(rec->tuple == sink_.records()[i].tuple)) ++counts_.codec_failures;
      } else {
        const auto t = rt::decode_tuple(bytes);
        if (!t || !(*t == sources[i])) ++counts_.codec_failures;
      }
    }
  }
  counts_.codec_records += codec_ends_.size();
  counts_.codec_bytes += codec_buf_.size();
}

void LayeredRuntime::run_batch(std::span<const sonata::net::Packet> packets) {
  const std::size_t n = packets.size();
  {
    Scope s(spans_, ids_.extract);
    sonata::pisa::extract_batch(packets, tuples_.data());
  }
  const std::span<Tuple> batch(tuples_.data(), n);
  sink_.clear();
  {
    // Runtime's compute granularity: the switch consumes the batch in runs
    // of 16 tuples.
    Scope s(spans_, ids_.process);
    for (std::size_t off = 0; off < n; off += 16) {
      sw_->process_batch(batch.subspan(off, std::min<std::size_t>(16, n - off)), sink_);
    }
  }
  if (spans_ != nullptr) {
    run_shadow(batch);
    replay_codec(batch);
  }
  std::uint64_t overflows = 0;
  for (const EmitRecord& rec : sink_.records()) {
    overflows += rec.kind == EmitRecord::Kind::kOverflow ? 1 : 0;
  }
  current_.overflow_records += overflows;
  counts_.records += sink_.size();
  counts_.overflow_records += overflows;
  const std::uint64_t with_records = sink_.packets_with_records();
  {
    Scope s(spans_, ids_.deliver);
    if (spans_ != nullptr) {
      deliver_grouped();
    } else {
      sp_.deliver_batch(sink_.records());
    }
  }
  if (raw_) {
    current_.raw_mirror_packets += n;
    current_.tuples_to_sp += n;
    Scope s(spans_, ids_.raw);
    if (spans_ != nullptr) {
      deliver_raw_traced(batch);
    } else {
      sp_.deliver_raw_batch(batch);
    }
  } else {
    current_.tuples_to_sp += with_records;
  }
}

rt::WindowStats LayeredRuntime::run_window(std::span<const sonata::net::Packet> packets) {
  Scope window(spans_, ids_.window);
  current_.packets = packets.size();
  for (std::size_t off = 0; off < packets.size(); off += batch_) {
    run_batch(packets.subspan(off, std::min(batch_, packets.size() - off)));
  }
  if (spans_ != nullptr) {
    // Polled aggregates are counted on the shadow, whose registers hold the
    // same keys.
    Scope s(spans_, ids_.shadow_poll);
    for (const auto& p : shadow_->pipelines()) {
      if (p->has_stateful_tail()) counts_.tuples_in += p->poll_aggregates().size();
    }
  }
  {
    Scope s(spans_, ids_.poll);
    sp_.poll_switch(*sw_);
  }
  if (spans_ != nullptr) {
    for (const auto& pq : plan_.queries) {
      for (const int level : pq.chain) {
        const auto usage = sp_.executor(pq.base->id(), level).state_usage();
        counts_.state_entries += usage.entries;
        counts_.state_bytes += usage.bytes;
      }
    }
  }
  const double control_before = sw_->stats().control_update_millis;
  {
    Scope s(spans_, ids_.close);
    sonata::pisa::Switch* const switches[] = {sw_.get()};
    sp_.close_levels(current_, switches);
  }
  {
    Scope s(spans_, ids_.reset);
    sw_->reset_all_registers();
  }
  if (spans_ != nullptr) {
    {
      Scope s(spans_, ids_.shadow_reset);
      shadow_->reset_all_registers();
    }
    for (const auto& r : current_.results) counts_.tuples_out += r.outputs.size();
    for (const auto& w : current_.winners.per_query) counts_.tuples_out += w.keys.size();
  }
  current_.control_update_millis = sw_->stats().control_update_millis - control_before;
  current_.contribution_mask = 1;
  current_.window_index = window_counter_++;
  ++counts_.windows;
  counts_.packets += packets.size();
  rt::WindowStats out = std::move(current_);
  current_ = rt::WindowStats{};
  return out;
}

}  // namespace perfbench
