// Transport-layer tests for the multi-process report channel: frame codec
// fuzzing (truncated datagrams, torn TCP reads, oversized frames),
// sequence-gap reassembly accounting, the cross-process shm ring, and an
// in-process end-to-end check that a SwitchNode/Collector deployment is
// bit-identical to the in-process Fleet on the same plan and trace.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/transport/frame.h"
#include "net/transport/reassembly.h"
#include "net/transport/shm_ring.h"
#include "net/transport/transport.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/distributed.h"
#include "runtime/fleet.h"
#include "test_trace.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/time.h"

namespace sonata::net::transport {
namespace {

Frame make_frame(FrameType type, std::uint16_t source, std::uint64_t seq,
                 std::initializer_list<unsigned char> payload = {}) {
  Frame f;
  f.type = type;
  f.source = source;
  f.seq = seq;
  for (const unsigned char b : payload) f.payload.push_back(std::byte{b});
  return f;
}

bool same_frame(const Frame& a, const Frame& b) {
  return a.type == b.type && a.source == b.source && a.seq == b.seq && a.payload == b.payload;
}

// -- endpoint specs --------------------------------------------------------

TEST(EndpointSpec, ParsesAllKinds) {
  auto shm = parse_endpoint("shm:/tmp/sonata_ring");
  ASSERT_TRUE(shm.has_value());
  EXPECT_EQ(shm->kind, TransportKind::kShm);
  EXPECT_EQ(shm->target, "/tmp/sonata_ring");

  auto udp = parse_endpoint("udp:127.0.0.1:9000");
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->kind, TransportKind::kUdp);
  EXPECT_EQ(udp->target, "127.0.0.1");
  EXPECT_EQ(udp->port, 9000);

  auto tcp = parse_endpoint("tcp:10.0.0.2:19801");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, TransportKind::kTcp);
  EXPECT_EQ(tcp->port, 19801);
}

TEST(EndpointSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_endpoint("").has_value());
  EXPECT_FALSE(parse_endpoint("carrier-pigeon:1.2.3.4:1").has_value());
  EXPECT_FALSE(parse_endpoint("udp:127.0.0.1").has_value());      // missing port
  EXPECT_FALSE(parse_endpoint("tcp:host:notaport").has_value());  // bad port
  EXPECT_FALSE(parse_endpoint("tcp:host:99999").has_value());     // port overflow
  EXPECT_FALSE(parse_endpoint("shm:").has_value());               // empty path
}

// -- datagram codec --------------------------------------------------------

TEST(DatagramCodec, RoundTripsEveryFrameType) {
  for (std::uint8_t t = 1; t <= 8; ++t) {
    Frame f = make_frame(static_cast<FrameType>(t), 3, 0x0123456789abcdefull,
                         {0xde, 0xad, 0xbe, 0xef});
    std::vector<std::byte> wire;
    encode_datagram(f, wire);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + 4u);
    const auto back = decode_datagram(wire);
    ASSERT_TRUE(back.has_value()) << "type " << int(t);
    EXPECT_TRUE(same_frame(f, *back));
  }
}

TEST(DatagramCodec, TruncationNeverCrashesAndHeaderlessInputIsRejected) {
  Frame f = make_frame(FrameType::kRecords, 1, 42, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<std::byte> wire;
  encode_datagram(f, wire);
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    const auto got = decode_datagram(std::span<const std::byte>(wire.data(), len));
    if (len < kFrameHeaderBytes) {
      EXPECT_FALSE(got.has_value()) << "len " << len;
    } else {
      // A truncated datagram just has a shorter (opaque) payload; the typed
      // payload codecs upstack reject it. The framing must still decode.
      ASSERT_TRUE(got.has_value()) << "len " << len;
      EXPECT_EQ(got->payload.size(), len - kFrameHeaderBytes);
    }
  }
}

TEST(DatagramCodec, RejectsBadMagicAndBadType) {
  Frame f = make_frame(FrameType::kRaw, 0, 7, {9});
  std::vector<std::byte> wire;
  encode_datagram(f, wire);

  std::vector<std::byte> bad_magic = wire;
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_FALSE(decode_datagram(bad_magic).has_value());

  std::vector<std::byte> bad_type = wire;
  bad_type[4] = std::byte{0};  // below kHello
  EXPECT_FALSE(decode_datagram(bad_type).has_value());
  bad_type[4] = std::byte{9};  // above kHelloAck
  EXPECT_FALSE(decode_datagram(bad_type).has_value());
}

TEST(DatagramCodec, RandomBytesFuzz) {
  util::Rng rng(0xf00d);
  std::vector<std::byte> junk;
  for (int iter = 0; iter < 2000; ++iter) {
    junk.resize(rng.uniform(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng.uniform(256));
    // Must never crash; decoding success is only possible with the magic.
    const auto got = decode_datagram(junk);
    if (got.has_value()) {
      EXPECT_GE(junk.size(), kFrameHeaderBytes);
    }
  }
}

// -- stream codec ----------------------------------------------------------

std::vector<Frame> sample_frames() {
  std::vector<Frame> fs;
  fs.push_back(make_frame(FrameType::kHello, 0, 0, {1, 2}));
  fs.push_back(make_frame(FrameType::kRecords, 1, 0, {}));
  fs.push_back(make_frame(FrameType::kPartial, 1, 1, {0xff}));
  fs.push_back(make_frame(FrameType::kWindowEnd, 2, 2, {0, 0, 0, 0, 0, 0, 0, 9}));
  Frame big = make_frame(FrameType::kRaw, 3, 3);
  big.payload.assign(777, std::byte{0x5a});
  fs.push_back(std::move(big));
  return fs;
}

TEST(StreamCodec, SurvivesEveryRechunking) {
  const auto frames = sample_frames();
  std::vector<std::byte> wire;
  for (const auto& f : frames) encode_stream(f, wire);

  for (std::size_t chunk = 1; chunk <= 17; ++chunk) {
    StreamParser parser;
    std::vector<Frame> got;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      parser.feed(std::span<const std::byte>(wire.data() + off,
                                             std::min(chunk, wire.size() - off)));
      while (auto f = parser.next()) got.push_back(std::move(*f));
    }
    ASSERT_FALSE(parser.error()) << "chunk " << chunk;
    EXPECT_EQ(parser.buffered(), 0u) << "chunk " << chunk;
    ASSERT_EQ(got.size(), frames.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_TRUE(same_frame(frames[i], got[i])) << "chunk " << chunk << " frame " << i;
    }
  }
}

TEST(StreamCodec, RandomRechunkingFuzz) {
  util::Rng rng(0xbeef);
  std::vector<Frame> frames;
  std::vector<std::byte> wire;
  for (int i = 0; i < 64; ++i) {
    Frame f = make_frame(static_cast<FrameType>(1 + rng.uniform(8)),
                         static_cast<std::uint16_t>(rng.uniform(4)), i);
    f.payload.resize(rng.uniform(300));
    for (auto& b : f.payload) b = static_cast<std::byte>(rng.uniform(256));
    encode_stream(f, wire);
    frames.push_back(std::move(f));
  }
  StreamParser parser;
  std::vector<Frame> got;
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform(97), wire.size() - off);
    parser.feed(std::span<const std::byte>(wire.data() + off, n));
    off += n;
    while (auto f = parser.next()) got.push_back(std::move(*f));
  }
  ASSERT_FALSE(parser.error());
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(same_frame(frames[i], got[i])) << "frame " << i;
  }
}

TEST(StreamCodec, OversizedLengthPrefixIsAProtocolErrorNotAnAllocation) {
  // len = header remainder + (kMaxFramePayload + 1): a torn/hostile length
  // prefix must not make the receiver allocate gigabytes or spin.
  const std::uint32_t len = static_cast<std::uint32_t>(11 + kMaxFramePayload + 1);
  std::byte prefix[4] = {static_cast<std::byte>(len >> 24), static_cast<std::byte>(len >> 16),
                         static_cast<std::byte>(len >> 8), static_cast<std::byte>(len)};
  StreamParser parser;
  parser.feed(prefix);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(StreamCodec, UndersizedLengthPrefixIsAProtocolError) {
  // len < 11 cannot hold the type/source/seq header.
  std::byte prefix[4] = {std::byte{0}, std::byte{0}, std::byte{0}, std::byte{5}};
  StreamParser parser;
  parser.feed(prefix);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(StreamCodec, BadTypeStopsTheStream) {
  Frame f = make_frame(FrameType::kHello, 0, 0, {1});
  std::vector<std::byte> wire;
  encode_stream(f, wire);
  wire[4] = std::byte{0};  // corrupt the type in place
  StreamParser parser;
  parser.feed(wire);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  // A stream that lost framing stays stuck; feeding more changes nothing.
  parser.feed(wire);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

// -- reassembly ------------------------------------------------------------

std::vector<std::uint64_t> push_seqs(Reassembly& r, std::uint16_t source,
                                     std::initializer_list<std::uint64_t> seqs) {
  std::vector<Frame> out;
  for (const std::uint64_t s : seqs) {
    r.push(make_frame(FrameType::kRecords, source, s), out);
  }
  std::vector<std::uint64_t> delivered;
  for (const auto& f : out) delivered.push_back(f.seq);
  return delivered;
}

TEST(Reassembly, InOrderDeliversImmediately) {
  Reassembly r;
  EXPECT_EQ(push_seqs(r, 0, {0, 1, 2, 3}), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  const auto st = r.stats(0);
  EXPECT_EQ(st.delivered, 4u);
  EXPECT_EQ(st.lost, 0u);
  EXPECT_EQ(st.reordered, 0u);
  EXPECT_EQ(st.duplicates, 0u);
}

TEST(Reassembly, ReorderedFramesBufferAndDeliverInOrder) {
  Reassembly r;
  EXPECT_EQ(push_seqs(r, 0, {0, 2, 3, 1, 4}), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  const auto st = r.stats(0);
  EXPECT_EQ(st.delivered, 5u);
  EXPECT_EQ(st.reordered, 2u);  // 2 and 3 arrived ahead of the gap
  EXPECT_EQ(st.lost, 0u);
}

TEST(Reassembly, DuplicatesAreDiscardedOnceDelivered) {
  Reassembly r;
  EXPECT_EQ(push_seqs(r, 0, {0, 0, 1, 1, 0}), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(r.stats(0).duplicates, 3u);
  // Duplicate of a *buffered* (not yet delivered) frame also counts.
  Reassembly r2;
  push_seqs(r2, 0, {0, 2, 2});
  EXPECT_EQ(r2.stats(0).duplicates, 1u);
}

TEST(Reassembly, FlushToCountsEveryGapExactlyOnce) {
  Reassembly r;
  // 2 lost before 3; 5..6 lost after 4 (sender's next seq is 7).
  EXPECT_EQ(push_seqs(r, 0, {0, 1, 3, 4}), (std::vector<std::uint64_t>{0, 1}));
  std::vector<Frame> out;
  EXPECT_EQ(r.flush_to(0, 7, out), 3u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(out[1].seq, 4u);
  const auto st = r.stats(0);
  EXPECT_EQ(st.lost, 3u);
  EXPECT_EQ(st.delivered, 4u);
  // The next window starts clean at seq 7.
  EXPECT_EQ(push_seqs(r, 0, {7, 8}), (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(r.stats(0).lost, 3u);
}

TEST(Reassembly, FlushToDeliversNextWindowFramesThatArrivedEarly) {
  Reassembly r;
  push_seqs(r, 0, {0, 2, 3});  // 1 lost; 2..3 buffered
  std::vector<Frame> out;
  r.push(make_frame(FrameType::kRecords, 0, 4), out);  // next window, early
  out.clear();
  EXPECT_EQ(r.flush_to(0, 4, out), 1u);
  // 2 and 3 flush as this window's stragglers and 4 is contiguous after.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.back().seq, 4u);
}

TEST(Reassembly, WindowOverflowResyncsWithExactLossAccounting) {
  Reassembly r(4);
  std::vector<Frame> out;
  r.push(make_frame(FrameType::kRecords, 0, 0), out);
  // seq 5 is >= window (4) ahead of next (1): gaps 1..4 give up, stream
  // jumps to 6.
  r.push(make_frame(FrameType::kRecords, 0, 5), out);
  const auto st = r.stats(0);
  EXPECT_EQ(st.resynced, 1u);
  EXPECT_EQ(st.lost, 4u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].seq, 5u);
  EXPECT_EQ(push_seqs(r, 0, {6}), (std::vector<std::uint64_t>{6}));
}

TEST(Reassembly, SourcesAreIndependent) {
  Reassembly r;
  push_seqs(r, 0, {0, 1});
  push_seqs(r, 7, {0, 2});  // source 7 has a gap, source 0 does not
  std::vector<Frame> out;
  r.flush_to(7, 3, out);
  EXPECT_EQ(r.stats(0).lost, 0u);
  EXPECT_EQ(r.stats(7).lost, 1u);
  EXPECT_EQ(r.totals().lost, 1u);
  EXPECT_EQ(r.sources(), 2u);
}

// -- shm ring --------------------------------------------------------------

std::string ring_path(const char* tag) {
  return "/tmp/sonata_nt_test." + std::to_string(::getpid()) + "." + tag;
}

TEST(ShmRing, RejectsFrameLargerThanCapacity) {
  auto ring = ShmRing::create(ring_path("big"), 1024);
  ASSERT_TRUE(ring.has_value()) << ring.error();
  std::vector<std::byte> oversized(ring->capacity() + 1, std::byte{0});
  EXPECT_FALSE(ring->write(oversized));
  ::unlink(ring->path().c_str());
}

TEST(ShmRing, BackpressureThenDrain) {
  auto ring = ShmRing::create(ring_path("bp"), 256);
  ASSERT_TRUE(ring.has_value()) << ring.error();
  // Capacity is rounded up (4 KB floor); fill past half so a second write
  // cannot fit until the consumer drains.
  const std::size_t big = ring->capacity() - 64;
  std::vector<std::byte> chunk(big, std::byte{0xaa});
  EXPECT_TRUE(ring->write(chunk));
  EXPECT_FALSE(ring->write(chunk));  // full: producer waits
  std::vector<std::byte> buf(ring->capacity());
  EXPECT_EQ(ring->read(buf.data(), buf.size()), big);
  EXPECT_TRUE(ring->write(chunk));  // space reclaimed
  ::unlink(ring->path().c_str());
}

TEST(ShmRing, CrossThreadFrameStreamArrivesIntactAndInOrder) {
  const std::string path = ring_path("xthread");
  auto created = ShmRing::create(path, 4096);
  ASSERT_TRUE(created.has_value()) << created.error();
  ShmRing producer = std::move(*created);
  auto opened = ShmRing::open(path, /*timeout_ms=*/2000);
  ASSERT_TRUE(opened.has_value()) << opened.error();
  ShmRing consumer = std::move(*opened);

  constexpr std::size_t kFrames = 500;
  std::thread writer([&] {
    util::Rng rng(1);
    std::vector<std::byte> wire;
    for (std::size_t i = 0; i < kFrames; ++i) {
      Frame f = make_frame(FrameType::kRecords, 0, static_cast<std::uint64_t>(i));
      f.payload.resize(rng.uniform(300));
      for (auto& b : f.payload) b = static_cast<std::byte>(i & 0xff);
      wire.clear();
      encode_stream(f, wire);
      while (!producer.write(wire)) std::this_thread::yield();  // ring full
    }
  });

  StreamParser parser;
  std::vector<Frame> got;
  std::byte buf[1024];
  while (got.size() < kFrames) {
    const std::size_t n = consumer.read(buf, sizeof(buf));
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    parser.feed(std::span<const std::byte>(buf, n));
    while (auto f = parser.next()) got.push_back(std::move(*f));
    ASSERT_FALSE(parser.error());
  }
  writer.join();
  util::Rng rng(1);  // replay the writer's payload sizes
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].seq, static_cast<std::uint64_t>(i));
    ASSERT_EQ(got[i].payload.size(), rng.uniform(300));
    for (const auto b : got[i].payload) EXPECT_EQ(b, static_cast<std::byte>(i & 0xff));
  }
  ::unlink(path.c_str());
}

// Regression: a client whose connect AND first bytes are both pending when
// the collector polls. The accept grows the connection list past the pollfd
// set built for that round; the scan must only cover connections that have
// a matching pollfd (the old code indexed one past the end of pfds and
// could readv() a fresh blocking socket with no data, wedging the poll).
TEST(TcpEndpoint, AcceptAndFirstFrameInSamePollRound) {
  const std::uint16_t port = static_cast<std::uint16_t>(40000 + (::getpid() % 20000));
  const auto spec = parse_endpoint("tcp:127.0.0.1:" + std::to_string(port));
  ASSERT_TRUE(spec.has_value());

  constexpr std::uint16_t kNodes = 2;
  auto ep = make_collector_endpoint(*spec, kNodes);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  ASSERT_EQ((*ep)->listen(), "");

  // Both clients connect and send before the collector polls once: the
  // kernel queues the connections on the listen backlog and the frames in
  // the socket buffers, so the first poll round sees accept + data ready.
  std::vector<std::unique_ptr<ReportTransport>> clients;
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    auto tr = make_switch_transport(*spec, n);
    ASSERT_TRUE(tr.has_value()) << tr.error();
    ASSERT_EQ((*tr)->connect(2000), "");
    ASSERT_TRUE((*tr)->send(make_frame(FrameType::kHello, n, 0, {1, 2, 3})));
    clients.push_back(std::move(*tr));
  }

  std::vector<Frame> got;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < kNodes && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE((*ep)->poll(got, 100));
  }
  ASSERT_EQ(got.size(), kNodes);
  std::vector<bool> seen(kNodes, false);
  for (const Frame& f : got) {
    EXPECT_EQ(f.type, FrameType::kHello);
    ASSERT_LT(f.source, kNodes);
    seen[f.source] = true;
    EXPECT_EQ(f.payload.size(), 3u);
  }
  EXPECT_TRUE(seen[0] && seen[1]);
}

}  // namespace
}  // namespace sonata::net::transport

// -- end-to-end: distributed == in-process ---------------------------------

namespace sonata::runtime {
namespace {

namespace nt = net::transport;

// Forwards to a real switch-node transport and digests, with FNV-1a, what
// passes through it: every data frame sent (type, seq, payload), and the
// first copy of each kWinners chunk received (a retransmitted bundle
// repeats its chunks).
class RecordingTransport final : public nt::ReportTransport {
 public:
  explicit RecordingTransport(std::unique_ptr<nt::ReportTransport> inner)
      : inner_(std::move(inner)) {}

  std::string connect(int timeout_ms) override { return inner_->connect(timeout_ms); }
  bool send(const nt::Frame& f) override {
    if (nt::is_data_frame(f.type)) {
      sent_ = digest(sent_, f);
      ++data_frames_;
    }
    return inner_->send(f);
  }
  bool poll(nt::Frame& out, int timeout_ms) override {
    if (!inner_->poll(out, timeout_ms)) return false;
    if (out.type == nt::FrameType::kWinners && out.payload.size() >= 8) {
      std::uint64_t window = 0;
      for (int i = 0; i < 8; ++i) window = window << 8 | std::to_integer<std::uint64_t>(out.payload[i]);
      if (winner_chunks_.insert({window, out.seq}).second) winners_ = digest(winners_, out);
    }
    return true;
  }
  const nt::TransportCounters& counters() const noexcept override { return inner_->counters(); }
  nt::TransportKind kind() const noexcept override { return inner_->kind(); }

  std::uint64_t sent_digest() const noexcept { return sent_; }
  std::uint64_t winners_digest() const noexcept { return winners_; }
  std::size_t data_frames() const noexcept { return data_frames_; }
  std::size_t winner_chunks() const noexcept { return winner_chunks_.size(); }

 private:
  static std::uint64_t digest(std::uint64_t h, const nt::Frame& f) {
    std::byte head[9] = {static_cast<std::byte>(f.type)};
    for (int i = 0; i < 8; ++i) head[1 + i] = static_cast<std::byte>(f.seq >> (56 - 8 * i));
    return util::fnv1a64(f.payload, util::fnv1a64(head, h));
  }

  std::unique_ptr<nt::ReportTransport> inner_;
  std::uint64_t sent_ = 0xcbf29ce484222325ULL;
  std::uint64_t winners_ = 0xcbf29ce484222325ULL;
  std::size_t data_frames_ = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> winner_chunks_;  // (window, seq)
};

// A collector plus two switch-node threads over a real shm transport must
// reproduce the in-process Fleet's windows bit for bit: same detections,
// same winner tables, same packet/tuple accounting, full contribution mask.
// Obs is off, so records carry no clock stamps and every byte each node
// sends and receives is fixed: the digests pin the wire format.
TEST(DistributedE2E, ShmDeploymentIsBitIdenticalToFleet) {
  const testing::Scenario sc = testing::make_scenario(11, 120.0);
  const auto qs = queries::evaluation_queries(sc.thresholds, util::seconds(3));
  planner::PlannerConfig pcfg;
  pcfg.mode = planner::PlanMode::kSonata;
  pcfg.window = util::seconds(3);
  const planner::Plan plan = planner::Planner(pcfg).plan(qs, sc.trace);

  constexpr std::size_t kSwitches = 4;
  constexpr std::uint16_t kNodes = 2;

  Fleet fleet(plan, kSwitches);
  const auto ref = fleet.run_trace(sc.trace);
  ASSERT_FALSE(ref.empty());

  const std::string prefix =
      "/tmp/sonata_nt_e2e." + std::to_string(::getpid());
  const auto spec = nt::parse_endpoint("shm:" + prefix);
  ASSERT_TRUE(spec.has_value());

  DistributedConfig dcfg;
  dcfg.switches = kSwitches;
  dcfg.nodes = kNodes;
  auto ep = nt::make_collector_endpoint(*spec, kNodes);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  Collector collector(plan, dcfg, std::move(*ep));
  ASSERT_EQ(collector.listen(), "");

  std::vector<WindowStats> got;
  std::string collector_err;
  std::thread collector_thread(
      [&] { collector_err = collector.run([&](const WindowStats& ws) { got.push_back(ws); }); });

  std::string node_err[kNodes];
  std::uint64_t sent_digest[kNodes] = {};
  std::uint64_t winners_digest[kNodes] = {};
  std::size_t data_frames[kNodes] = {};
  std::size_t winner_chunks[kNodes] = {};
  std::vector<std::thread> node_threads;
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    node_threads.emplace_back([&, n] {
      DistributedConfig ncfg = dcfg;
      ncfg.node_index = n;
      auto transport = nt::make_switch_transport(*spec, n);
      if (!transport) {
        node_err[n] = transport.error();
        return;
      }
      auto recording = std::make_unique<RecordingTransport>(std::move(*transport));
      const RecordingTransport& rec = *recording;
      SwitchNode node(plan, ncfg, std::move(recording));
      node_err[n] = node.run(sc.trace);
      sent_digest[n] = rec.sent_digest();
      winners_digest[n] = rec.winners_digest();
      data_frames[n] = rec.data_frames();
      winner_chunks[n] = rec.winner_chunks();
    });
  }
  for (auto& t : node_threads) t.join();
  collector_thread.join();
  EXPECT_EQ(collector_err, "");
  for (std::uint16_t n = 0; n < kNodes; ++n) EXPECT_EQ(node_err[n], "") << "node " << n;

  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t w = 0; w < ref.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(got[w].window_index, ref[w].window_index);
    EXPECT_EQ(got[w].packets, ref[w].packets);
    EXPECT_EQ(got[w].tuples_to_sp, ref[w].tuples_to_sp);
    EXPECT_EQ(got[w].raw_mirror_packets, ref[w].raw_mirror_packets);
    EXPECT_EQ(got[w].overflow_records, ref[w].overflow_records);
    EXPECT_EQ(got[w].contribution_mask, ref[w].contribution_mask);
    EXPECT_FALSE(got[w].partial);
    EXPECT_TRUE(got[w].winners == ref[w].winners);
    ASSERT_EQ(got[w].results.size(), ref[w].results.size());
    for (std::size_t i = 0; i < ref[w].results.size(); ++i) {
      EXPECT_EQ(got[w].results[i].qid, ref[w].results[i].qid);
      EXPECT_EQ(got[w].results[i].name, ref[w].results[i].name);
      EXPECT_EQ(got[w].results[i].outputs, ref[w].results[i].outputs);
    }
  }
  EXPECT_EQ(collector.stats().windows, ref.size());
  EXPECT_EQ(collector.stats().lost_frames, 0u);

  // Recorded from the codec this test was written against; a change to any
  // payload or frame byte moves them.
  constexpr std::uint64_t kSentDigest[kNodes] = {0x778c6a01157c4ac6ULL, 0x247d1254840b0995ULL};
  constexpr std::uint64_t kWinnersDigest = 0x723bda647f0cf046ULL;
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(data_frames[n], 134u);
    EXPECT_EQ(sent_digest[n], kSentDigest[n]);
    EXPECT_EQ(winner_chunks[n], 5u);
    EXPECT_EQ(winners_digest[n], kWinnersDigest);
  }

  for (std::uint16_t n = 0; n < kNodes; ++n) {
    ::unlink((prefix + ".n" + std::to_string(n) + ".up").c_str());
    ::unlink((prefix + ".n" + std::to_string(n) + ".down").c_str());
  }
}

// Per-record corruption and truncation inside kRecords frames over shm:
// the collector's item reader meets mutated bytes end to end. Every role
// still finishes, every window closes, and each failed decode traces back
// to an injected fault (a truncated record never decodes; a bit flip may).
TEST(DistributedE2E, ShmRecordFaultsAreCountedNotFatal) {
  const testing::Scenario sc = testing::make_scenario(11, 120.0);
  const auto qs = queries::evaluation_queries(sc.thresholds, util::seconds(3));
  planner::PlannerConfig pcfg;
  pcfg.mode = planner::PlanMode::kSonata;
  pcfg.window = util::seconds(3);
  const planner::Plan plan = planner::Planner(pcfg).plan(qs, sc.trace);

  constexpr std::uint16_t kNodes = 2;
  Fleet fleet(plan, 4);
  const std::size_t fleet_windows = fleet.run_trace(sc.trace).size();

  const std::string prefix = "/tmp/sonata_nt_faults." + std::to_string(::getpid());
  const auto spec = nt::parse_endpoint("shm:" + prefix);
  ASSERT_TRUE(spec.has_value());
  DistributedConfig dcfg;
  dcfg.switches = 4;
  dcfg.nodes = kNodes;
  auto ep = nt::make_collector_endpoint(*spec, kNodes);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  Collector collector(plan, dcfg, std::move(*ep));
  ASSERT_EQ(collector.listen(), "");
  std::string collector_err;
  std::thread collector_thread([&] { collector_err = collector.run({}); });

  std::string node_err[kNodes];
  fault::FaultAccount node_faults[kNodes];
  std::vector<std::thread> node_threads;
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    node_threads.emplace_back([&, n] {
      DistributedConfig ncfg = dcfg;
      ncfg.node_index = n;
      ncfg.faults.seed = 7;
      ncfg.faults.corrupt_rate = 0.02;
      ncfg.faults.truncate_rate = 0.01;
      auto transport = nt::make_switch_transport(*spec, n);
      if (!transport) {
        node_err[n] = transport.error();
        return;
      }
      SwitchNode node(plan, ncfg, std::move(*transport));
      node_err[n] = node.run(sc.trace);
      node_faults[n] = node.faults();
    });
  }
  for (auto& t : node_threads) t.join();
  collector_thread.join();
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    ::unlink((prefix + ".n" + std::to_string(n) + ".up").c_str());
    ::unlink((prefix + ".n" + std::to_string(n) + ".down").c_str());
  }

  EXPECT_EQ(collector_err, "");
  for (std::uint16_t n = 0; n < kNodes; ++n) EXPECT_EQ(node_err[n], "") << "node " << n;
  EXPECT_EQ(collector.stats().windows, fleet_windows);
  const std::uint64_t corrupted = node_faults[0].corrupted + node_faults[1].corrupted;
  const std::uint64_t truncated = node_faults[0].truncated + node_faults[1].truncated;
  EXPECT_GT(corrupted + truncated, 0u);
  EXPECT_LE(truncated, collector.stats().decode_failures);
  EXPECT_LE(collector.stats().decode_failures, corrupted + truncated);
}

// A node that planned a different query set must be turned away at kHello
// with a named error on both sides, not run windows the collector would
// merge wrongly or fail to decode.
TEST(DistributedE2E, NodeWithDifferentQuerySetIsRejectedAtHello) {
  const testing::Scenario sc = testing::make_scenario(11, 120.0);
  const auto qs = queries::evaluation_queries(sc.thresholds, util::seconds(3));
  planner::PlannerConfig pcfg;
  pcfg.mode = planner::PlanMode::kSonata;
  pcfg.window = util::seconds(3);
  const planner::Plan plan = planner::Planner(pcfg).plan(qs, sc.trace);
  const std::vector<query::Query> fewer(qs.begin(), qs.begin() + 2);
  const planner::Plan other = planner::Planner(pcfg).plan(fewer, sc.trace);
  ASSERT_NE(plan.fingerprint(), other.fingerprint());
  EXPECT_EQ(plan.fingerprint(), planner::Planner(pcfg).plan(qs, sc.trace).fingerprint());

  const std::string prefix = "/tmp/sonata_nt_fp." + std::to_string(::getpid());
  const auto spec = nt::parse_endpoint("shm:" + prefix);
  ASSERT_TRUE(spec.has_value());
  DistributedConfig dcfg;
  dcfg.switches = 2;
  dcfg.nodes = 1;
  auto ep = nt::make_collector_endpoint(*spec, 1);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  Collector collector(plan, dcfg, std::move(*ep));
  ASSERT_EQ(collector.listen(), "");
  std::size_t windows = 0;
  std::string collector_err;
  std::thread collector_thread(
      [&] { collector_err = collector.run([&](const WindowStats&) { ++windows; }); });
  auto transport = nt::make_switch_transport(*spec, 0);
  ASSERT_TRUE(transport.has_value()) << transport.error();
  SwitchNode node(other, dcfg, std::move(*transport));
  const std::string node_err = node.run(sc.trace);
  collector_thread.join();
  ::unlink((prefix + ".n0.up").c_str());
  ::unlink((prefix + ".n0.down").c_str());

  EXPECT_NE(collector_err.find("plan fingerprint"), std::string::npos) << collector_err;
  EXPECT_NE(node_err.find("plan fingerprint mismatch"), std::string::npos) << node_err;
  EXPECT_EQ(windows, 0u);
}

// UDP loopback with injected frame drops: the run must complete (partial
// windows, never a hang) and the loss accounting must be exact — every
// frame the sender dropped is counted lost by the receiver, once.
TEST(DistributedE2E, UdpInjectedLossIsExactlyAccounted) {
  const testing::Scenario sc = testing::make_scenario(11, 120.0);
  const auto qs = queries::evaluation_queries(sc.thresholds, util::seconds(3));
  planner::PlannerConfig pcfg;
  pcfg.mode = planner::PlanMode::kSonata;
  pcfg.window = util::seconds(3);
  const planner::Plan plan = planner::Planner(pcfg).plan(qs, sc.trace);

  const std::uint16_t port = static_cast<std::uint16_t>(20000 + (::getpid() % 20000));
  const auto spec = nt::parse_endpoint("udp:127.0.0.1:" + std::to_string(port));
  ASSERT_TRUE(spec.has_value());

  DistributedConfig dcfg;
  dcfg.switches = 2;
  dcfg.nodes = 1;
  auto ep = nt::make_collector_endpoint(*spec, 1);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  Collector collector(plan, dcfg, std::move(*ep));
  ASSERT_EQ(collector.listen(), "");

  std::size_t partial_windows = 0;
  std::string collector_err;
  std::thread collector_thread([&] {
    collector_err = collector.run([&](const WindowStats& ws) { partial_windows += ws.partial; });
  });

  DistributedConfig ncfg = dcfg;
  ncfg.faults.seed = 99;
  ncfg.faults.drop_rate = 0.05;
  auto transport = nt::make_switch_transport(*spec, 0);
  ASSERT_TRUE(transport.has_value()) << transport.error();
  SwitchNode node(plan, ncfg, std::move(*transport));
  const std::string node_err = node.run(sc.trace);
  collector_thread.join();
  EXPECT_EQ(collector_err, "");
  EXPECT_EQ(node_err, "");

  EXPECT_GT(node.faults().dropped, 0u);
  EXPECT_EQ(collector.stats().lost_frames, node.faults().dropped);
  EXPECT_EQ(collector.stats().peer_dropped, node.faults().dropped);
  EXPECT_GT(partial_windows, 0u);
}

}  // namespace
}  // namespace sonata::runtime
