#include <gtest/gtest.h>

#include "net/headers.h"
#include "queries/catalog.h"
#include "query/field.h"
#include "stream/executor.h"
#include "util/ip.h"

namespace sonata::stream {
namespace {

using namespace query::dsl;
using query::QueryBuilder;
using query::ReduceFn;
using query::Tuple;
using query::Value;
using util::ipv4;

Tuple tup(const net::Packet& p) { return query::materialize_tuple(p); }

net::Packet syn(std::uint32_t s, std::uint32_t d) {
  return net::Packet::tcp(0, s, d, 1000, 80, net::tcp_flags::kSyn, 40);
}

TEST(ChainExecutor, FilterMapReduceFlow) {
  auto q = QueryBuilder::packet_stream()
               .filter(col("tcp.flags") == lit(2))
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .filter(col("c") > lit(1))
               .build("t", 1);
  ASSERT_EQ(q.validate(), "");
  ChainExecutor chain(*q.sources()[0]);
  chain.ingest(tup(syn(1, 42)), 0);
  chain.ingest(tup(syn(2, 42)), 0);
  chain.ingest(tup(syn(3, 7)), 0);
  chain.ingest(tup(net::Packet::tcp(0, 4, 42, 1, 2, net::tcp_flags::kAck, 40)), 0);
  const auto out = chain.end_window();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).as_uint(), 42u);
  EXPECT_EQ(out[0].at(1).as_uint(), 2u);
  // Window state cleared.
  EXPECT_TRUE(chain.end_window().empty());
}

TEST(ChainExecutor, DistinctWithinWindow) {
  auto q = QueryBuilder::packet_stream()
               .map({{"sIP", col("sIP")}, {"dIP", col("dIP")}})
               .distinct()
               .map({{"sIP", col("sIP")}, {"c", lit(1)}})
               .reduce({"sIP"}, ReduceFn::kSum, "c")
               .build("d", 2);
  ASSERT_EQ(q.validate(), "");
  ChainExecutor chain(*q.sources()[0]);
  chain.ingest(tup(syn(1, 10)), 0);
  chain.ingest(tup(syn(1, 10)), 0);  // duplicate pair
  chain.ingest(tup(syn(1, 11)), 0);
  const auto out = chain.end_window();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(1).as_uint(), 2u);  // two distinct destinations
}

TEST(ChainExecutor, EntryMidChainSkipsEarlierOps) {
  auto q = QueryBuilder::packet_stream()
               .filter(col("proto") == lit(99))  // would drop everything
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .build("e", 3);
  ASSERT_EQ(q.validate(), "");
  ChainExecutor chain(*q.sources()[0]);
  // Entering at op 1 bypasses the impossible filter (switch already ran it).
  chain.ingest(tup(syn(1, 5)), 1);
  const auto out = chain.end_window();
  ASSERT_EQ(out.size(), 1u);
}

TEST(ChainExecutor, AggregateEntryAfterReduce) {
  auto q = QueryBuilder::packet_stream()
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .filter(col("c") > lit(5))
               .build("a", 4);
  ASSERT_EQ(q.validate(), "");
  ChainExecutor chain(*q.sources()[0]);
  // Polled switch aggregates enter after the reduce but before the filter.
  chain.ingest(Tuple{{Value{std::uint64_t{42}}, Value{std::uint64_t{9}}}}, 2);
  chain.ingest(Tuple{{Value{std::uint64_t{43}}, Value{std::uint64_t{3}}}}, 2);
  const auto out = chain.end_window();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).as_uint(), 42u);
}

TEST(ChainExecutor, OverflowMergeMatchesPureExecution) {
  // SP-side aggregation of overflow keys + polled values must equal a pure
  // SP run: simulate key 7 overflowing (all its packets re-enter at the
  // reduce) while key 8's aggregate arrives via poll.
  auto q = QueryBuilder::packet_stream()
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .build("o", 5);
  ASSERT_EQ(q.validate(), "");
  ChainExecutor chain(*q.sources()[0]);
  // Overflow records carry the tuple at the reduce's input schema (dIP, c).
  chain.ingest(Tuple{{Value{std::uint64_t{7}}, Value{std::uint64_t{1}}}}, 1);
  chain.ingest(Tuple{{Value{std::uint64_t{7}}, Value{std::uint64_t{1}}}}, 1);
  chain.ingest(Tuple{{Value{std::uint64_t{8}}, Value{std::uint64_t{4}}}}, 2);  // polled
  auto out = chain.end_window();
  ASSERT_EQ(out.size(), 2u);
  std::map<std::uint64_t, std::uint64_t> m;
  for (const auto& t : out) m[t.at(0).as_uint()] = t.at(1).as_uint();
  EXPECT_EQ(m[7], 2u);
  EXPECT_EQ(m[8], 4u);
}

TEST(ChainExecutor, FilterInEntries) {
  auto q = QueryBuilder::packet_stream()
               .filter_in({query::Expr::ip_prefix(col("dIP"), 8)}, "tbl")
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .build("fi", 6);
  ASSERT_EQ(q.validate(), "");
  ChainExecutor chain(*q.sources()[0]);
  chain.ingest(tup(syn(1, ipv4(9, 0, 0, 1))), 0);
  EXPECT_TRUE(chain.end_window().empty());  // no entries installed

  EXPECT_TRUE(chain.set_filter_entries("tbl", {Tuple{{Value{std::uint64_t{ipv4(9, 0, 0, 0)}}}}}));
  chain.ingest(tup(syn(1, ipv4(9, 0, 0, 1))), 0);
  chain.ingest(tup(syn(1, ipv4(10, 0, 0, 1))), 0);
  EXPECT_EQ(chain.end_window().size(), 1u);
  EXPECT_FALSE(chain.set_filter_entries("other", {}));
}

TEST(QueryExecutor, JoinCombinesSubQueries) {
  queries::Thresholds th;
  th.slowloris_bytes = 50;
  th.slowloris_ratio = 1000;
  auto q = queries::make_slowloris(th, util::seconds(3));
  QueryExecutor exec(q);

  const auto victim = ipv4(50, 0, 0, 1);
  // 30 connections x 1 tiny packet each to the victim: high conns/byte.
  for (int cx = 0; cx < 30; ++cx) {
    exec.ingest_packet(net::Packet::tcp(0, ipv4(1, 1, 1, 1),
                                        victim, static_cast<std::uint16_t>(2000 + cx), 80,
                                        net::tcp_flags::kAck, 41));
  }
  // A normal host: 2 connections, lots of bytes.
  const auto normal = ipv4(60, 0, 0, 1);
  for (int i = 0; i < 30; ++i) {
    exec.ingest_packet(net::Packet::tcp(0, ipv4(2, 2, 2, 2), normal,
                                        static_cast<std::uint16_t>(3000 + (i % 2)), 80,
                                        net::tcp_flags::kAck, 1400));
  }
  const auto out = exec.end_window();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).as_uint(), victim);
}

// Build keys repeat on the right: every left row meets each matching right
// row, left rows in arrival order and, per key, right rows in arrival order.
TEST(QueryExecutor, JoinWithDuplicateBuildKeysKeepsArrivalOrder) {
  auto syns = QueryBuilder::packet_stream()
                  .filter(col("tcp.flags") == lit(std::uint64_t{net::tcp_flags::kSyn}))
                  .map({{"dIP", col("dIP")}, {"sIP", col("sIP")}});
  auto acks = QueryBuilder::packet_stream()
                  .filter(col("tcp.flags") == lit(std::uint64_t{net::tcp_flags::kAck}))
                  .map({{"dIP", col("dIP")}, {"sPort", col("sPort")}});
  auto q = std::move(syns).join({"dIP"}, std::move(acks)).build("dup_join", 1);
  ASSERT_EQ(q.validate(), "");
  QueryExecutor exec(q);
  const auto ack = [](std::uint32_t d, std::uint16_t sport) {
    return net::Packet::tcp(0, ipv4(9, 9, 9, 9), d, sport, 80, net::tcp_flags::kAck, 40);
  };
  const auto a = ipv4(10, 0, 0, 1);
  const auto b = ipv4(10, 0, 0, 2);
  exec.ingest_packet(ack(a, 1));
  exec.ingest_packet(ack(b, 2));
  exec.ingest_packet(ack(a, 3));
  exec.ingest_packet(ack(a, 4));
  exec.ingest_packet(syn(ipv4(1, 0, 0, 1), b));
  exec.ingest_packet(syn(ipv4(1, 0, 0, 2), a));
  exec.ingest_packet(syn(ipv4(1, 0, 0, 3), ipv4(10, 0, 0, 3)));  // no match
  exec.ingest_packet(syn(ipv4(1, 0, 0, 4), a));
  const auto out = exec.end_window();
  // (dIP, sIP, sPort): keys, left non-keys, right non-keys.
  const std::vector<std::vector<std::uint64_t>> want = {
      {b, ipv4(1, 0, 0, 1), 2},
      {a, ipv4(1, 0, 0, 2), 1}, {a, ipv4(1, 0, 0, 2), 3}, {a, ipv4(1, 0, 0, 2), 4},
      {a, ipv4(1, 0, 0, 4), 1}, {a, ipv4(1, 0, 0, 4), 3}, {a, ipv4(1, 0, 0, 4), 4},
  };
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i].size(), 3u) << i;
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(out[i].at(c).as_uint(), want[i][c]) << i;
  }
  // The reused build table starts empty next window.
  exec.ingest_packet(syn(ipv4(1, 0, 0, 5), a));
  EXPECT_TRUE(exec.end_window().empty());
}

TEST(QueryExecutor, ThreeWayJoin) {
  queries::Thresholds th;
  th.syn_flood = 10;
  auto q = queries::make_syn_flood(th, util::seconds(3));
  QueryExecutor exec(q);
  const auto victim = ipv4(70, 0, 0, 1);
  // 20 SYNs at the victim, 1 SYNACK back, no ACKs: imbalance.
  for (int i = 0; i < 20; ++i) exec.ingest_packet(syn(ipv4(1, 2, 3, std::uint32_t(i + 1)), victim));
  exec.ingest_packet(net::Packet::tcp(0, victim, ipv4(1, 2, 3, 1), 80, 1000,
                                      net::tcp_flags::kSyn | net::tcp_flags::kAck, 40));
  exec.ingest_packet(net::Packet::tcp(0, ipv4(1, 2, 3, 1), victim, 1000, 80,
                                      net::tcp_flags::kAck, 40));
  const auto out = exec.end_window();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).as_uint(), victim);
}

TEST(QueryExecutor, ZorroNeedsBothProbesAndKeyword) {
  queries::Thresholds th;
  th.zorro_probes = 5;
  th.zorro_keyword = 2;
  auto q = queries::make_zorro(th, util::seconds(3));
  const auto victim = ipv4(99, 7, 0, 25);

  auto probe = [&](std::uint32_t dst) {
    net::Packet p = net::Packet::tcp(0, ipv4(6, 6, 6, 6), dst, 4000, net::ports::kTelnet,
                                     net::tcp_flags::kPsh, 0);
    p.with_payload(std::string(64, 'A'));
    return p;
  };
  auto zorro_pkt = [&](std::uint32_t dst) {
    net::Packet p = net::Packet::tcp(0, ipv4(6, 6, 6, 6), dst, 4000, net::ports::kTelnet,
                                     net::tcp_flags::kPsh, 0);
    p.with_payload("sh zorro.sh");
    return p;
  };

  {
    QueryExecutor exec(q);
    for (int i = 0; i < 10; ++i) exec.ingest_packet(probe(victim));
    for (int i = 0; i < 3; ++i) exec.ingest_packet(zorro_pkt(victim));
    const auto out = exec.end_window();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].at(0).as_uint(), victim);
  }
  {
    // Keyword without enough same-size probes: no detection.
    QueryExecutor exec(q);
    for (int i = 0; i < 2; ++i) exec.ingest_packet(probe(victim));
    for (int i = 0; i < 3; ++i) exec.ingest_packet(zorro_pkt(victim));
    EXPECT_TRUE(exec.end_window().empty());
  }
  {
    // Probes without the keyword: no detection.
    QueryExecutor exec(q);
    for (int i = 0; i < 10; ++i) exec.ingest_packet(probe(victim));
    EXPECT_TRUE(exec.end_window().empty());
  }
}

TEST(QueryExecutor, WindowIsolation) {
  queries::Thresholds th;
  th.newly_opened = 3;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  QueryExecutor exec(q);
  // 2 SYNs in window 1, 2 SYNs in window 2: never crosses Th=3.
  for (int w = 0; w < 2; ++w) {
    exec.ingest_packet(syn(1, 42));
    exec.ingest_packet(syn(2, 42));
    EXPECT_TRUE(exec.end_window().empty());
  }
  // 4 SYNs in one window: detection.
  for (int i = 0; i < 4; ++i) exec.ingest_packet(syn(std::uint32_t(i + 1), 42));
  EXPECT_EQ(exec.end_window().size(), 1u);
}

TEST(QueryExecutor, DnsTunnelQuery) {
  queries::Thresholds th;
  th.dns_tunnel = 5;
  auto q = queries::make_dns_tunnel(th, util::seconds(3));
  QueryExecutor exec(q);
  const auto client = ipv4(44, 0, 0, 2);
  for (int i = 0; i < 8; ++i) {
    net::DnsMessage r;
    r.qname = "c" + std::to_string(i) + ".tun.evil.com";
    r.is_response = true;
    exec.ingest_packet(net::Packet::udp(0, ipv4(8, 8, 8, 8), client, net::ports::kDns, 5353, 0)
                           .with_dns(r));
  }
  // Repeated name: counted once by distinct.
  for (int i = 0; i < 5; ++i) {
    net::DnsMessage r;
    r.qname = "same.normal.com";
    r.is_response = true;
    exec.ingest_packet(net::Packet::udp(0, ipv4(8, 8, 8, 8), ipv4(44, 0, 0, 3),
                                        net::ports::kDns, 5353, 0)
                           .with_dns(r));
  }
  const auto out = exec.end_window();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).as_uint(), client);
}

}  // namespace
}  // namespace sonata::stream
