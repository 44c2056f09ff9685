// A deployment has at most kMaxSwitches switches: WindowStats::
// contribution_mask holds one bit per switch, so a lost or quarantined
// switch 64 or above would otherwise leave a partial window reported as
// complete. Every entry point that sets the switch count refuses more.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unistd.h>

#include "net/transport/transport.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "run_config.h"
#include "runtime/distributed.h"
#include "runtime/engine.h"
#include "runtime/fleet.h"
#include "runtime/limits.h"
#include "test_trace.h"

namespace sonata::runtime {
namespace {

namespace nt = net::transport;

constexpr std::size_t kTooMany = kMaxSwitches + 1;

const testing::Scenario& scenario() {
  static const testing::Scenario sc = testing::make_scenario(5, 60.0);
  return sc;
}

const planner::Plan& small_plan() {
  static const std::vector<query::Query> qs = {
      queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3))};
  static const planner::Plan plan = planner::Planner(planner::PlannerConfig{}).plan(qs, scenario().trace);
  return plan;
}

TEST(TopologyLimit, SwitchCountErrorNamesTheLimit) {
  EXPECT_EQ(switch_count_error(1), "");
  EXPECT_EQ(switch_count_error(kMaxSwitches), "");
  const std::string err = switch_count_error(kTooMany);
  EXPECT_NE(err.find("65"), std::string::npos);
  EXPECT_NE(err.find("64"), std::string::npos);
}

TEST(TopologyLimit, EngineBuilderReturnsTopologyDiagnostic) {
  auto built = EngineBuilder()
                   .topology(kTooMany, 2)
                   .training(scenario().trace)
                   .admit(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)))
                   .build();
  ASSERT_FALSE(built);
  const planner::AdmissionDiagnostic& d = built.error();
  EXPECT_EQ(d.code, planner::AdmissionDiagnostic::Code::kTopology);
  EXPECT_EQ(d.constraint, "switches");
  EXPECT_EQ(d.budget, kMaxSwitches);
  EXPECT_EQ(d.required, kTooMany);
  EXPECT_NE(d.to_string().find("topology"), std::string::npos);

  auto ok = EngineBuilder()
                .topology(kMaxSwitches, 2)
                .training(scenario().trace)
                .admit(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)))
                .build();
  EXPECT_TRUE(ok);
}

TEST(TopologyLimit, FleetConstructorRefuses) {
  EXPECT_THROW(Fleet(small_plan(), kTooMany), std::invalid_argument);
  Fleet fleet(small_plan(), kMaxSwitches);
  EXPECT_EQ(fleet.data_plane_count(), kMaxSwitches);
}

TEST(TopologyLimit, CollectorRefusesConfig) {
  const auto spec = nt::parse_endpoint("shm:/tmp/sonata_topology." + std::to_string(::getpid()));
  ASSERT_TRUE(spec.has_value());
  auto ep = nt::make_collector_endpoint(*spec, 1);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  DistributedConfig cfg;
  cfg.switches = kTooMany;
  Collector collector(small_plan(), cfg, std::move(*ep));
  EXPECT_EQ(collector.listen(), switch_count_error(kTooMany));
  EXPECT_EQ(collector.run([](const WindowStats&) {}), switch_count_error(kTooMany));
}

TEST(TopologyLimit, SwitchNodeRefusesConfig) {
  const auto spec = nt::parse_endpoint("shm:/tmp/sonata_topology_node." + std::to_string(::getpid()));
  ASSERT_TRUE(spec.has_value());
  auto transport = nt::make_switch_transport(*spec, 0);
  ASSERT_TRUE(transport.has_value()) << transport.error();
  DistributedConfig cfg;
  cfg.switches = kTooMany;
  SwitchNode node(small_plan(), cfg, std::move(*transport));
  EXPECT_EQ(node.run(scenario().trace), switch_count_error(kTooMany));
}

TEST(TopologyLimit, SonataRunRejectsSwitchesFlag) {
  const char* bad[] = {"sonata_run", "--queries", "q.sonata", "--synthetic", "3",
                       "--switches", "65"};
  const auto rejected = tools::parse_run_config(7, bad);
  ASSERT_FALSE(rejected);
  EXPECT_NE(rejected.error().find("--switches"), std::string::npos);
  EXPECT_NE(rejected.error().find("64"), std::string::npos);

  const char* good[] = {"sonata_run", "--queries", "q.sonata", "--synthetic", "3",
                        "--switches", "64"};
  const auto accepted = tools::parse_run_config(7, good);
  ASSERT_TRUE(accepted) << accepted.error();
  EXPECT_EQ(accepted->switches, 64u);
}

}  // namespace
}  // namespace sonata::runtime
