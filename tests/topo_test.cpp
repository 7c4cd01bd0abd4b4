// Tests for the rack topology model.
#include <gtest/gtest.h>

#include "src/topo/topology.h"

namespace lemur::topo {
namespace {

TEST(Topology, PaperTestbedDefaults) {
  const auto t = Topology::lemur_testbed();
  EXPECT_EQ(t.tor.stages, 12);
  EXPECT_EQ(t.tor.ports, 32);
  EXPECT_DOUBLE_EQ(t.tor.port_gbps, 100.0);
  ASSERT_EQ(t.servers.size(), 1u);
  EXPECT_EQ(t.servers[0].total_cores(), 16);  // Dual-socket 8-core.
  EXPECT_DOUBLE_EQ(t.servers[0].clock_ghz, 1.7);
  ASSERT_EQ(t.servers[0].nics.size(), 1u);
  EXPECT_DOUBLE_EQ(t.servers[0].nics[0].capacity_gbps, 40.0);
  EXPECT_TRUE(t.smartnics.empty());
  EXPECT_FALSE(t.openflow.has_value());
}

TEST(Topology, VariantsAttachHardware) {
  EXPECT_EQ(Topology::lemur_testbed_with_smartnic().smartnics.size(), 1u);
  EXPECT_TRUE(Topology::lemur_testbed_with_openflow().openflow.has_value());
  const auto nic = Topology::lemur_testbed_with_smartnic().smartnics[0];
  EXPECT_DOUBLE_EQ(nic.speedup_vs_core, 10.0);  // Paper: >10x for ChaCha.
}

TEST(Topology, MultiServerShape) {
  const auto t = Topology::multi_server(3, 8);
  ASSERT_EQ(t.servers.size(), 3u);
  EXPECT_EQ(t.total_cores(), 24);
  for (const auto& s : t.servers) {
    EXPECT_EQ(s.sockets, 1);
    EXPECT_EQ(s.cores_per_socket, 8);
  }
  EXPECT_NE(t.servers[0].name, t.servers[1].name);
}

TEST(Topology, PpsPerCore) {
  ServerSpec s;
  EXPECT_NEAR(s.pps_per_core(8500), 1.7e9 / 8500, 1.0);
  EXPECT_DOUBLE_EQ(s.pps_per_core(0), 0.0);
}

TEST(Topology, PlatformNames) {
  EXPECT_STREQ(to_string(PlatformKind::kPisa), "P4");
  EXPECT_STREQ(to_string(PlatformKind::kServer), "BESS");
  EXPECT_STREQ(to_string(PlatformKind::kSmartNic), "SmartNIC");
  EXPECT_STREQ(to_string(PlatformKind::kOpenFlow), "OpenFlow");
}

}  // namespace
}  // namespace lemur::topo
