// The full system on the simulator: the fixture the slow suites share.
// It only assembles core::Testbed and core::Scenario; a test drives
// `sim` and queries `sys`.
#pragma once

#include "core/scenario.hpp"

namespace p2pfl::core {

struct SimSystem {
  explicit SimSystem(const ScenarioSpec& s,
                     const SystemConfig& cfg = SystemConfig::sim_profile(),
                     const net::NetworkConfig& net_cfg = {})
      : spec(s),
        bed(TransportKind::kSim, spec, net_cfg),
        sim(*bed.sim()),
        net(bed.net()),
        scenario(spec, cfg, net),
        sys(scenario.sys()) {}

  ScenarioSpec spec;
  Testbed bed;
  sim::Simulator& sim;
  net::Network& net;
  Scenario scenario;
  P2pFlSystem& sys;
};

}  // namespace p2pfl::core
