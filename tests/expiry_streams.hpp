// Packet feeds shared by the aggregator expiry tests: telescope_test's
// pinned references and gap-split model, and hotpath_test's chunking and
// tier equivalence suite.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "orion/packet/fingerprint.hpp"
#include "orion/packet/packet.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/aggregator.hpp"

namespace orion::test_streams {

inline const scangen::Scenario& scenario() {
  static const scangen::Scenario s{scangen::tiny()};
  return s;
}

/// Multi-day scangen stream: realistic tool mix, day rollovers inside.
inline std::vector<pkt::Packet> scangen_stream(std::int64_t days) {
  scangen::PacketStreamGenerator generator(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(days),
      {.seed = 17, .exact_targets = true, .stable_streams = true});
  std::vector<pkt::Packet> packets;
  while (auto p = generator.next()) packets.push_back(*p);
  return packets;
}

inline net::PrefixSet small_dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/24")});
}

/// Aggressive expiry settings so sweeps fire constantly and events churn.
inline telescope::AggregatorConfig sweep_heavy_config() {
  telescope::AggregatorConfig config;
  config.timeout = net::Duration::minutes(10);
  config.sweep_interval = net::Duration::minutes(1);
  return config;
}

/// Synthetic stream built for expiry storms: waves of sources hammer the
/// /24, then all go idle past the timeout together, so one sweep expires
/// a whole cohort at once — the case where the emission order of the
/// expiry wheel is most exposed.
inline std::vector<pkt::Packet> expiry_storm_stream() {
  std::vector<pkt::Packet> out;
  std::int64_t t = 0;
  std::mt19937 rng(7);
  for (int wave = 0; wave < 12; ++wave) {
    // Burst: 48 sources, a handful of packets each, seconds apart.
    for (int step = 0; step < 240; ++step) {
      pkt::Packet p;
      p.timestamp = net::SimTime::epoch() + net::Duration::seconds(t++);
      p.tuple.src = net::Ipv4Address(0xCB007100u + rng() % 48);
      p.tuple.dst = net::Ipv4Address(0xC6120000u + rng() % 256);
      p.tuple.src_port = static_cast<std::uint16_t>(1024 + rng() % 60000);
      p.tuple.dst_port = static_cast<std::uint16_t>(rng() % 3 ? 23 : 2323);
      p.tuple.proto = net::IpProto::Tcp;
      p.tcp_flags = pkt::TcpFlags::kSyn;
      pkt::apply_fingerprint(
          p, static_cast<pkt::ScanTool>(rng() % 4));
      out.push_back(p);
    }
    // Silence well past the timeout, so the next packet's sweep expires
    // every event of the wave at once.
    t += 25 * 60;
  }
  return out;
}

}  // namespace orion::test_streams
