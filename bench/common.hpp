// Shared world for the reproduction benches: the paper-scaled scenario,
// both longitudinal datasets, detections, and the intel substrates,
// built once per binary.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "orion/asdb/rdns.hpp"
#include "orion/detect/detector.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/flowsim/routing.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/intel/acked.hpp"
#include "orion/intel/greynoise.hpp"
#include "orion/report/table.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"

namespace orion::bench {

class World {
 public:
  /// The singleton paper-scaled world (expensive; built on first use).
  static const World& instance();

  const scangen::Scenario& scenario() const { return scenario_; }
  /// year = 2021 (Darknet-1) or 2022 (Darknet-2).
  const telescope::EventDataset& dataset(int year) const;
  const detect::DetectionResult& detection(int year) const;
  const scangen::Population& population(int year) const;
  asdb::ReverseDns& rdns() const { return rdns_; }
  const intel::AckedScannerList& acked() const { return acked_; }

  detect::DetectorConfig detector_config() const;
  /// Per-day non-scanning darknet noise across a detection's window.
  std::vector<std::uint64_t> noise_series(int year) const;

 private:
  World();

  scangen::Scenario scenario_;
  telescope::EventDataset d1_;
  telescope::EventDataset d2_;
  detect::DetectionResult r1_;
  detect::DetectionResult r2_;
  mutable asdb::ReverseDns rdns_;
  intel::AckedScannerList acked_;
};

/// Calibrated user-traffic models for the two monitored networks
/// (cache-heavy ISP border vs cache-free campus).
flowsim::UserTrafficConfig merit_user_config();
flowsim::UserTrafficConfig cu_user_config();

/// Border flow simulation over [start_day, end_day) using the Merit-like
/// footprint and peering policy.
flowsim::FlowDataset merit_flows(const World& world, int year,
                                 std::int64_t start_day, std::int64_t end_day);

/// The reference report of one cell: the scalar join over an index built
/// straight from the dataset's rows, independent of any FDE1 bytes.
impact::RouterDayReport reference_report(const flowsim::FlowDataset& flows,
                                         std::size_t router, std::int64_t day,
                                         const detect::IpSet& sources);

/// Prints the bench banner: what is being reproduced and the paper's
/// headline numbers for qualitative comparison.
void print_header(const std::string& title, const std::string& paper_summary);

/// Best, median and worst wall-clock seconds over repeated runs (best to
/// worst is the spread).
struct Timing {
  double best = 0;
  double median = 0;
  double worst = 0;
};

/// Runs `run` `reps` times (reps >= 1), timing each with steady_clock.
Timing time_reps(int reps, const std::function<void()>& run);

/// Day indices of the paper's flow windows.
inline std::int64_t flows1_start() { return net::day_index_of(2022, 1, 15); }
inline std::int64_t flows1_end() { return net::day_index_of(2022, 1, 22); }
inline std::int64_t flows2_day() { return net::day_index_of(2022, 10, 1); }
inline std::int64_t june2022_start() { return net::day_index_of(2022, 6, 1); }
inline std::int64_t june2022_end() { return net::day_index_of(2022, 7, 1); }

}  // namespace orion::bench
