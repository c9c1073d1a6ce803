#include "orion/detect/detector.hpp"

#include <stdexcept>

#include "detector_core.hpp"

namespace orion::detect {

namespace {

double mean_size(const std::vector<std::vector<net::Ipv4Address>>& per_day) {
  if (per_day.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const auto& day : per_day) total += day.size();
  return static_cast<double>(total) / static_cast<double>(per_day.size());
}

/// Adapts EventDataset to detector_core's Source interface.
struct DatasetSource {
  const telescope::EventDataset& dataset;

  std::uint64_t darknet_size() const { return dataset.darknet_size(); }
  std::uint64_t event_count() const { return dataset.event_count(); }
  std::int64_t first_day() const { return dataset.first_day(); }
  std::int64_t last_day() const { return dataset.last_day(); }
  template <typename Fn>
  void for_each_event(Fn&& fn) const {
    for (const telescope::DarknetEvent& e : dataset.events()) fn(e);
  }
};

}  // namespace

double DefinitionResult::mean_daily_count() const { return mean_size(daily); }
double DefinitionResult::mean_active_count() const { return mean_size(active); }

void validate(const DetectorConfig& config) {
  // Each test is written so that NaN fails it.
  if (!(config.dispersion_threshold > 0 && config.dispersion_threshold <= 1)) {
    throw std::invalid_argument("DetectorConfig: dispersion threshold in (0,1]");
  }
  const auto in_unit = [](double alpha) { return alpha > 0 && alpha < 1; };
  if (!in_unit(config.packet_volume_alpha) || !in_unit(config.port_count_alpha)) {
    throw std::invalid_argument("DetectorConfig: alphas must be in (0,1)");
  }
}

AggressiveScannerDetector::AggressiveScannerDetector(DetectorConfig config)
    : config_(config) {
  validate(config_);
}

DetectionResult AggressiveScannerDetector::detect(
    const telescope::EventDataset& dataset) const {
  return detail::detect_core(config_, DatasetSource{dataset});
}

}  // namespace orion::detect
