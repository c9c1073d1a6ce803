// Darknet-event CSV export. The on-disk event format is ODE2
// (store/ode2.hpp); this is the human-readable view of the same content.
#pragma once

#include <iosfwd>

#include "orion/telescope/capture.hpp"

namespace orion::telescope {

/// Human-readable CSV: one row per event with start/end timestamps (ns),
/// key, packets, unique destinations and per-tool packet counts.
void write_events_csv(const EventDataset& dataset, std::ostream& out);

}  // namespace orion::telescope
