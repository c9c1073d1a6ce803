#include "orion/store/ode2.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "layout.hpp"
#include "orion/store/mapped.hpp"

namespace orion::store {

namespace {

/// ODE2's side of the frame writer (detail::emit_frame): a dataset's rows,
/// their per-block (day, src) zone maps and the footer's day index.
struct Ode2Rows {
  const telescope::EventDataset& dataset;
  const std::vector<telescope::DarknetEvent>& events = dataset.events();

  std::uint64_t param() const { return dataset.darknet_size(); }

  std::uint64_t validate() const {
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i].start < events[i - 1].start) {
        throw std::invalid_argument(
            "ode2 store: events not in start order (day index needs it)");
      }
    }
    return events.size();
  }

  BlockMeta fill(std::uint64_t first, std::uint64_t m, std::uint8_t* block) const {
    const detail::ColumnLayout col(m);
    BlockMeta meta;
    meta.min_day = meta.max_day = events[first].day();
    meta.min_src = meta.max_src = events[first].key.src.value();
    for (std::uint64_t i = 0; i < m; ++i) {
      const telescope::DarknetEvent& e = events[first + i];
      detail::put<std::int64_t>(block, col.start, i, e.start.since_epoch().total_nanos());
      detail::put<std::int64_t>(block, col.end, i, e.end.since_epoch().total_nanos());
      detail::put<std::uint64_t>(block, col.packets, i, e.packets);
      detail::put<std::uint64_t>(block, col.dests, i, e.unique_dests);
      for (std::size_t t = 0; t < std::tuple_size_v<telescope::ToolPackets>; ++t) {
        detail::put<std::uint64_t>(block, col.tool[t], i, e.packets_by_tool[t]);
      }
      detail::put<std::uint32_t>(block, col.src, i, e.key.src.value());
      detail::put<std::uint16_t>(block, col.port, i, e.key.dst_port);
      detail::put<std::uint8_t>(block, col.type, i,
                                static_cast<std::uint8_t>(e.key.type));
      meta.min_day = std::min(meta.min_day, e.day());
      meta.max_day = std::max(meta.max_day, e.day());
      meta.min_src = std::min(meta.min_src, e.key.src.value());
      meta.max_src = std::max(meta.max_src, e.key.src.value());
    }
    return meta;
  }

  detail::FooterHead head() const {
    if (events.empty()) return {0, -1, 0};
    return {dataset.first_day(), dataset.last_day(),
            static_cast<std::uint64_t>(dataset.last_day() - dataset.first_day() + 1)};
  }

  /// day_start: the first row of each day of the window, then the count.
  void index(std::vector<std::uint8_t>& footer) const {
    const detail::FooterHead window = head();
    detail::append<std::uint64_t>(footer, 0);
    std::size_t cursor = 0;
    for (std::uint64_t d = 0; d < window.index_count; ++d) {
      while (cursor < events.size() &&
             events[cursor].day() <= window.day_a + static_cast<std::int64_t>(d)) {
        ++cursor;
      }
      detail::append<std::uint64_t>(footer, cursor);
    }
  }

  static void zone(std::vector<std::uint8_t>& footer, const BlockMeta& meta) {
    detail::append<std::int64_t>(footer, meta.min_day);
    detail::append<std::int64_t>(footer, meta.max_day);
    detail::append<std::uint32_t>(footer, meta.min_src);
    detail::append<std::uint32_t>(footer, meta.max_src);
  }
};

}  // namespace

std::uint64_t write_events_ode2(const telescope::EventDataset& dataset,
                                net::io::File& out,
                                std::uint64_t block_events) {
  Ode2Rows rows{dataset};
  return detail::emit_frame(detail::kOde2, rows, block_events,
                            detail::file_sink(out));
}

std::uint64_t write_events_ode2_file(const telescope::EventDataset& dataset,
                                     const std::string& path,
                                     std::uint64_t block_events) {
  return detail::write_file(path, [&](net::io::File& out) {
    return write_events_ode2(dataset, out, block_events);
  });
}

Ode2SalvageResult read_events_ode2_salvage(const std::string& path) {
  Ode2SalvageResult result;
  Ode2Footer footer;
  std::vector<telescope::DarknetEvent> events;
  const detail::FrameHeader header = detail::salvage(
      detail::kOde2, path, footer, detail::parse_ode2_footer,
      detail::ode2_block_view, "bad traffic type",
      [](const BlockView& view) {
        return std::none_of(view.type.begin(), view.type.end(), [](std::uint8_t t) {
          return t > static_cast<std::uint8_t>(pkt::TrafficType::Other);
        });
      },
      [&events](const BlockView& view) {
        for (std::size_t i = 0; i < view.rows(); ++i) events.push_back(view.event(i));
      },
      result);
  result.dataset = telescope::EventDataset(std::move(events), header.param);
  return result;
}

}  // namespace orion::store
