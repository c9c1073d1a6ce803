#include "orion/store/fde1.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "flow_layout.hpp"

namespace orion::store {

namespace {

/// The global archive order every row must respect: segments strictly
/// increase in (router, day), rows within a segment keep the
/// (src, dst_port, traffic type) order of flowsim::canonical_rows. This is both
/// the write-side contract and the structure footerless salvage verifies.
struct RowOrderKey {
  std::uint16_t router = 0;
  std::int64_t day = 0;
  std::uint32_t src = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t type = 0;

  friend auto operator<=>(const RowOrderKey&, const RowOrderKey&) = default;
};

RowOrderKey key_of(const flowsim::FlowRecord& r) {
  return RowOrderKey{r.router, detail::flow_day_of(r.ts_ns), r.src.value(),
                     r.dst_port,
                     static_cast<std::uint8_t>(flowsim::traffic_type_of(r.proto))};
}

/// FDE1's side of the frame writer (detail::emit_frame): the cells' rows
/// copied column by column into blocks they may straddle, per-block src
/// zone maps and the footer's segment index.
struct Fde1Rows {
  std::uint32_t sampling_rate;
  std::int64_t start_day;
  std::int64_t end_day;
  const std::vector<flowsim::RouterDay>& cells;
  std::size_t cell = 0;      // cell the next row comes from
  std::size_t cell_row = 0;  // row within that cell

  std::uint64_t param() const { return sampling_rate; }

  std::uint64_t validate() const {
    if (start_day > end_day) {
      throw std::invalid_argument("fde1 store: start_day > end_day");
    }
    if (static_cast<std::uint64_t>(end_day) - static_cast<std::uint64_t>(start_day) >
        detail::kMaxWindowDays) {
      throw std::invalid_argument("fde1 store: day window too wide");
    }
    if (cells.size() > detail::kMaxSegmentCount) {
      throw std::invalid_argument("fde1 store: too many segments");
    }
    std::uint64_t flow_count = 0;
    for (std::size_t s = 0; s < cells.size(); ++s) {
      const flowsim::RouterDay& seg = cells[s];
      if (seg.day < start_day || seg.day >= end_day) {
        throw std::invalid_argument("fde1 store: segment day outside window");
      }
      if (s > 0) {
        const flowsim::RouterDay& prev = cells[s - 1];
        if (std::tie(prev.router, prev.day) >= std::tie(seg.router, seg.day)) {
          throw std::invalid_argument(
              "fde1 store: segments not in (router, day) order");
        }
      }
      std::optional<RowOrderKey> last;
      for (std::size_t i = 0; i < seg.rows.size(); ++i) {
        const RowOrderKey key = key_of(seg.rows.record_at(i));
        if (key.router != seg.router || key.day != seg.day) {
          throw std::invalid_argument(
              "fde1 store: row outside its segment's (router, day)");
        }
        if (last && key < *last) {
          throw std::invalid_argument(
              "fde1 store: rows out of (src, dst_port, type) order");
        }
        last = key;
      }
      flow_count += seg.rows.size();
    }
    return flow_count;
  }

  FlowBlockMeta fill(std::uint64_t, std::uint64_t rows, std::uint8_t* block) {
    const detail::FlowColumnLayout col(rows);
    FlowBlockMeta meta;
    meta.min_src = std::numeric_limits<std::uint32_t>::max();
    for (std::uint64_t row = 0; row < rows;) {
      while (cell_row >= cells[cell].rows.size()) {
        ++cell;
        cell_row = 0;
      }
      const flowsim::FlowBatch& from = cells[cell].rows;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(rows - row, from.size() - cell_row));
      const auto copy = [&](std::uint64_t column, const auto& values) {
        std::memcpy(block + column + row * sizeof(values[0]),
                    values.data() + cell_row, take * sizeof(values[0]));
      };
      copy(col.ts, from.ts_ns_col());
      copy(col.packets, from.packets_col());
      copy(col.bytes, from.bytes_col());
      copy(col.src, from.src_col());
      copy(col.dst, from.dst_col());
      copy(col.src_port, from.src_port_col());
      copy(col.dst_port, from.dst_port_col());
      copy(col.router, from.router_col());
      copy(col.proto, from.proto_col());
      const auto* first = from.src_col().data() + cell_row;
      const auto [lo, hi] = std::minmax_element(first, first + take);
      meta.min_src = std::min(meta.min_src, *lo);
      meta.max_src = std::max(meta.max_src, *hi);
      row += take;
      cell_row += take;
    }
    return meta;
  }

  detail::FooterHead head() const { return {start_day, end_day, cells.size()}; }

  /// One segment per cell; its row_begin is the rows of the cells before.
  void index(std::vector<std::uint8_t>& footer) const {
    std::uint64_t row_begin = 0;
    for (const flowsim::RouterDay& c : cells) {
      detail::append<std::uint64_t>(footer, c.router);
      detail::append<std::int64_t>(footer, c.day);
      detail::append<std::uint64_t>(footer, row_begin);
      detail::append<std::uint64_t>(footer, c.total_packets);
      detail::append<std::uint64_t>(footer, c.user_packets);
      detail::append<std::uint64_t>(footer, c.scanner_packets);
      row_begin += c.rows.size();
    }
  }

  static void zone(std::vector<std::uint8_t>& footer, const FlowBlockMeta& meta) {
    detail::append<std::uint32_t>(footer, meta.min_src);
    detail::append<std::uint32_t>(footer, meta.max_src);
  }
};

}  // namespace

std::uint64_t write_flows_fde1(std::uint32_t sampling_rate,
                               std::int64_t start_day, std::int64_t end_day,
                               const std::vector<flowsim::RouterDay>& cells,
                               net::io::File& out, std::uint64_t block_flows) {
  Fde1Rows rows{sampling_rate, start_day, end_day, cells};
  return detail::emit_frame(detail::kFde1, rows, block_flows,
                            detail::file_sink(out));
}

std::uint64_t write_flows_fde1(const flowsim::FlowDataset& flows,
                               net::io::File& out, std::uint64_t block_flows) {
  return write_flows_fde1(flows.sampling_rate(), flows.start_day(),
                          flows.end_day(), flows.cells(), out, block_flows);
}

FileBytes fde1_image(std::uint32_t sampling_rate, std::int64_t start_day,
                     std::int64_t end_day,
                     const std::vector<flowsim::RouterDay>& cells,
                     std::uint64_t block_flows) {
  return detail::build_image([&](auto sink) {
    Fde1Rows rows{sampling_rate, start_day, end_day, cells};
    return detail::emit_frame(detail::kFde1, rows, block_flows, sink);
  });
}

FileBytes fde1_image(const flowsim::FlowDataset& flows,
                     std::uint64_t block_flows) {
  return fde1_image(flows.sampling_rate(), flows.start_day(), flows.end_day(),
                    flows.cells(), block_flows);
}

std::uint64_t write_flows_fde1_file(const flowsim::FlowDataset& flows,
                                    const std::string& path,
                                    std::uint64_t block_flows) {
  return write_flows_fde1_file(flows.sampling_rate(), flows.start_day(),
                               flows.end_day(), flows.cells(), path,
                               block_flows);
}

std::uint64_t write_flows_fde1_file(std::uint32_t sampling_rate,
                                    std::int64_t start_day,
                                    std::int64_t end_day,
                                    const std::vector<flowsim::RouterDay>& cells,
                                    const std::string& path,
                                    std::uint64_t block_flows) {
  return detail::write_file(path, [&](net::io::File& out) {
    return write_flows_fde1(sampling_rate, start_day, end_day, cells, out,
                            block_flows);
  });
}

Fde1SalvageResult read_flows_fde1_salvage(const std::string& path) {
  Fde1SalvageResult result;
  Fde1Footer footer;
  // Without the footer, blocks are checked against the global archive
  // order (flow fields are total, so order is the structure).
  std::optional<RowOrderKey> last;
  const detail::FrameHeader header = detail::salvage(
      detail::kFde1, path, footer, detail::parse_fde1_footer,
      detail::fde1_block_view, "rows out of order",
      [&last](const FlowView& view) {
        bool ordered = true;
        for (std::size_t i = 0; i < view.rows() && ordered; ++i) {
          const RowOrderKey key = key_of(view.record(i));
          ordered = !last || *last <= key;
          last = key;
        }
        return ordered;
      },
      [&result](const FlowView& view) {
        result.rows.append_columns(view, 0, view.rows());
      },
      result);
  result.sampling_rate = static_cast<std::uint32_t>(header.param);
  // The segment index (row ranges + totals) is trustworthy only when the
  // footer parsed.
  if (result.footer_intact) {
    result.start_day = footer.start_day;
    result.end_day = footer.end_day;
    result.segments = std::move(footer.segments);
  }
  return result;
}

std::string sniff_flow_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("flow store: cannot open " + path);
  }
  char head[64] = {};
  in.read(head, sizeof(head));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got >= 4 && std::memcmp(head, detail::kFde1.magic, 4) == 0) return "FDE1";
  // NetFlow v5 export packets start with the big-endian version field.
  if (got >= 2 && head[0] == 0 && head[1] == 5) return "NFV5";
  // CSV: printable text (the header line) all the way through the probe.
  bool text = got > 0;
  for (std::size_t i = 0; i < got; ++i) {
    const auto c = static_cast<unsigned char>(head[i]);
    if (c != '\t' && c != '\n' && c != '\r' && (c < 0x20 || c > 0x7E)) {
      text = false;
      break;
    }
  }
  if (text) return "CSV";
  return "?";
}

}  // namespace orion::store
