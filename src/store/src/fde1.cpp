#include "orion/store/fde1.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "flow_layout.hpp"
#include "orion/netbase/crc32.hpp"

namespace orion::store {

namespace {

constexpr char kMagic[4] = {'F', 'D', 'E', '1'};

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

void validate_segments(std::int64_t start_day, std::int64_t end_day,
                       const std::vector<flowsim::RouterDay>& segments,
                       std::uint64_t& flow_count) {
  if (start_day > end_day) {
    throw std::invalid_argument("fde1 store: start_day > end_day");
  }
  if (static_cast<std::uint64_t>(end_day) - static_cast<std::uint64_t>(start_day) >
      detail::kMaxWindowDays) {
    throw std::invalid_argument("fde1 store: day window too wide");
  }
  if (segments.size() > detail::kMaxSegmentCount) {
    throw std::invalid_argument("fde1 store: too many segments");
  }
  flow_count = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const flowsim::RouterDay& seg = segments[s];
    if (seg.day < start_day || seg.day >= end_day) {
      throw std::invalid_argument("fde1 store: segment day outside window");
    }
    if (s > 0) {
      const flowsim::RouterDay& prev = segments[s - 1];
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
    if (flow_count > detail::kMaxFlowCount) {
      throw std::invalid_argument("fde1 store: too many flows");
    }
  }
}

/// Zone map + location of one block, accumulated while writing.
struct FlowBlockInfo {
  std::uint64_t offset = 0;
  std::uint32_t min_src = 0;
  std::uint32_t max_src = 0;
  std::uint32_t crc = 0;
};

/// Header and each block are assembled in memory and handed to `emit`
/// (a std::span<const std::uint8_t> sink) as one piece each, footer
/// CRC-sealed last (the same shape as write_events_ode2); returns the
/// bytes emitted.
template <typename Emit>
std::uint64_t emit_fde1(std::uint32_t sampling_rate, std::int64_t start_day,
                        std::int64_t end_day,
                        const std::vector<flowsim::RouterDay>& segments,
                        std::uint64_t block_flows, Emit&& emit) {
  if (block_flows == 0 || block_flows > detail::kMaxBlockFlows) {
    throw std::invalid_argument("fde1 store: bad block size");
  }
  std::uint64_t n = 0;
  validate_segments(start_day, end_day, segments, n);

  const std::uint64_t b = block_flows;
  const std::uint64_t block_count = n == 0 ? 0 : (n + b - 1) / b;
  const std::uint64_t footer_offset = detail::fde1_footer_offset(n, b);

  std::vector<std::uint8_t> header;
  header.reserve(kFde1HeaderBytes);
  header.insert(header.end(), kMagic, kMagic + 4);
  std::vector<std::uint8_t> fields;
  fields.reserve(32);
  detail::append<std::uint64_t>(fields, sampling_rate);
  detail::append<std::uint64_t>(fields, n);
  detail::append<std::uint64_t>(fields, b);
  detail::append<std::uint64_t>(fields, footer_offset);
  detail::append<std::uint32_t>(header, net::Crc32::of({fields.data(), 32}));
  header.insert(header.end(), fields.begin(), fields.end());
  emit(std::span<const std::uint8_t>(header));

  // Column blocks over the concatenated segment rows. Each block is sized
  // once (pad included); its rows can straddle segments, so each
  // segment's run of them is copied column by column straight into place.
  std::vector<FlowBlockInfo> infos;
  infos.reserve(static_cast<std::size_t>(block_count));
  std::vector<std::uint8_t> buf;
  std::size_t seg = 0;       // segment the next row comes from
  std::size_t seg_row = 0;   // row within that segment
  std::uint64_t offset = kFde1HeaderBytes;
  for (std::uint64_t k = 0; k < block_count; ++k) {
    const std::uint64_t rows = std::min(b, n - k * b);
    buf.assign(static_cast<std::size_t>(fde1_block_bytes(rows)), 0);
    const detail::FlowColumnLayout col(rows);
    FlowBlockInfo info;
    info.offset = offset;
    info.min_src = std::numeric_limits<std::uint32_t>::max();
    for (std::uint64_t row = 0; row < rows;) {
      while (seg_row >= segments[seg].rows.size()) {
        ++seg;
        seg_row = 0;
      }
      const flowsim::FlowBatch& from = segments[seg].rows;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(rows - row, from.size() - seg_row));
      const auto copy = [&](std::uint64_t column, const auto& values) {
        std::memcpy(buf.data() + column + row * sizeof(values[0]),
                    values.data() + seg_row, take * sizeof(values[0]));
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
      const auto* first = from.src_col().data() + seg_row;
      const auto [lo, hi] = std::minmax_element(first, first + take);
      info.min_src = std::min(info.min_src, *lo);
      info.max_src = std::max(info.max_src, *hi);
      row += take;
      seg_row += take;
    }
    info.crc = net::Crc32::of({buf.data(), buf.size()});
    infos.push_back(info);
    emit(std::span<const std::uint8_t>(buf));
    offset += buf.size();
  }

  // Footer: window + segment index + zone maps + block CRCs, CRC-sealed.
  std::vector<std::uint8_t> footer;
  detail::append<std::int64_t>(footer, start_day);
  detail::append<std::int64_t>(footer, end_day);
  detail::append<std::uint64_t>(footer, segments.size());
  detail::append<std::uint64_t>(footer, block_count);
  std::uint64_t row_begin = 0;
  for (const flowsim::RouterDay& s : segments) {
    detail::append<std::uint64_t>(footer, s.router);
    detail::append<std::int64_t>(footer, s.day);
    detail::append<std::uint64_t>(footer, row_begin);
    detail::append<std::uint64_t>(footer, s.total_packets);
    detail::append<std::uint64_t>(footer, s.user_packets);
    detail::append<std::uint64_t>(footer, s.scanner_packets);
    row_begin += s.rows.size();
  }
  for (const FlowBlockInfo& info : infos) {
    detail::append<std::uint64_t>(footer, info.offset);
    detail::append<std::uint32_t>(footer, info.min_src);
    detail::append<std::uint32_t>(footer, info.max_src);
  }
  for (const FlowBlockInfo& info : infos) {
    detail::append<std::uint32_t>(footer, info.crc);
  }
  detail::append<std::uint32_t>(footer,
                                net::Crc32::of({footer.data(), footer.size()}));
  emit(std::span<const std::uint8_t>(footer));
  return footer_offset + footer.size();
}

}  // namespace

std::uint64_t write_flows_fde1(std::uint32_t sampling_rate,
                               std::int64_t start_day, std::int64_t end_day,
                               const std::vector<flowsim::RouterDay>& cells,
                               net::io::File& out, std::uint64_t block_flows) {
  return emit_fde1(sampling_rate, start_day, end_day, cells, block_flows,
                   [&out](std::span<const std::uint8_t> bytes) {
                     out.write(bytes);
                   });
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
  std::vector<std::uint64_t> words;  // FileBytes' 8-aligned heap form
  const std::uint64_t size = emit_fde1(
      sampling_rate, start_day, end_day, cells, block_flows,
      [&words, at = std::size_t{0}](std::span<const std::uint8_t> bytes) mutable {
        words.resize((at + bytes.size() + 7) / 8);
        std::memcpy(reinterpret_cast<std::uint8_t*>(words.data()) + at,
                    bytes.data(), bytes.size());
        at += bytes.size();
      });
  return FileBytes::adopt(std::move(words), size);
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
  net::io::File out = net::io::File::create(path);
  const std::uint64_t bytes = write_flows_fde1(
      sampling_rate, start_day, end_day, cells, out, block_flows);
  out.sync();
  out.close();
  return bytes;
}

Fde1SalvageResult read_flows_fde1_salvage(const std::string& path) {
  Fde1SalvageResult result;
  const auto fail = [&result](const std::string& what) {
    result.error = "fde1 store: " + what;
  };
  std::string error;
  const FileBytes file = FileBytes::open(path, error);
  Fde1Header header;
  if (!error.empty() || !detail::parse_fde1_header(file.bytes(), header, error)) {
    fail(error);
    return result;
  }
  result.sampling_rate = header.sampling_rate;
  result.declared_count = header.flow_count;

  // A footer that parses makes the per-block CRCs usable and the segment
  // index (row ranges + totals) trustworthy.
  Fde1Footer footer;
  result.footer_intact =
      detail::parse_fde1_footer(file.bytes(), header, footer, error);
  if (result.footer_intact) {
    result.start_day = footer.start_day;
    result.end_day = footer.end_day;
    result.segments = std::move(footer.segments);
  }

  // Recover the prefix of complete, valid blocks (CRC-checked when the
  // footer survived; order-validated against the global archive order
  // when it did not — flow fields are total, so order is the structure).
  std::optional<RowOrderKey> last;
  std::uint64_t offset = kFde1HeaderBytes;
  for (std::uint64_t k = 0; k < header.block_count(); ++k) {
    const std::uint64_t block_bytes = fde1_block_bytes(header.block_rows(k));
    if (offset + block_bytes > file.size()) {
      fail("truncated block " + std::to_string(k));
      break;
    }
    const std::uint8_t* base = file.data() + offset;
    const FlowView view =
        detail::fde1_block_view(base, header.block_rows(k), result.rows.size());
    if (result.footer_intact) {
      if (net::Crc32::of({base, static_cast<std::size_t>(block_bytes)}) !=
          footer.blocks[static_cast<std::size_t>(k)].crc) {
        fail("block " + std::to_string(k) + " CRC mismatch");
        break;
      }
    } else {
      bool ordered = true;
      for (std::size_t i = 0; i < view.rows() && ordered; ++i) {
        const RowOrderKey key = key_of(view.record(i));
        ordered = !last || *last <= key;
        last = key;
      }
      if (!ordered) {
        fail("rows out of order in block " + std::to_string(k));
        break;
      }
    }
    result.rows.append_columns(view, 0, view.rows());
    offset += block_bytes;
  }
  result.complete = result.footer_intact && result.error.empty();
  if (!result.footer_intact && result.error.empty()) {
    fail("footer missing or corrupt");
  }
  result.recovered_count = result.rows.size();
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
  if (got >= 4 && std::memcmp(head, kMagic, 4) == 0) return "FDE1";
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
