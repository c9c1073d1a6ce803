// The frame ODE2 and FDE1 share, written once (DESIGN.md §10.1–10.2): a
// 40-byte CRC'd header, 8-padded column blocks, and a CRC-sealed footer of
// window, index, block metadata and block CRCs. A Schema names what tells
// the formats apart; each keeps its column layout, footer index, zone map,
// writer row validation and footerless salvage check (layout.hpp,
// flow_layout.hpp). Not installed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "orion/netbase/crc32.hpp"
#include "orion/netbase/io.hpp"
#include "orion/store/file_bytes.hpp"

namespace orion::store::detail {

// The zero-copy contract: column bytes are reinterpreted as host
// integers, so the on-disk little-endian layout must be the host layout.
// (The portable fallback in file_bytes.cpp covers hosts without mmap, not
// big-endian hosts — those would need a byte-swapping decode pass.)
static_assert(std::endian::native == std::endian::little,
              "ODE2/FDE1 zero-copy reads require a little-endian host");

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::int64_t get_i64(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

template <typename T>
void append(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Stores `v` as row `row` of the column of `T`s that starts at byte
/// `column` of `block`: the in-place form of append's native-endian copy.
template <typename T>
void put(std::uint8_t* block, std::uint64_t column, std::uint64_t row, T v) {
  std::memcpy(block + column + row * sizeof(T), &v, sizeof(T));
}

/// What tells one column format from the other inside the frame.
struct Schema {
  char magic[4];
  /// Bytes of a block of `rows` rows, pad included: the format's row
  /// width (ode2_block_bytes, fde1_block_bytes).
  std::uint64_t (*block_bytes)(std::uint64_t rows);
  std::uint64_t meta_bytes;  // one block's footer metadata, offset included
  const char* noun;          // what a row is, in "absurd <noun> count"
  const char* prefix;        // opens every error: "ode2 store"
};

constexpr std::uint64_t kHeaderBytes = 40;
constexpr std::uint64_t kMaxRows = std::uint64_t{1} << 27;  // ~9 GB of ODE2 rows
constexpr std::uint64_t kMaxBlockRows = std::uint64_t{1} << 24;

/// Where the footer of `n` rows cut into blocks of `b` starts.
inline std::uint64_t footer_offset(const Schema& schema, std::uint64_t n,
                                   std::uint64_t b) {
  return kHeaderBytes + n / b * schema.block_bytes(b) +
         (n % b ? schema.block_bytes(n % b) : 0);
}

/// Sets `error` and returns false: the parse functions' failure exit.
inline bool reject(std::string& error, const std::string& why) {
  error = why;
  return false;
}

/// Throws std::runtime_error("<prefix>: <what>").
[[noreturn]] inline void fail(const Schema& schema, const std::string& what) {
  throw std::runtime_error(std::string(schema.prefix) + ": " + what);
}

/// Maps or reads `path` for a strict open; fail()s when it cannot.
inline FileBytes open_or_fail(const Schema& schema, const std::string& path) {
  std::string error;
  FileBytes file = FileBytes::open(path, error);
  if (!error.empty()) fail(schema, error);
  return file;
}

/// Checks the magic, header CRC, counts and geometry into `h`. Returns
/// false with the reason in `error` (unprefixed; the strict open throws
/// it, salvage reports it) instead of throwing.
inline bool parse_header(const Schema& schema, std::span<const std::uint8_t> file,
                         FrameHeader& h, std::string& error) {
  if (file.size() < kHeaderBytes) return reject(error, "truncated header");
  const std::uint8_t* p = file.data();
  if (std::memcmp(p, schema.magic, 4) != 0) {
    return reject(error, "bad magic (not an " + std::string(schema.magic, 4) +
                             " file)");
  }
  if (net::Crc32::of({p + 8, 32}) != get_u32(p + 4)) {
    return reject(error, "header CRC mismatch");
  }
  h.param = get_u64(p + 8);
  h.row_count = get_u64(p + 16);
  h.block_size = get_u64(p + 24);
  h.footer_offset = get_u64(p + 32);
  if (h.row_count > kMaxRows) {
    return reject(error, "absurd " + std::string(schema.noun) + " count");
  }
  if (h.block_size == 0 || h.block_size > kMaxBlockRows) {
    return reject(error, "absurd block size");
  }
  if (h.footer_offset != footer_offset(schema, h.row_count, h.block_size)) {
    return reject(error, "header geometry mismatch");
  }
  return true;
}

/// The three words every footer opens with; its index follows the block
/// count, 32 bytes in.
struct FooterHead {
  std::int64_t day_a = 0;  // ODE2 first_day, FDE1 start_day
  std::int64_t day_b = 0;  // ODE2 last_day, FDE1 end_day
  std::uint64_t index_count = 0;  // ODE2 day count, FDE1 segment count
};

/// Reads the footer's leading words once the file holds them plus
/// `min_index_bytes` and the CRC ("truncated footer" otherwise), and
/// checks their block count against the header ("corrupt block count").
inline bool read_footer_head(std::span<const std::uint8_t> file,
                             const FrameHeader& h, std::uint64_t min_index_bytes,
                             FooterHead& head, std::string& error) {
  if (h.footer_offset + 32 + min_index_bytes + 4 > file.size()) {
    return reject(error, "truncated footer");
  }
  const std::uint8_t* f = file.data() + h.footer_offset;
  head = {get_i64(f), get_i64(f + 8), get_u64(f + 16)};
  if (get_u64(f + 24) != h.block_count()) {
    return reject(error, "corrupt block count");
  }
  return true;
}

/// Checks that a footer whose index takes `index_bytes` ends the file
/// exactly ("truncated footer") and that its CRC holds ("footer CRC
/// mismatch"). Call it only once the format has bounded its index count.
inline bool seal_footer(const Schema& schema, std::span<const std::uint8_t> file,
                        const FrameHeader& h, std::uint64_t index_bytes,
                        std::string& error) {
  const std::uint64_t footer_bytes =
      32 + index_bytes + (schema.meta_bytes + 4) * h.block_count() + 4;
  if (h.footer_offset + footer_bytes != file.size()) {
    return reject(error, "truncated footer");
  }
  if (net::Crc32::of({file.data() + h.footer_offset,
                      static_cast<std::size_t>(footer_bytes - 4)}) !=
      get_u32(file.data() + file.size() - 4)) {
    return reject(error, "footer CRC mismatch");
  }
  return true;
}

/// Reads the block metadata at `cursor` into `blocks`, then the block
/// CRCs after it. Each meta's offset must continue the block chain and
/// zone(zone_bytes, meta) must read a consistent zone map, else
/// "corrupt block metadata".
template <typename Meta, typename Zone>
bool read_block_metas(const Schema& schema, const FrameHeader& header,
                      const std::uint8_t* cursor, std::vector<Meta>& blocks,
                      Zone&& zone, std::string& error) {
  blocks.resize(static_cast<std::size_t>(header.block_count()));
  std::uint64_t offset = kHeaderBytes;
  for (std::size_t k = 0; k < blocks.size(); ++k, cursor += schema.meta_bytes) {
    Meta& meta = blocks[k];
    meta.offset = get_u64(cursor);
    if (!zone(cursor + 8, meta) || meta.offset != offset) {
      return reject(error, "corrupt block metadata");
    }
    offset += schema.block_bytes(header.block_rows(k));
  }
  for (Meta& meta : blocks) {
    meta.crc = get_u32(cursor);
    cursor += 4;
  }
  return true;
}

/// True when the `rows`-row block at `base` still has CRC `crc`.
inline bool block_crc_ok(const Schema& schema, const std::uint8_t* base,
                         std::uint64_t rows, std::uint32_t crc) {
  return net::Crc32::of({base, static_cast<std::size_t>(schema.block_bytes(rows))}) ==
         crc;
}

/// CRC-checks every block payload; returns blocks.size() when clean, else
/// the index of the first corrupt block.
template <typename Meta>
std::size_t verify_blocks(const Schema& schema, const FileBytes& file,
                          const FrameHeader& header,
                          const std::vector<Meta>& blocks) {
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (!block_crc_ok(schema, file.data() + blocks[k].offset,
                      header.block_rows(k), blocks[k].crc)) {
      return k;
    }
  }
  return blocks.size();
}

/// The salvage read both formats share. Opens `path` and parses its
/// header, then its footer with the format's parse_footer, and takes the
/// prefix of complete, valid blocks: checked against their CRCs when the
/// footer parsed, else by intact(view), a failure of which reads
/// "<damage> in block k". take(view) receives each block taken. Returns
/// the header, or an empty one when it did not parse.
template <typename Footer, typename View, typename Intact, typename Take>
FrameHeader salvage(const Schema& schema, const std::string& path, Footer& footer,
                    bool (*parse_footer)(std::span<const std::uint8_t>,
                                         const FrameHeader&, Footer&, std::string&),
                    View (*view_of)(const std::uint8_t*, std::uint64_t, std::size_t),
                    const char* damage, Intact&& intact, Take&& take,
                    SalvageStatus& status) {
  const auto fail = [&](const std::string& what) {
    status.error = std::string(schema.prefix) + ": " + what;
  };
  std::string error;
  const FileBytes file = FileBytes::open(path, error);
  FrameHeader header;
  if (!error.empty() || !parse_header(schema, file.bytes(), header, error)) {
    fail(error);
    return {};
  }
  status.declared_count = header.row_count;
  status.footer_intact = parse_footer(file.bytes(), header, footer, error);
  std::uint64_t offset = kHeaderBytes;
  for (std::uint64_t k = 0; k < header.block_count(); ++k) {
    const std::uint64_t rows = header.block_rows(k);
    const std::uint64_t bytes = schema.block_bytes(rows);
    if (offset + bytes > file.size()) {
      fail("truncated block " + std::to_string(k));
      break;
    }
    const std::uint8_t* base = file.data() + offset;
    const View view =
        view_of(base, rows, static_cast<std::size_t>(status.recovered_count));
    if (status.footer_intact) {
      if (!block_crc_ok(schema, base, rows,
                        footer.blocks[static_cast<std::size_t>(k)].crc)) {
        fail("block " + std::to_string(k) + " CRC mismatch");
        break;
      }
    } else if (!intact(view)) {
      fail(std::string(damage) + " in block " + std::to_string(k));
      break;
    }
    take(view);
    status.recovered_count += rows;
    offset += bytes;
  }
  status.complete = status.footer_intact && status.error.empty();
  if (!status.footer_intact && status.error.empty()) {
    fail("footer missing or corrupt");
  }
  return header;
}

/// The writer skeleton: the header (magic, CRC over the four fields, the
/// fields), then each block sized once (pad included), filled in place and
/// CRC'd, then the CRC-sealed footer — one emit(std::span<const
/// std::uint8_t>) call each. `rows` is the format's
/// side, with
///   std::uint64_t param()          the header's param word;
///   std::uint64_t validate()       its row checks; returns the row count;
///   Meta fill(first, rows, block)  writes rows [first, first + rows) into
///                                  the zeroed block, returns the zone map;
///   FooterHead head()              the footer's window and index count;
///   void index(footer)             appends the footer index;
///   void zone(footer, meta)        appends one block's zone map.
/// Returns the bytes emitted.
template <typename Rows, typename Emit>
std::uint64_t emit_frame(const Schema& schema, Rows& rows,
                         std::uint64_t block_size, Emit&& emit) {
  if (block_size == 0 || block_size > kMaxBlockRows) {
    throw std::invalid_argument(std::string(schema.prefix) + ": bad block size");
  }
  const std::uint64_t n = rows.validate();
  if (n > kMaxRows) {
    throw std::invalid_argument(std::string(schema.prefix) + ": too many " +
                                schema.noun + "s");
  }
  const FrameHeader header{rows.param(), n, block_size,
                           footer_offset(schema, n, block_size)};
  std::vector<std::uint8_t> fields;
  for (const std::uint64_t v : {header.param, n, block_size, header.footer_offset}) {
    append(fields, v);
  }
  std::vector<std::uint8_t> buf(schema.magic, schema.magic + 4);
  append(buf, net::Crc32::of(fields));
  buf.insert(buf.end(), fields.begin(), fields.end());
  emit(std::span<const std::uint8_t>(buf));

  using Meta = decltype(rows.fill(0, 0, nullptr));
  std::vector<Meta> metas;
  metas.reserve(static_cast<std::size_t>(header.block_count()));
  std::uint64_t offset = kHeaderBytes;
  for (std::uint64_t k = 0; k < header.block_count(); ++k) {
    const std::uint64_t m = header.block_rows(k);
    buf.assign(static_cast<std::size_t>(schema.block_bytes(m)), 0);
    Meta meta = rows.fill(k * block_size, m, buf.data());
    meta.offset = offset;
    meta.crc = net::Crc32::of(buf);
    metas.push_back(meta);
    emit(std::span<const std::uint8_t>(buf));
    offset += buf.size();
  }

  const FooterHead head = rows.head();
  std::vector<std::uint8_t> footer;
  append<std::int64_t>(footer, head.day_a);
  append<std::int64_t>(footer, head.day_b);
  append<std::uint64_t>(footer, head.index_count);
  append<std::uint64_t>(footer, header.block_count());
  rows.index(footer);
  for (const Meta& meta : metas) {
    append<std::uint64_t>(footer, meta.offset);
    rows.zone(footer, meta);
  }
  for (const Meta& meta : metas) append<std::uint32_t>(footer, meta.crc);
  append<std::uint32_t>(footer, net::Crc32::of(footer));
  emit(std::span<const std::uint8_t>(footer));
  return header.footer_offset + footer.size();
}

/// emit_frame's sink for an io::File: one write per piece.
inline auto file_sink(net::io::File& out) {
  return [&out](std::span<const std::uint8_t> bytes) { out.write(bytes); };
}

/// Runs write(sink) into FileBytes' 8-aligned heap form: the in-memory
/// image of what write would put in a file.
template <typename Write>
FileBytes build_image(Write&& write) {
  std::vector<std::uint64_t> words;
  std::size_t at = 0;
  const std::uint64_t size = write([&words, &at](std::span<const std::uint8_t> bytes) {
    words.resize((at + bytes.size() + 7) / 8);
    std::memcpy(reinterpret_cast<std::uint8_t*>(words.data()) + at, bytes.data(),
                bytes.size());
    at += bytes.size();
  });
  return FileBytes::adopt(std::move(words), size);
}

/// Creates `path` (truncating), runs write(File&), then syncs and closes
/// it; returns what write returned. NOT atomic — ArchiveDir publishes.
template <typename Write>
std::uint64_t write_file(const std::string& path, Write&& write) {
  net::io::File out = net::io::File::create(path);
  const std::uint64_t bytes = write(out);
  out.sync();
  out.close();
  return bytes;
}

}  // namespace orion::store::detail
