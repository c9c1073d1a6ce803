#include "orion/telescope/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "orion/netbase/crc32.hpp"

namespace orion::telescope {

namespace {

constexpr char kMagic[4] = {'O', 'C', 'P', '1'};
constexpr std::uint64_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 8 + 8;  // magic, version, length
constexpr std::size_t kTrailerBytes = 4;
// The first chunk a writer opens; each later one doubles the last.
constexpr std::size_t kFirstChunkBytes = 4096;

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

void CheckpointWriter::seal() {
  if (used_ == 0) return;
  chunks_.push_back({std::move(open_), used_});
  sealed_bytes_ += used_;
  used_ = 0;
  capacity_ = 0;
}

void CheckpointWriter::open_chunk(std::size_t need) {
  const std::size_t next = std::max({need, 2 * capacity_, kFirstChunkBytes});
  seal();
  open_ = std::make_unique_for_overwrite<std::uint8_t[]>(next);
  capacity_ = next;
}

void CheckpointWriter::u64s(std::span<const std::uint64_t> values) {
  if constexpr (std::endian::native == std::endian::little) {
    bytes({reinterpret_cast<const std::uint8_t*>(values.data()), values.size_bytes()});
  } else {
    for (const std::uint64_t v : values) u64(v);
  }
}

void CheckpointWriter::bytes(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  if (capacity_ - used_ < data.size()) open_chunk(data.size());
  std::memcpy(open_.get() + used_, data.data(), data.size());
  used_ += data.size();
}

void CheckpointWriter::splice(CheckpointWriter&& other) {
  seal();
  other.seal();
  for (Chunk& chunk : other.chunks_) chunks_.push_back(std::move(chunk));
  sealed_bytes_ += other.sealed_bytes_;
  other = CheckpointWriter();
}

template <typename Write>
std::uint64_t CheckpointWriter::stream(Write&& write) const {
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kMagic, 4);
  store_u64(header + 4, kVersion);
  store_u64(header + 12, payload_size());
  write(std::span<const std::uint8_t>(header));
  net::Crc32 crc;
  const auto put = [&](std::span<const std::uint8_t> chunk) {
    if (chunk.empty()) return;
    crc.update(chunk);
    write(chunk);
  };
  for (const Chunk& chunk : chunks_) put({chunk.bytes.get(), chunk.size});
  put({open_.get(), used_});
  std::uint8_t trailer[kTrailerBytes];
  for (std::size_t i = 0; i < kTrailerBytes; ++i) {
    trailer[i] = static_cast<std::uint8_t>(crc.value() >> (8 * i));
  }
  write(std::span<const std::uint8_t>(trailer));
  return kHeaderBytes + payload_size() + kTrailerBytes;
}

std::uint64_t CheckpointWriter::finish(net::io::File& out) const {
  return stream([&out](std::span<const std::uint8_t> piece) { out.write(piece); });
}

std::uint64_t CheckpointWriter::finish(std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + kHeaderBytes + payload_size() + kTrailerBytes);
  return stream([&out](std::span<const std::uint8_t> piece) {
    out.insert(out.end(), piece.begin(), piece.end());
  });
}

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> frame) {
  if (frame.size() < 4 || std::memcmp(frame.data(), kMagic, 4) != 0) {
    fail("bad magic (not an OCP1 checkpoint)");
  }
  if (frame.size() < kHeaderBytes) fail("truncated header");
  const std::uint64_t version = load_u64(frame.data() + 4);
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  const std::uint64_t length = load_u64(frame.data() + 12);
  // Snapshots are bounded by live state, not by the dataset; refuse
  // anything over 1 GiB rather than trusting a corrupt length field.
  if (length > (std::uint64_t{1} << 30)) fail("absurd payload length");
  if (frame.size() - kHeaderBytes < length) fail("truncated payload");
  payload_ = frame.subspan(kHeaderBytes, static_cast<std::size_t>(length));
  if (frame.size() - kHeaderBytes - payload_.size() < kTrailerBytes) {
    fail("truncated CRC trailer");
  }
  const std::uint8_t* trailer = payload_.data() + payload_.size();
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < kTrailerBytes; ++i) {
    stored |= std::uint32_t{trailer[i]} << (8 * i);
  }
  if (stored != net::Crc32::of(payload_)) fail("CRC mismatch");
}

std::uint64_t CheckpointReader::u64(const char* what) {
  if (payload_.size() - pos_ < 8) {
    fail(std::string("truncated field: ") + what);
  }
  const std::uint64_t v = load_u64(payload_.data() + pos_);
  pos_ += 8;
  return v;
}

double CheckpointReader::f64(const char* what) {
  return std::bit_cast<double>(u64(what));
}

std::uint8_t CheckpointReader::u8(const char* what) {
  if (pos_ >= payload_.size()) {
    fail(std::string("truncated field: ") + what);
  }
  return payload_[pos_++];
}

std::vector<std::uint8_t> CheckpointReader::bytes(std::size_t n,
                                                  const char* what) {
  if (payload_.size() - pos_ < n) {
    fail(std::string("truncated field: ") + what);
  }
  std::vector<std::uint8_t> out(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::uint64_t CheckpointReader::count(const char* what,
                                      std::size_t min_entry_bytes) {
  const std::uint64_t n = u64(what);
  if (n > remaining() / min_entry_bytes) {
    fail(std::string("count exceeds payload: ") + what);
  }
  return n;
}

namespace {

/// A section tag as its four characters, or in hex when it is not four
/// printable ones.
std::string tag_text(std::uint64_t tag) {
  std::string text;
  for (int i = 0; i < 4; ++i) text += static_cast<char>(tag >> (8 * i));
  const bool printable = tag >> 32 == 0 && std::all_of(text.begin(), text.end(), [](char c) {
                           return c >= 0x20 && c <= 0x7e;
                         });
  if (printable) return text;
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%llx", static_cast<unsigned long long>(tag));
  return hex;
}

}  // namespace

void CheckpointReader::expect_tag(std::uint64_t expected, const char* component) {
  const std::uint64_t found = u64("section tag");
  if (found != expected) {
    fail(std::string("wrong section tag for ") + component + ": expected " +
         tag_text(expected) + ", found " + tag_text(found));
  }
}

void CheckpointReader::fail(const std::string& why) const {
  throw std::runtime_error("checkpoint: " + why);
}

void put_events(CheckpointWriter& w, const std::vector<DarknetEvent>& events) {
  w.u64(events.size());
  for (const DarknetEvent& e : events) {
    w.u64(e.key.src.value());
    w.u64(e.key.dst_port);
    w.u8(static_cast<std::uint8_t>(e.key.type));
    w.i64(e.start.since_epoch().total_nanos());
    w.i64(e.end.since_epoch().total_nanos());
    w.u64(e.packets);
    w.u64(e.unique_dests);
    for (const std::uint64_t t : e.packets_by_tool) w.u64(t);
  }
}

std::vector<DarknetEvent> get_events(CheckpointReader& r) {
  // Six u64 fields, the type byte and the per-tool packet counts.
  constexpr std::size_t kEventBytes = 6 * 8 + 1 + sizeof(ToolPackets);
  std::vector<DarknetEvent> events(
      static_cast<std::size_t>(r.count("event count", kEventBytes)));
  for (DarknetEvent& e : events) {
    e.key.src = net::Ipv4Address(r.narrow<std::uint32_t>("event src"));
    e.key.dst_port = r.narrow<std::uint16_t>("event port");
    const std::uint8_t type = r.u8("event type");
    if (type > static_cast<std::uint8_t>(pkt::TrafficType::Other)) {
      throw std::runtime_error("checkpoint: bad traffic type");
    }
    e.key.type = static_cast<pkt::TrafficType>(type);
    e.start = net::SimTime::at(net::Duration::nanos(r.i64("event start")));
    e.end = net::SimTime::at(net::Duration::nanos(r.i64("event end")));
    e.packets = r.u64("event packets");
    e.unique_dests = r.u64("event dests");
    for (std::uint64_t& t : e.packets_by_tool) t = r.u64("tool packets");
  }
  return events;
}

}  // namespace orion::telescope
