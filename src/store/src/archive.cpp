#include "orion/store/archive.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "layout.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::store {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestMagic[4] = {'O', 'M', 'F', '1'};

std::string gen_file_name(const std::string& name, std::uint64_t gen) {
  return name + ".g" + std::to_string(gen);
}

std::string tmp_file_name(const std::string& name, std::uint64_t gen) {
  return name + ".tmp." + std::to_string(gen);
}

/// True when `file` looks like "<base>.g<digits>"; extracts the base.
bool split_gen_file(const std::string& file, std::string& base) {
  const std::size_t dot = file.rfind(".g");
  if (dot == std::string::npos || dot + 2 >= file.size()) return false;
  for (std::size_t i = dot + 2; i < file.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(file[i]))) return false;
  }
  base = file.substr(0, dot);
  return !base.empty();
}

bool valid_name(const std::string& name) {
  std::string base;
  return !name.empty() && name.find('/') == std::string::npos &&
         name.find(".tmp.") == std::string::npos && name != kManifestName &&
         !split_gen_file(name, base);
}

void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  detail::append<std::uint64_t>(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked manifest payload cursor; returns false instead of
/// reading past the end (corruption is a report, not UB).
struct PayloadReader {
  const std::uint8_t* p;
  std::size_t left;

  bool u64(std::uint64_t& v) {
    if (left < 8) return false;
    v = detail::get_u64(p);
    p += 8;
    left -= 8;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = detail::get_u32(p);
    p += 4;
    left -= 4;
    return true;
  }
  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!u64(n) || n > left || n > (std::uint64_t{1} << 16)) return false;
    s.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
    p += n;
    left -= static_cast<std::size_t>(n);
    return true;
  }
};

bool parse_manifest(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t& generation,
                    std::vector<ManifestEntry>& entries, std::string& error) {
  if (bytes.size() < 8) {
    error = "manifest truncated";
    return false;
  }
  if (std::memcmp(bytes.data(), kManifestMagic, 4) != 0) {
    error = "manifest bad magic";
    return false;
  }
  const std::uint32_t stored = detail::get_u32(bytes.data() + 4);
  if (net::Crc32::of({bytes.data() + 8, bytes.size() - 8}) != stored) {
    error = "manifest CRC mismatch";
    return false;
  }
  PayloadReader r{bytes.data() + 8, bytes.size() - 8};
  std::uint64_t count = 0;
  if (!r.u64(generation) || !r.u64(count) || count > (std::uint64_t{1} << 20)) {
    error = "manifest corrupt header";
    return false;
  }
  entries.clear();
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ManifestEntry e;
    if (!r.str(e.name) || !r.str(e.file) || !r.u64(e.generation) ||
        !r.u64(e.bytes) || !r.u32(e.crc)) {
      error = "manifest corrupt entry " + std::to_string(i);
      return false;
    }
    // Every path the archive opens, renames or deletes is built from an
    // entry, so an entry must name the file publish would have written
    // for it — nothing outside the directory, nothing from the future.
    if (!valid_name(e.name) || e.generation > generation ||
        e.file != gen_file_name(e.name, e.generation)) {
      error = "manifest entry " + std::to_string(i) + " names a bad file";
      return false;
    }
    entries.push_back(std::move(e));
  }
  if (r.left != 0) {
    error = "manifest trailing bytes";
    return false;
  }
  return true;
}

}  // namespace

ArchiveDir::ArchiveDir(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw ArchiveError("cannot create directory " + dir_);
  load_manifest(/*allow_corrupt=*/false);
}

ArchiveDir::ArchiveDir(std::string dir, Tolerant) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw ArchiveError("cannot create directory " + dir_);
  load_manifest(/*allow_corrupt=*/true);
}

void ArchiveDir::load_manifest(bool allow_corrupt) {
  generation_ = 0;
  entries_.clear();
  const std::string path = dir_ + "/" + kManifestName;
  if (!net::io::path_exists(path)) return;
  std::string error;
  const std::vector<std::uint8_t> bytes = net::io::read_file(path);
  if (!parse_manifest(bytes, generation_, entries_, error)) {
    generation_ = 0;
    entries_.clear();
    if (!allow_corrupt) throw ArchiveError(error + " in " + dir_);
  }
}

std::optional<ManifestEntry> ArchiveDir::find(const std::string& name) const {
  for (const ManifestEntry& e : entries_) {
    if (e.name == name) return e;
  }
  return std::nullopt;
}

std::string ArchiveDir::path_of(const ManifestEntry& entry) const {
  return dir_ + "/" + entry.file;
}

std::optional<std::string> ArchiveDir::resolve(const std::string& name) const {
  const auto entry = find(name);
  if (!entry) return std::nullopt;
  return path_of(*entry);
}

void ArchiveDir::write_manifest(const std::vector<ManifestEntry>& entries,
                                std::uint64_t generation) {
  std::vector<std::uint8_t> payload;
  detail::append<std::uint64_t>(payload, generation);
  detail::append<std::uint64_t>(payload, entries.size());
  for (const ManifestEntry& e : entries) {
    append_string(payload, e.name);
    append_string(payload, e.file);
    detail::append<std::uint64_t>(payload, e.generation);
    detail::append<std::uint64_t>(payload, e.bytes);
    detail::append<std::uint32_t>(payload, e.crc);
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(8 + payload.size());
  for (const char c : kManifestMagic) {
    frame.push_back(static_cast<std::uint8_t>(c));
  }
  const std::uint32_t crc = net::Crc32::of(payload);
  detail::append<std::uint32_t>(frame, crc);
  frame.insert(frame.end(), payload.begin(), payload.end());

  const std::string tmp = dir_ + "/" + tmp_file_name(kManifestName, generation);
  net::io::File f = net::io::File::create(tmp);
  f.write(frame);
  f.sync();
  f.close();
  net::io::rename_file(tmp, dir_ + "/" + kManifestName);
}

ManifestEntry ArchiveDir::publish(const std::string& name,
                                  const Writer& writer) {
  return publish_many({{name, writer}}).front();
}

std::vector<ManifestEntry> ArchiveDir::publish_many(
    const std::vector<std::pair<std::string, Writer>>& items) {
  if (items.empty()) throw ArchiveError("publish of empty batch");
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!valid_name(items[i].first)) {
      throw ArchiveError("bad artifact name '" + items[i].first + "'");
    }
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      if (items[i].first == items[j].first) {
        throw ArchiveError("duplicate artifact name '" + items[i].first +
                           "' in batch");
      }
    }
  }

  // 1+2: write and fsync every payload under its temporary name. A
  // failure or crash anywhere in here leaves only tmp files; the live
  // manifest — and therefore every reader — still sees the old state.
  const std::uint64_t gen = generation_ + 1;
  std::vector<ManifestEntry> fresh;
  fresh.reserve(items.size());
  for (const auto& [name, writer] : items) {
    const std::string tmp = dir_ + "/" + tmp_file_name(name, gen);
    net::io::File f = net::io::File::create(tmp);
    writer(f);
    f.sync();
    ManifestEntry e;
    e.name = name;
    e.file = gen_file_name(name, gen);
    e.generation = gen;
    e.bytes = f.bytes_written();
    e.crc = f.write_crc();
    f.close();
    fresh.push_back(std::move(e));
  }

  // 3: move the complete payloads to their generation names. Still not
  // visible — nothing resolves a generation file except the manifest.
  for (const ManifestEntry& e : fresh) {
    net::io::rename_file(dir_ + "/" + tmp_file_name(e.name, gen),
                         path_of(e));
  }
  net::io::fsync_dir(dir_);

  // 4+5: the commit point. The manifest rename is the single atomic
  // instant at which all the batch's artifacts become live together.
  std::vector<ManifestEntry> merged = entries_;
  std::vector<ManifestEntry> superseded;
  for (const ManifestEntry& e : fresh) {
    const auto it = std::find_if(
        merged.begin(), merged.end(),
        [&](const ManifestEntry& old) { return old.name == e.name; });
    if (it != merged.end()) {
      superseded.push_back(*it);
      *it = e;
    } else {
      merged.push_back(e);
    }
  }
  write_manifest(merged, gen);
  net::io::fsync_dir(dir_);
  entries_ = std::move(merged);
  generation_ = gen;

  // GC superseded generations — already invisible, so removal failures
  // are deferred to recover(), not publication failures. (A Crash
  // failpoint still escapes: a real crash can die here too.)
  for (const ManifestEntry& old : superseded) {
    try {
      net::io::remove_file(path_of(old));
    } catch (const net::io::IoError&) {
    }
  }
  return fresh;
}

RecoverReport ArchiveDir::recover() {
  RecoverReport report;
  const std::string manifest_path = dir_ + "/" + kManifestName;
  report.manifest_present = net::io::path_exists(manifest_path);
  if (report.manifest_present) {
    std::string error;
    std::vector<std::uint8_t> bytes;
    try {
      bytes = net::io::read_file(manifest_path);
    } catch (const net::io::IoError& err) {
      error = err.what();
    }
    std::uint64_t gen = 0;
    std::vector<ManifestEntry> entries;
    if (error.empty() && parse_manifest(bytes, gen, entries, error)) {
      report.manifest_valid = true;
      generation_ = gen;
      entries_ = std::move(entries);
    } else {
      // A corrupt manifest cannot be trusted to name its files; put it
      // aside for forensics and serve the archive as empty.
      report.detail = error;
      ++report.quarantined;
      try {
        net::io::rename_file(manifest_path, manifest_path + ".quarantine");
      } catch (const net::io::IoError&) {
      }
      generation_ = 0;
      entries_.clear();
    }
  } else {
    generation_ = 0;
    entries_.clear();
  }
  report.live_entries = entries_.size();

  // Sweep: anything with a ".tmp." infix is an abandoned write; any
  // generation file the manifest does not reference is an orphan from a
  // crash between data rename and manifest commit (or a superseded
  // generation whose GC was interrupted). Unknown files are left alone.
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& it : fs::directory_iterator(dir_, ec)) {
    if (!it.is_regular_file()) continue;
    names.push_back(it.path().filename().string());
  }
  for (const std::string& file : names) {
    if (file == kManifestName) continue;
    if (file.find(".tmp.") != std::string::npos) {
      try {
        net::io::remove_file(dir_ + "/" + file);
        ++report.removed_temporaries;
      } catch (const net::io::IoError&) {
      }
      continue;
    }
    std::string base;
    if (!split_gen_file(file, base)) continue;
    const bool referenced =
        std::any_of(entries_.begin(), entries_.end(),
                    [&](const ManifestEntry& e) { return e.file == file; });
    if (!referenced) {
      if (report.manifest_present && !report.manifest_valid) {
        // The manifest that named these files was corrupt — they may be
        // the only surviving copies of good data, so set them aside with
        // it instead of deleting.
        try {
          net::io::rename_file(dir_ + "/" + file,
                               dir_ + "/" + file + ".quarantine");
          ++report.quarantined;
        } catch (const net::io::IoError&) {
        }
      } else {
        try {
          net::io::remove_file(dir_ + "/" + file);
          ++report.removed_orphans;
        } catch (const net::io::IoError&) {
        }
      }
    }
  }

  // Size check of every live entry (cheap; CRC verification is opt-in
  // via verify()). Damage here is disk corruption, not crash fallout.
  for (const ManifestEntry& e : entries_) {
    std::error_code size_ec;
    const auto size = fs::file_size(path_of(e), size_ec);
    if (size_ec || size != e.bytes) {
      ++report.damaged_entries;
      if (report.detail.empty()) {
        report.detail = "entry '" + e.name + "' missing or wrong size";
      }
    }
  }
  return report;
}

bool ArchiveDir::verify(const std::string& name) const {
  const auto entry = find(name);
  if (!entry) return false;
  std::vector<std::uint8_t> bytes;
  try {
    bytes = net::io::read_file(path_of(*entry));
  } catch (const net::io::IoError&) {
    return false;
  }
  return bytes.size() == entry->bytes && net::Crc32::of(bytes) == entry->crc;
}

RecoverReport recover_archive(const std::string& dir) {
  // Bypass the constructor's strict manifest load: recovery must open
  // archives whose manifest a dying disk mangled.
  ArchiveDir archive(dir, ArchiveDir::Tolerant{});
  return archive.recover();
}

ManifestEntry publish_events_ode2(ArchiveDir& archive, const std::string& name,
                                  const telescope::EventDataset& dataset,
                                  std::uint64_t block_events) {
  return archive.publish(name, events_ode2_writer(dataset, block_events));
}

ManifestEntry publish_flows_fde1(ArchiveDir& archive, const std::string& name,
                                 const flowsim::FlowDataset& flows,
                                 std::uint64_t block_flows) {
  return archive.publish(name, flows_fde1_writer(flows, block_flows));
}

ArchiveDir::Writer events_ode2_writer(const telescope::EventDataset& dataset,
                                      std::uint64_t block_events) {
  return [&dataset, block_events](net::io::File& f) {
    write_events_ode2(dataset, f, block_events);
  };
}

ArchiveDir::Writer flows_fde1_writer(const flowsim::FlowDataset& flows,
                                     std::uint64_t block_flows) {
  return [&flows, block_flows](net::io::File& f) {
    write_flows_fde1(flows, f, block_flows);
  };
}

MappedEventStore open_mapped_events(const ArchiveDir& archive,
                                    const std::string& name) {
  const auto entry = archive.find(name);
  if (!entry) {
    throw ArchiveError("no live artifact '" + name + "' in " + archive.dir());
  }
  MappedEventStore store(archive.path_of(*entry));
  if (store.file_bytes() != entry->bytes) {
    throw ArchiveError("artifact '" + name + "' size differs from manifest");
  }
  return store;
}

MappedFlowStore open_mapped_flows(const ArchiveDir& archive,
                                  const std::string& name) {
  const auto entry = archive.find(name);
  if (!entry) {
    throw ArchiveError("no live artifact '" + name + "' in " + archive.dir());
  }
  MappedFlowStore store(archive.path_of(*entry));
  if (store.file_bytes() != entry->bytes) {
    throw ArchiveError("artifact '" + name + "' size differs from manifest");
  }
  return store;
}

}  // namespace orion::store
