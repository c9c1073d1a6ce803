#include "orion/store/file_bytes.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#define ORION_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ORION_STORE_HAVE_MMAP 0
#endif

namespace orion::store {

void detail::Unmap::operator()(const std::uint8_t* map) const noexcept {
#if ORION_STORE_HAVE_MMAP
  ::munmap(const_cast<std::uint8_t*>(map), bytes);
#endif
}

FileBytes FileBytes::open(const std::string& path, std::string& error) {
  FileBytes file;
#if ORION_STORE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto bytes = static_cast<std::size_t>(st.st_size);
      void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        file.map_ = {static_cast<const std::uint8_t*>(map), detail::Unmap{bytes}};
        file.size_ = bytes;
      }
    }
    ::close(fd);
  }
  if (file.mapped()) return file;
#endif
  // Portable fallback: the whole file in an 8-aligned heap buffer, so
  // the span views work identically (just without demand paging). Only a
  // regular file holds an archive: a directory opens for reading too, and
  // its end offset can be a bogus 2^63 - 1 that would size the buffer.
  std::error_code ec;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff bytes = in && std::filesystem::is_regular_file(path, ec)
                                   ? std::streamoff(in.tellg())
                                   : -1;
  if (bytes < 0) {
    error = "cannot open " + path;
    return file;
  }
  in.seekg(0);
  file.heap_.resize(static_cast<std::size_t>((bytes + 7) / 8), 0);
  if (bytes > 0 &&
      !in.read(reinterpret_cast<char*>(file.heap_.data()), bytes)) {
    error = "short read of " + path;
    return FileBytes();
  }
  file.size_ = static_cast<std::uint64_t>(bytes);
  return file;
}

FileBytes FileBytes::adopt(std::vector<std::uint64_t> words,
                           std::uint64_t size) {
  if (size > words.size() * 8) {
    throw std::invalid_argument("FileBytes::adopt: size exceeds the words");
  }
  FileBytes file;
  file.heap_ = std::move(words);
  file.size_ = size;
  return file;
}

}  // namespace orion::store
