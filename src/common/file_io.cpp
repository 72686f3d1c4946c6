#include "common/file_io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

namespace petastat {

Status write_file(const std::string& path, std::string_view contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return unavailable("cannot open '" + path +
                       "' for writing: " + std::strerror(errno));
  }
  const bool written =
      std::fwrite(contents.data(), 1, contents.size(), file) ==
          contents.size() &&
      std::fflush(file) == 0;
  const int write_errno = errno;
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    return unavailable("write error on '" + path + "': " +
                       std::strerror(written ? errno : write_errno));
  }
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    return not_found("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::string contents;
  char buf[4096];
  while (const std::size_t n = std::fread(buf, 1, sizeof(buf), file.get())) {
    contents.append(buf, n);
  }
  if (std::ferror(file.get())) {
    return unavailable("read error on '" + path + "': " + std::strerror(errno));
  }
  return contents;
}

}  // namespace petastat
