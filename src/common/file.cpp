#include "common/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

namespace whisper {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

bool atomic_write_impl(const std::string& path, BytesView data,
                       std::string* error, bool durable) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error) *error = errno_string("open tmp");
    return false;
  }
  const bool wrote =
      write_all(fd, data.data(), data.size()) && (!durable || ::fsync(fd) == 0);
  ::close(fd);
  if (!wrote) {
    if (error) *error = errno_string("write tmp");
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = errno_string("rename");
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable.
  if (durable && !fsync_dir_of(path)) {
    if (error) *error = errno_string("fsync dir");
    return false;
  }
  return true;
}

}  // namespace

bool atomic_write_file(const std::string& path, BytesView data, std::string* error) {
  return atomic_write_impl(path, data, error, /*durable=*/true);
}

bool atomic_publish_file(const std::string& path, BytesView data, std::string* error) {
  return atomic_write_impl(path, data, error, /*durable=*/false);
}

std::optional<Bytes> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  Bytes out;
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + n);
  }
  ::close(fd);
  return out;
}

}  // namespace whisper
