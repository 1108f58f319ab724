// The client side of a node's admin socket (telemetry/health.hpp), shared by
// the tools that scrape a whisper_localnet rendezvous directory.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/file.hpp"
#include "telemetry/health.hpp"

/// The decimal port in an admin.I file; 0 when absent.
inline std::uint16_t read_port(const std::string& path) {
  const auto text = whisper::read_file(path);
  if (!text) return 0;
  return static_cast<std::uint16_t>(
      std::strtoul(whisper::to_string(*text).c_str(), nullptr, 10));
}

/// One admin query: 4-byte request to 127.0.0.1:port, one health record
/// back (every op replies with one — for kNatReboot that reply IS the
/// delivery confirmation). Up to 3 tries, each waiting 1 s for the reply:
/// the node services its admin socket off a 50 ms timer. The socket is
/// connected, so a stopped node's port-unreachable comes back as
/// ECONNREFUSED and the query gives up at once instead of waiting 3 s.
inline std::optional<whisper::telemetry::HealthSnapshot> query_admin(
    std::uint16_t port,
    whisper::telemetry::AdminOp op = whisper::telemetry::AdminOp::kStats) {
  namespace tel = whisper::telemetry;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(port);
  const whisper::Bytes req = tel::encode_admin_request(op);
  std::optional<tel::HealthSnapshot> out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&to), sizeof to) < 0) {
    ::close(fd);
    return out;
  }
  for (int attempt = 0; attempt < 3 && !out; ++attempt) {
    if (::send(fd, req.data(), req.size(), 0) < 0) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    std::vector<std::uint8_t> buf(tel::kMaxHealthPayloadBytes + 64);
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == ECONNREFUSED) break;  // nothing listens: the node is down
    if (n <= 0) continue;
    out = tel::decode_health_record(
        whisper::BytesView(buf.data(), static_cast<std::size_t>(n)));
  }
  ::close(fd);
  return out;
}
