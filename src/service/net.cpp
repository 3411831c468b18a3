#include "src/service/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace dsadc::service::net {
namespace {

std::string errno_string(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

int listen_unix(const std::string& path, std::string* err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    if (err) *err = "unix socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = errno_string("socket(AF_UNIX)");
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (err) *err = errno_string("bind(" + path + ")");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) < 0) {
    if (err) *err = errno_string("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(std::uint16_t port, std::uint16_t* bound, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = errno_string("socket(AF_INET)");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (err) *err = errno_string("bind(127.0.0.1)");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) < 0) {
    if (err) *err = errno_string("listen");
    ::close(fd);
    return -1;
  }
  if (bound != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) == 0) {
      *bound = ntohs(got.sin_port);
    }
  }
  return fd;
}

int connect_unix(const std::string& path, std::string* err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    if (err) *err = "unix socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = errno_string("socket(AF_UNIX)");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    if (err) *err = errno_string("connect(" + path + ")");
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = errno_string("socket(AF_INET)");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err) *err = "bad IPv4 address: " + host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    if (err) *err = errno_string("connect(" + host + ")");
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const auto sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

long recv_some(int fd, std::uint8_t* buf, std::size_t n) {
  for (;;) {
    const auto got = ::recv(fd, buf, n, 0);
    if (got < 0 && errno == EINTR) continue;
    return static_cast<long>(got);
  }
}

std::string unique_socket_path(const std::string& tag) {
  static std::atomic<unsigned> counter{0};
  return "/tmp/dsadc_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

}  // namespace dsadc::service::net
