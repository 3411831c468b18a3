// Thin POSIX socket helpers shared by the service server, the client
// library and the load generator. Unix-domain stream sockets are the
// primary transport (filesystem path, unlinked on listen); TCP binds to
// 127.0.0.1 only -- the service speaks a trusted-LAN protocol and has no
// authentication layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dsadc::service::net {

/// Create + bind + listen on a unix-domain socket at `path` (any stale
/// socket file is unlinked first). Returns the fd, or -1 with *err set.
int listen_unix(const std::string& path, std::string* err);

/// Listen on 127.0.0.1:`port` (0 = ephemeral); *bound receives the
/// actual port. Returns the fd, or -1 with *err set.
int listen_tcp(std::uint16_t port, std::uint16_t* bound, std::string* err);

int connect_unix(const std::string& path, std::string* err);
int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* err);

/// Send the whole buffer (MSG_NOSIGNAL; EINTR retried). False on error.
bool send_all(int fd, const std::uint8_t* data, std::size_t n);

/// One recv() call (EINTR retried): >0 bytes, 0 on orderly shutdown,
/// -1 on error.
long recv_some(int fd, std::uint8_t* buf, std::size_t n);

/// O_NONBLOCK on. False on fcntl failure.
bool set_nonblocking(int fd);

/// A unique abstract-free unix socket path under /tmp for tests/tools.
std::string unique_socket_path(const std::string& tag);

}  // namespace dsadc::service::net
