#include "src/net/fd_io.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/util/cli.hpp"

namespace moldable::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::uint16_t parse_port(const std::string& text, const std::string& spec) {
  try {
    return util::cli::parse_count<std::uint16_t>(text);
  } catch (const util::cli::BadValue&) {
    throw std::invalid_argument("address '" + spec + "': port '" + text +
                                "' is not a number in [0, 65535]");
  }
}

sockaddr_in tcp_sockaddr(const Address& address) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  std::string host = address.host.empty() ? "127.0.0.1" : address.host;
  if (host == "localhost") host = "127.0.0.1";
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1)
    throw std::invalid_argument("address host '" + host +
                                "' is not a numeric IPv4 address");
  return sa;
}

sockaddr_un unix_sockaddr(const Address& address) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (address.path.size() + 1 > sizeof(sa.sun_path))
    throw std::invalid_argument("unix socket path too long: " + address.path);
  std::memcpy(sa.sun_path, address.path.c_str(), address.path.size() + 1);
  return sa;
}

}  // namespace

Address parse_address(const std::string& spec) {
  if (spec.empty()) throw std::invalid_argument("empty address spec");
  Address out;
  if (spec.rfind("unix:", 0) == 0) {
    out.unix_domain = true;
    out.path = spec.substr(5);
    if (out.path.empty())
      throw std::invalid_argument("address '" + spec + "': empty unix socket path");
    return out;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    out.port = parse_port(spec, spec);  // bare "PORT"
  } else {
    out.host = spec.substr(0, colon);
    out.port = parse_port(spec.substr(colon + 1), spec);
  }
  return out;
}

std::string format_address(const Address& address, std::uint16_t actual_port) {
  if (address.unix_domain) return "unix:" + address.path;
  const std::uint16_t port = actual_port != 0 ? actual_port : address.port;
  return (address.host.empty() ? std::string("127.0.0.1") : address.host) + ":" +
         std::to_string(port);
}

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

ScopedFd listen_on(const Address& address, int backlog) {
  ScopedFd fd(::socket(address.unix_domain ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  if (address.unix_domain) {
    ::unlink(address.path.c_str());  // stale socket file from a prior run
    const sockaddr_un sa = unix_sockaddr(address);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0)
      fail_errno("bind " + format_address(address));
  } else {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in sa = tcp_sockaddr(address);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0)
      fail_errno("bind " + format_address(address));
  }
  if (::listen(fd.get(), backlog) != 0) fail_errno("listen " + format_address(address));
  return fd;
}

ScopedFd dial(const Address& address) {
  ScopedFd fd(::socket(address.unix_domain ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  int rc;
  if (address.unix_domain) {
    const sockaddr_un sa = unix_sockaddr(address);
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  } else {
    const sockaddr_in sa = tcp_sockaddr(address);
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  }
  if (rc != 0) fail_errno("connect " + format_address(address));
  return fd;
}

ScopedFd dial(const std::string& spec) { return dial(parse_address(spec)); }

std::uint16_t local_port(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) return 0;
  if (ss.ss_family != AF_INET) return 0;
  return ntohs(reinterpret_cast<const sockaddr_in*>(&ss)->sin_port);
}

bool send_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

long read_some(int fd, void* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::read(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + tmp);
    os << contents;
    os.flush();
    if (!os) throw std::runtime_error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    fail_errno("rename " + tmp + " -> " + path);
}

FdInBuf::int_type FdInBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  const long n = read_some(fd_, buf_, kBufSize);
  if (n <= 0) return traits_type::eof();  // EOF and hard error look alike here
  setg(buf_, buf_, buf_ + n);
  return traits_type::to_int_type(*gptr());
}

bool FdOutBuf::flush_buffer() {
  const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
  if (n == 0) return true;
  if (!send_all(fd_, pbase(), n)) return false;
  pbump(-static_cast<int>(n));
  return true;
}

FdOutBuf::int_type FdOutBuf::overflow(int_type ch) {
  if (!flush_buffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdOutBuf::sync() { return flush_buffer() ? 0 : -1; }

}  // namespace moldable::net
