#include "server.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ServerProcess::ServerProcess(const std::string& dts_binary,
                             const std::string& socket_path,
                             std::size_t workers, double ready_timeout_s)
    : socket_path_(socket_path) {
  ::unlink(socket_path.c_str());
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe(): " + std::string(std::strerror(errno)));
  }
  const std::string socket_flag = "--socket=" + socket_path;
  const std::string workers_flag = "--workers=" + std::to_string(workers);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork(): " + std::string(std::strerror(errno)));
  }
  if (pid_ == 0) {
    // Child: stdin from the pipe, stdout discarded (the stdin pump has no
    // frames to answer), stderr inherited for diagnostics.
    ::dup2(pipe_fds[0], STDIN_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    ::execl(dts_binary.c_str(), dts_binary.c_str(), "serve",
            socket_flag.c_str(), workers_flag.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fds[0]);
  stdin_fd_ = pipe_fds[1];

  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const int fd = connect_unix(socket_path_);
    if (fd >= 0) {
      ::close(fd);  // the server reaps the idle connection on its own
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      ::close(stdin_fd_);
      stdin_fd_ = -1;
      throw std::runtime_error("dts serve exited during start-up");
    }
    if (seconds_since(start) > ready_timeout_s) {
      stop(1.0);
      throw std::runtime_error("dts serve did not open its socket in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProcess::~ServerProcess() {
  try {
    stop(10.0);
  } catch (const std::exception&) {
    // Already reported by an explicit stop(); nothing else to release.
  }
}

long ServerProcess::stop(double timeout_s) {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ < 0) return peak_rss_kib_;
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      throw std::runtime_error("wait4(): " + std::string(std::strerror(errno)));
    }
    if (seconds_since(start) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      pid_ = -1;
      throw std::runtime_error("dts serve did not stop; killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  peak_rss_kib_ = usage.ru_maxrss;
  ::unlink(socket_path_.c_str());
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("dts serve exited with a failure status");
  }
  return peak_rss_kib_;
}

Connection::Connection(const std::string& socket_path)
    : fd_(connect_unix(socket_path)), in_buf_(fd_) {
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to " + socket_path + ": " +
                             std::strerror(errno));
  }
  timeval timeout{};
  timeout.tv_sec = 60;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(std::string_view header, std::string_view payload,
                      std::string_view trailer) {
  iovec parts[3] = {
      {const_cast<char*>(header.data()), header.size()},
      {const_cast<char*>(payload.data()), payload.size()},
      {const_cast<char*>(trailer.data()), trailer.size()},
  };
  std::size_t first = 0;
  while (first < 3) {
    const ssize_t n = ::writev(fd_, parts + first, static_cast<int>(3 - first));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write to server: " + std::string(std::strerror(errno)));
    }
    auto left = static_cast<std::size_t>(n);
    while (first < 3 && left >= parts[first].iov_len) {
      left -= parts[first].iov_len;
      ++first;
    }
    if (first < 3) {
      parts[first].iov_base = static_cast<char*>(parts[first].iov_base) + left;
      parts[first].iov_len -= left;
    }
  }
}

std::optional<dts::WireResponse> Connection::receive() {
  std::istream in(&in_buf_);
  return dts::read_response(in);
}

Connection::InBuf::int_type Connection::InBuf::underflow() {
  for (;;) {
    const ssize_t n = ::read(fd_, buffer_, sizeof buffer_);
    if (n > 0) {
      setg(buffer_, buffer_, buffer_ + n);
      return traits_type::to_int_type(buffer_[0]);
    }
    if (n < 0 && errno == EINTR) continue;
    return traits_type::eof();
  }
}

}  // namespace perfbench
