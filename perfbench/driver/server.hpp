#pragma once

/// \file server.hpp
/// The program under test as a child process, and one client connection
/// to it.
///
/// ServerProcess runs `dts serve --socket=PATH --workers=N` with its
/// stdin on a pipe: closing the pipe is the server's shutdown signal (its
/// stdin pump reads EOF, stops the socket and drains). The peak resident
/// set of the server comes from wait4()'s rusage once it has exited.

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>

#include "service/protocol.hpp"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts the server and returns once its socket accepts connections.
  /// Throws std::runtime_error when it cannot start or does not come up
  /// within `ready_timeout_s`.
  ServerProcess(const std::string& dts_binary, const std::string& socket_path,
                std::size_t workers, double ready_timeout_s = 30.0);
  /// Stops the server if stop() was not called.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Closes the server's stdin, waits for it to exit and returns its peak
  /// resident set in KiB. Kills it when it has not exited after
  /// `timeout_s`. Idempotent; throws std::runtime_error when the server
  /// exited with a failure status.
  long stop(double timeout_s = 60.0);

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  long peak_rss_kib_ = 0;
};

/// One AF_UNIX stream connection. Reads time out after a minute so a
/// stuck server fails the run instead of hanging it.
class Connection {
 public:
  explicit Connection(const std::string& socket_path);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes the parts back to back; throws std::runtime_error on failure.
  void send(std::string_view header, std::string_view payload,
            std::string_view trailer);

  /// The next response frame (dts::read_response); nullopt when the
  /// server closed the connection or the read timed out.
  [[nodiscard]] std::optional<dts::WireResponse> receive();

 private:
  /// Read-side streambuf over the socket, so the library's own protocol
  /// reader parses responses.
  class InBuf : public std::streambuf {
   public:
    explicit InBuf(int fd) : fd_(fd) {}

   protected:
    int_type underflow() override;

   private:
    int fd_;
    char buffer_[1 << 16];
  };

  int fd_ = -1;
  InBuf in_buf_;
};

}  // namespace perfbench
