#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "shard/coordinator.hpp"

namespace diac::serve {

namespace {

/// Connects, sends the request line, and slurps the full response.
std::string exchange(const std::string& socket_path, const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("connect: socket() failed");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("connect: socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to serve socket " + socket_path +
                             " (is `diac serve --socket " + socket_path +
                             "` running?)");
  }

  const std::string request = line + "\n";
  const char* p = request.data();
  std::size_t left = request.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("connect: request write failed");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);

  std::string response;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      ::close(fd);
      throw std::runtime_error("connect: response read failed");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace

std::vector<std::vector<std::string>> run_remote_sweep(
    const std::string& socket_path, const SweepRequest& request,
    std::size_t expected_jobs) {
  DIAC_TRACE_SPAN("serve.client.request", "serve");
  std::istringstream in(exchange(socket_path, format_request(request)));

  std::string status;
  if (!std::getline(in, status)) {
    throw std::runtime_error("serve: empty response (server died?)");
  }
  if (status != ok_line()) {
    const std::string error_prefix =
        error_line("");  // "diac-serve <v> error "
    if (status.rfind(error_prefix, 0) == 0) {
      throw std::runtime_error("serve: " + status.substr(error_prefix.size()));
    }
    throw std::runtime_error("serve: unrecognized response '" + status + "'");
  }

  // The response body is exactly a 1-shard worker file; its mandatory
  // `end` trailer is what catches a server killed mid-stream, and the
  // shard merge checks its kind, job count and rows.
  std::vector<ShardFile> files;
  files.push_back(read_shard_stream(in, "serve response from " + socket_path));
  return merge_shard_files(std::move(files), request.kind, expected_jobs);
}

}  // namespace diac::serve
