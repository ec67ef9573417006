#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <vector>

#include "cell/cell_library.hpp"
#include "exp/runner.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"

namespace diac::serve {

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

/// Buffered streambuf over a connected socket fd.  A failed write (the
/// client vanished) latches the failure: overflow/sync report EOF, the
/// ostream sets badbit, and the remaining response is discarded without
/// touching the worker's evaluation.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

  bool failed() const { return failed_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!flush_buffer()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_buffer() ? 0 : -1; }

 private:
  bool flush_buffer() {
    if (failed_) return false;
    const char* p = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n <= 0) {
        failed_ = true;
        setp(buffer_, buffer_ + sizeof(buffer_));
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(buffer_, buffer_ + sizeof(buffer_));
    return true;
  }

  int fd_;
  bool failed_ = false;
  char buffer_[1 << 16];
};

/// Reads the single request line (up to but excluding '\n').  Returns
/// false on EOF-before-newline or an oversized line.
bool read_request_line(int fd, std::string& line) {
  line.clear();
  constexpr std::size_t kMaxLine = 1 << 16;
  char chunk[4096];
  while (line.size() < kMaxLine) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') {
        line.append(chunk, static_cast<std::size_t>(i));
        return true;
      }
    }
    line.append(chunk, static_cast<std::size_t>(n));
  }
  return false;
}

class Server {
 public:
  explicit Server(const ServerOptions& options)
      : options_(options), runner_(options.threads) {
    if (options_.socket_path.empty()) {
      throw std::invalid_argument("serve requires --socket <path>");
    }
    if (!options_.cache.dir.empty()) {
      cache_ = std::make_unique<ResultCache>(options_.cache);
    }
  }

  int run() {
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) throw std::runtime_error("serve: socket() failed");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd);
      throw std::runtime_error("serve: socket path too long: " +
                               options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.socket_path.c_str());  // replace a stale socket
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 64) != 0) {
      ::close(listen_fd);
      throw std::runtime_error("serve: cannot listen on " +
                               options_.socket_path);
    }

    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);

    std::cerr << "diac serve: listening on " << options_.socket_path << " ("
              << runner_.jobs() << " job(s)"
              << (cache_ ? ", cache " + options_.cache.dir : std::string())
              << ")\n";

    while (g_stop == 0) {
      pollfd pfd{};
      pfd.fd = listen_fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, 200);
      if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
      const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd < 0) continue;
      handle_connection(conn_fd);
      ::close(conn_fd);
    }

    ::close(listen_fd);
    ::unlink(options_.socket_path.c_str());
    std::cerr << "diac serve: shut down cleanly\n";
    return 0;
  }

 private:
  void handle_connection(int fd) {
    DIAC_TRACE_SPAN("serve.request", "serve");
    DIAC_OBS_COUNT("serve.request", 1);
    FdStreambuf buf(fd);
    std::ostream out(&buf);

    std::string line;
    if (!read_request_line(fd, line)) {
      DIAC_OBS_COUNT("serve.request.error", 1);
      out << error_line("missing request line") << "\n" << std::flush;
      return;
    }

    // Everything the sweep needs is built *before* the ok line, so any
    // bad request gets a clean single-line error.  After the ok line
    // the shard stream's `end` trailer is the integrity signal: a
    // worker exception leaves the stream truncated, which the client
    // rejects exactly like a killed shard worker.
    try {
      const SweepRequest request = parse_request(line);
      write_sweep_shard(out, request.kind, load_target(request.target),
                        request.options, ShardPlan{}, runner_, cache_.get(),
                        ok_line() + "\n");
      out.flush();
    } catch (const std::exception& e) {
      DIAC_OBS_COUNT("serve.request.error", 1);
      std::cerr << "diac serve: request failed: " << e.what() << "\n";
      // Harmless after the ok line: the ostream keeps appending, and
      // the truncated (trailer-less) stream is what marks the failure.
      out << error_line(e.what()) << "\n" << std::flush;
    }
  }

  ServerOptions options_;
  ExperimentRunner runner_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace

void write_sweep_shard(std::ostream& out, const std::string& kind,
                       const Netlist& nl, const OptionMap& options,
                       const ShardPlan& plan, ExperimentRunner& runner,
                       RowCache* cache, const std::string& preamble) {
  const CellLibrary lib = CellLibrary::nominal_45nm();
  if (kind == "mc") {
    const EvaluationOptions eo = mc_eval_options(options);
    const int runs = mc_runs(options);
    out << preamble << std::flush;
    write_shard(out, kind, plan, static_cast<std::size_t>(runs),
                mc_rows(nl, lib, eo, runs, plan, runner, cache));
  } else if (kind == "replay") {
    const EvaluationOptions eo = replay_eval_options(options);
    const std::vector<std::string> traces =
        replay_trace_files(replay_trace_arg(options));
    out << preamble << std::flush;
    write_shard(out, kind, plan, traces.size(),
                replay_rows(nl, lib, eo, traces, plan, runner, cache));
  } else if (kind == "search") {
    const SearchOptions so = search_options(options);
    const std::vector<DesignPoint> points = search_points(options);
    out << preamble << std::flush;
    write_shard(out, kind, plan, points.size(),
                search_rows(nl, lib, points, so, plan, runner, cache));
  } else {
    throw std::runtime_error("unknown sweep kind '" + kind +
                             "' (expected mc|replay|search)");
  }
}

int serve_forever(const ServerOptions& options) {
  g_stop = 0;
  Server server(options);
  return server.run();
}

}  // namespace diac::serve
