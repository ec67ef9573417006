/// The long-lived sweep server behind `diac serve`.
///
/// One process owns a unix-domain listening socket, one
/// ExperimentRunner thread pool, and (optionally) one on-disk
/// ResultCache; every connection carries a single request line
/// (serve/request.*) and receives a single response stream.  Requests
/// are handled one at a time in accept order — determinism needs no
/// further care because each response is a pure function of its
/// request, and concurrent clients simply queue on the socket backlog.
///
/// Shutdown: SIGTERM/SIGINT set a flag checked between connections, so
/// an in-flight request always drains before the listener closes and
/// the socket path is unlinked; `run()` then returns 0.  SIGPIPE is
/// ignored — a client that disconnects mid-stream only fails its own
/// response writes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "exp/runner.hpp"
#include "serve/options.hpp"
#include "shard/plan.hpp"
#include "shard/row_cache.hpp"

namespace diac::serve {

/// Evaluates the plan's slice of the `kind` sweep ("mc" | "replay" |
/// "search") that `options` describe over `nl` and writes it to `out` as
/// a shard file: the body of every served request and of `diac
/// shard-worker`.  `preamble` is written once the options are validated,
/// before the sweep runs (serve's `ok` line).  Throws on bad options or
/// an unknown kind (before the preamble) and on evaluation failures
/// (after it: the missing `end` trailer marks the stream incomplete).
void write_sweep_shard(std::ostream& out, const std::string& kind,
                       const Netlist& nl, const OptionMap& options,
                       const ShardPlan& plan, ExperimentRunner& runner,
                       RowCache* cache, const std::string& preamble = "");

/// Configuration of one server process.
struct ServerOptions {
  std::string socket_path;  ///< unix-domain socket to listen on (required)
  std::string cache_dir;    ///< result-cache root; empty disables caching
  std::uint64_t cache_limit_bytes = 1024ULL << 20;  ///< LRU cap (0 = unbounded)
  int threads = 0;  ///< simulation threads (0 = all cores)
};

/// Listens on `options.socket_path` and serves sweep requests until a
/// SIGTERM/SIGINT arrives.  Returns 0 on clean shutdown; throws on
/// setup failure (bad socket path, unusable cache directory).
int serve_forever(const ServerOptions& options);

}  // namespace diac::serve
