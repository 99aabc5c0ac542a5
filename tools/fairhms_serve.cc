// fairhms_serve: a long-lived daemon serving the FairHMS wire protocol
// (docs/protocol.md) to concurrent clients over a unix-domain socket, a
// TCP socket, or both. It is a thin transport: every request line goes
// through the same ProtocolService that backs `fairhms_cli`, so the two
// cannot drift: both answer in the one envelope (protocol_version 1,
// structured errors, per-response "seq").
//
//   fairhms_serve --synthetic=independent --n=10000 --groups=3 --port=0
//   fairhms_serve --snapshot_load=warm.snap --unix=/tmp/fairhms.sock
//       --workers=8 --rate_limit=200 --queue_deadline_ms=5000
//
// Lifecycle: SIGTERM / SIGINT drain gracefully (stop accepting, serve
// everything admitted, then exit 0 with a cache report on stderr); SIGHUP
// snapshot-reloads the catalog through --reload_dir (save every dataset,
// then drop + reload each from its fresh snapshot, quiescing in-flight
// requests via the service's catalog lock).
//
// The binary doubles as a line-oriented client (`--client`) so tests and
// CI can talk to the daemon without external tooling: stdin JSONL is
// streamed to the server, one response line is read back per request line
// and printed to stdout; exit 3 when any response carries "ok": false.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "api/catalog.h"
#include "api/server.h"
#include "api/service.h"
#include "cli_util.h"
#include "common/string_util.h"

namespace fairhms {
namespace {

constexpr char kUsage[] = R"(fairhms_serve: concurrent FairHMS daemon.

Listeners (at least one):
  --unix=PATH              unix-domain socket (an existing file is replaced)
  --port=N                 TCP port (0 = ephemeral; the bound port is
                           printed on the ready line)
  --host=ADDR              TCP bind address (default 127.0.0.1)

Dataset bootstrap (registers as "default"; same flags as fairhms_cli):
  --csv=PATH --numeric=a,b [--categorical=x,y]   headered CSV file
  --synthetic=NAME [--n=N] [--dim=D]             generator family
  --snapshot_load=PATH                           warm-start from a snapshot
  --normalize=MODE         minmax (default) | max | none
  --groups=C | --group_by=col[,col2]             grouping
  --seed=S --threads=N     defaults for queries without their own
  --global_cache_budget_mb=N   process-wide cache budget (default 1024)
  --simd=auto|off          kernel dispatch: auto (default; best level the
                           CPU supports) or off (forced scalar). Overrides
                           the FAIRHMS_SIMD environment variable; results
                           are bit-identical either way

Serving:
  --workers=N              worker threads (default 4)
  --max_queue=N            admission queue bound (default 1024); beyond it
                           lines are refused with Unavailable
  --rate_limit=QPS         per-connection sustained requests/second
                           (token bucket; 0 = unlimited)
  --rate_burst=N           token-bucket burst (default: same as the rate)
  --queue_deadline_ms=MS   max queue wait before a line is refused with
                           DeadlineExceeded (0 = no deadline)
  --max_line_bytes=N       longest accepted request line (default 1 MiB)
  --reload_dir=DIR         SIGHUP snapshot-reload directory (each dataset
                           is saved to DIR/<name>.snap, then reloaded)

Signals:
  SIGTERM / SIGINT         graceful drain, cache report on stderr, exit 0
  SIGHUP                   snapshot-reload the catalog via --reload_dir

Client mode (line-oriented; for tests, CI and scripting):
  --client --unix=PATH | --client --port=N [--host=ADDR]
                           stream stdin JSONL to the server, print one
                           response line per request line; exit 3 when any
                           response carries "ok": false
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "fairhms_serve: %s\n", status.ToString().c_str());
  return 1;
}

/// Flags a run may leave unread without it being a typo.
const std::set<std::string>& DocumentedFlags() {
  static const std::set<std::string> documented = {
      "unix", "port", "host", "csv", "numeric", "categorical", "synthetic",
      "n", "dim", "snapshot_load", "normalize", "groups", "group_by", "seed",
      "threads", "global_cache_budget_mb", "simd", "workers",
      "max_queue", "rate_limit", "rate_burst", "queue_deadline_ms",
      "max_line_bytes", "reload_dir", "client", "help"};
  return documented;
}

// ---------------------------------------------------------------------------
// Client mode.

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int ConnectTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Streams stdin request lines to the server and prints one response line
/// per request. The write side stays open until every response arrived:
/// the server cancels queued work of disconnected clients, so a premature
/// shutdown would drop in-flight requests.
int RunClient(const cli::Flags& flags) {
  const std::string unix_path = flags.GetString("unix", "");
  const int port = flags.GetInt("port", -1);
  const std::string host = flags.GetString("host", "127.0.0.1");
  if (Status st = flags.Finish("fairhms_serve", DocumentedFlags());
      !st.ok()) {
    return Fail(st);
  }
  int fd = -1;
  if (!unix_path.empty()) {
    fd = ConnectUnix(unix_path);
  } else if (port >= 0) {
    fd = ConnectTcp(host, port);
  } else {
    return Fail(Status::InvalidArgument(
        "--client needs --unix=PATH or --port=N to connect to"));
  }
  if (fd < 0) {
    return Fail(Status::Unavailable(
        StrFormat("cannot connect (%s)", std::strerror(errno))));
  }

  // Writer thread: forward stdin lines as they arrive, so responses can be
  // consumed concurrently (a bounded server queue plus a full socket
  // buffer must not deadlock a large pipelined batch).
  std::atomic<uint64_t> sent{0};
  std::atomic<bool> input_done{false};
  std::atomic<bool> send_failed{false};
  std::thread writer([&] {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (Trim(line).empty()) continue;
      line.push_back('\n');
      if (!SendAll(fd, line)) {
        send_failed.store(true);
        break;
      }
      sent.fetch_add(1);
    }
    input_done.store(true);
  });

  // Reader: one response line per request line, in server completion
  // order. Done when the input is exhausted and every sent line has been
  // answered. The recv is guarded by a short poll so the exit condition is
  // re-checked periodically: the final response can arrive and be consumed
  // *before* the writer thread gets scheduled to store input_done, and a
  // bare blocking recv taken in that window would sleep forever — the
  // server never closes the connection from its side, and the client must
  // not half-close first (the server reads EOF as "client gone" and
  // cancels still-queued work).
  uint64_t received = 0;
  bool any_failed = false;
  bool disconnected = false;
  std::string buffer;
  char chunk[65536];
  while (!(input_done.load() && received >= sent.load())) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 50);
    if (ready < 0 && errno != EINTR) {
      disconnected = true;
      break;
    }
    if (ready <= 0) continue;  // Timeout or EINTR: re-check the condition.
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      disconnected = true;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string response = buffer.substr(start, nl - start);
      start = nl + 1;
      ++received;
      if (response.find("\"ok\": false") != std::string::npos) {
        any_failed = true;
      }
      std::fwrite(response.data(), 1, response.size(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
    }
    buffer.erase(0, start);
  }
  writer.join();
  ::close(fd);
  if (send_failed.load() || (disconnected && received < sent.load())) {
    std::fprintf(stderr,
                 "fairhms_serve: connection lost after %llu of %llu "
                 "responses\n",
                 static_cast<unsigned long long>(received),
                 static_cast<unsigned long long>(sent.load()));
    return 1;
  }
  return any_failed ? 3 : 0;
}

// ---------------------------------------------------------------------------
// Daemon mode.

int RunDaemon(const cli::Flags& flags) {
  auto service_opts = cli::ServiceOptionsFromFlags(flags);
  if (!service_opts.ok()) return Fail(service_opts.status());
  // Bootstrap the "default" dataset exactly like fairhms_cli.
  auto catalog = cli::BootstrapCatalog(flags, service_opts->default_seed);
  if (!catalog.ok()) return Fail(catalog.status());
  ProtocolService service(catalog->get(), *service_opts);

  ServerOptions server_opts;
  server_opts.unix_path = flags.GetString("unix", "");
  server_opts.tcp_port = flags.GetInt("port", -1);
  server_opts.tcp_host = flags.GetString("host", "127.0.0.1");
  server_opts.workers = flags.GetInt("workers", 4);
  if (server_opts.workers < 1 || server_opts.workers > 1024) {
    return Fail(Status::InvalidArgument("--workers must be in [1, 1024]"));
  }
  const int64_t max_queue = flags.GetInt64("max_queue", 1024);
  if (max_queue < 1) {
    return Fail(Status::InvalidArgument("--max_queue must be >= 1"));
  }
  server_opts.max_queue = static_cast<size_t>(max_queue);
  server_opts.rate_limit_per_sec = flags.GetDouble("rate_limit", 0.0);
  server_opts.rate_limit_burst = flags.GetDouble("rate_burst", 0.0);
  server_opts.queue_deadline_ms = flags.GetDouble("queue_deadline_ms", 0.0);
  if (server_opts.rate_limit_per_sec < 0.0 ||
      server_opts.rate_limit_burst < 0.0 ||
      server_opts.queue_deadline_ms < 0.0) {
    return Fail(Status::InvalidArgument(
        "--rate_limit/--rate_burst/--queue_deadline_ms must be >= 0"));
  }
  const int64_t max_line = flags.GetInt64("max_line_bytes", 1 << 20);
  if (max_line < 64) {
    return Fail(Status::InvalidArgument("--max_line_bytes must be >= 64"));
  }
  server_opts.max_line_bytes = static_cast<size_t>(max_line);

  const std::string reload_dir = flags.GetString("reload_dir", "");
  if (Status st = flags.Finish("fairhms_serve", DocumentedFlags());
      !st.ok()) {
    return Fail(st);
  }

  // Block the lifecycle signals in every thread the server is about to
  // spawn (they inherit this mask); the main thread collects them via
  // sigwait below — no async-signal-safety gymnastics in handlers.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // Client hangups surface as send() errors.

  Server server(&service, server_opts);
  if (Status st = server.Start(); !st.ok()) return Fail(st);

  // The ready banner is the machine-readable contract for scripts: one
  // line per listener, then "ready". An ephemeral --port=0 resolves here.
  if (!server_opts.unix_path.empty()) {
    std::printf("fairhms_serve: listening on unix:%s\n",
                server_opts.unix_path.c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("fairhms_serve: listening on tcp:%s:%d\n",
                server_opts.tcp_host.c_str(), server.tcp_port());
  }
  std::printf("fairhms_serve: ready (workers=%d, protocol=%d)\n",
              server_opts.workers, kProtocolVersion);
  std::fflush(stdout);

  for (;;) {
    int sig = 0;
    if (sigwait(&sigs, &sig) != 0) continue;
    if (sig == SIGHUP) {
      if (reload_dir.empty()) {
        std::fprintf(stderr,
                     "fairhms_serve: SIGHUP ignored (no --reload_dir)\n");
        continue;
      }
      if (Status st = service.SnapshotReload(reload_dir); st.ok()) {
        std::fprintf(stderr,
                     "fairhms_serve: catalog snapshot-reloaded from %s\n",
                     reload_dir.c_str());
      } else {
        std::fprintf(stderr, "fairhms_serve: snapshot reload failed: %s\n",
                     st.ToString().c_str());
      }
      continue;
    }
    break;  // SIGTERM / SIGINT: drain below.
  }

  server.Drain();

  // Final report, mirroring fairhms_cli's plus the server's own counters.
  cli::PrintCacheReport(
      "fairhms_serve",
      StrFormat("served %llu lines (%llu updates, %llu failed); "
                "connections %llu, rejected %llu, cancelled %llu",
                static_cast<unsigned long long>(service.served()),
                static_cast<unsigned long long>(service.updates()),
                static_cast<unsigned long long>(service.failed()),
                static_cast<unsigned long long>(
                    server.connections_accepted()),
                static_cast<unsigned long long>(server.rejected()),
                static_cast<unsigned long long>(server.cancelled())),
      catalog->get());
  return 0;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  if (flags.Has("help") || argc <= 1) {
    std::fputs(kUsage, stdout);
    return argc <= 1 ? 1 : 0;
  }
  if (flags.Has("client")) return RunClient(flags);
  if (!flags.Has("unix") && !flags.Has("port")) {
    return Fail(Status::InvalidArgument(
        "pass --unix=PATH and/or --port=N (0 = ephemeral) to listen on"));
  }
  return RunDaemon(flags);
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
