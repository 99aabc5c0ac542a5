// The daemon under test as a child process, a line-oriented connection to
// its unix socket, and the /proc readings the benchmark takes from outside.

#ifndef FAIRHMS_PERFBENCH_DAEMON_H_
#define FAIRHMS_PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace fairhms {
namespace perfbench {

/// A spawned fairhms_serve. The destructor stops it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it, so no path leaves a daemon behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `argv` with stdout on a pipe and stderr appended to
  /// `stderr_path`, then waits up to `timeout_ms` for the "ready" banner.
  Status Start(const std::vector<std::string>& argv,
               const std::string& stderr_path, double timeout_ms);

  /// SIGTERM (graceful drain) and reap; SIGKILL when the drain outlasts
  /// `timeout_ms`. Returns the drain report the daemon wrote to stderr.
  /// Idempotent.
  std::string Stop(double timeout_ms = 30000.0);

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string stderr_path_;
};

/// One client connection: sends a request line, blocks for its reply line.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Connect(const std::string& unix_path);
  /// Sends `line` (no trailing newline) and reads one reply line into
  /// `*reply`. Fails on a closed socket or when no reply arrives within
  /// `timeout_ms`.
  Status RoundTrip(const std::string& line, std::string* reply,
                   double timeout_ms);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// User + system CPU time of a process, all threads, in ms (-1 on error).
double ProcessCpuMs(pid_t pid);

/// Peak resident set (VmHWM) of a process in MiB (-1 on error).
double ProcessPeakRssMb(pid_t pid);

}  // namespace perfbench
}  // namespace fairhms

#endif  // FAIRHMS_PERFBENCH_DAEMON_H_
