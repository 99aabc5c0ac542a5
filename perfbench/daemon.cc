#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/string_util.h"

extern char** environ;

namespace fairhms {
namespace perfbench {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Daemon::~Daemon() { Stop(); }

Status Daemon::Start(const std::vector<std::string>& argv,
                     const std::string& stderr_path, double timeout_ms) {
  int out[2];
  if (::pipe(out) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    return Status::Internal(
        StrFormat("cannot spawn %s: %s", args[0], std::strerror(rc)));
  }
  pid_ = pid;
  stdout_fd_ = out[0];
  stderr_path_ = stderr_path;

  // The banner ends with a line containing "ready".
  std::string banner;
  const double deadline = NowMs() + timeout_ms;
  char chunk[512];
  while (banner.find("ready") == std::string::npos) {
    const double left = deadline - NowMs();
    if (left <= 0) return Status::DeadlineExceeded("daemon not ready in time");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      return Status::Unavailable("daemon exited before ready: " + banner);
    }
    banner.append(chunk, static_cast<size_t>(n));
  }
  return Status::OK();
}

std::string Daemon::Stop(double timeout_ms) {
  if (pid_ <= 0) return "";
  ::kill(pid_, SIGTERM);
  const double deadline = NowMs() + timeout_ms;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowMs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  std::ifstream in(stderr_path_);
  std::stringstream report;
  report << in.rdbuf();
  return report.str();
}

Connection::~Connection() { Close(); }

Status Connection::Connect(const std::string& unix_path) {
  Close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (unix_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + unix_path);
  }
  std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable(
        StrFormat("cannot connect to %s: %s", unix_path.c_str(),
                  std::strerror(errno)));
  }
  return Status::OK();
}

Status Connection::RoundTrip(const std::string& line, std::string* reply,
                             double timeout_ms) {
  const std::string framed = line + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("send failed");
    off += static_cast<size_t>(n);
  }
  const double deadline = NowMs() + timeout_ms;
  char chunk[65536];
  size_t nl;
  while ((nl = buffer_.find('\n')) == std::string::npos) {
    const double left = deadline - NowMs();
    if (left <= 0) return Status::DeadlineExceeded("no reply in time");
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("connection closed");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  reply->assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return Status::OK();
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in(StrFormat("/proc/%d/stat", static_cast<int>(pid)));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in(StrFormat("/proc/%d/status", static_cast<int>(pid)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace perfbench
}  // namespace fairhms
