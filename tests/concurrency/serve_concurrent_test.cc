// In-process Server integration tests: several concurrent TCP clients run
// a mixed query/update workload and the merged response log — ordered by
// the envelope's "seq" linearization stamp — must replay bit-identically
// (timing fields normalized) through a fresh single-threaded
// ProtocolService over an identically bootstrapped catalog. Plus: graceful
// drain stops accepting but answers everything admitted, SnapshotReload
// keeps query results stable across a live reload, and per-connection rate
// limiting surfaces as ResourceExhausted error responses.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/protocol.h"
#include "api/server.h"
#include "api/service.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"

namespace fairhms {
namespace {

/// The shared bootstrap: both the served catalog and the replay catalog
/// are built exactly like this, so replayed responses can be compared
/// byte-for-byte.
void Bootstrap(DatasetCatalog* catalog) {
  {
    Rng rng(77);
    Dataset data = GenIndependent(80, 3, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, 2);
    ASSERT_TRUE(
        catalog->Register("default", std::move(data), std::move(grouping))
            .ok());
  }
  {
    Rng rng(88);
    Dataset data = GenIndependent(60, 3, &rng).NormalizedMinMax();
    Grouping grouping = GroupBySumRank(data, 3);
    ASSERT_TRUE(
        catalog->Register("other", std::move(data), std::move(grouping))
            .ok());
  }
}

ServiceOptions ServiceOpts() {
  ServiceOptions opts;
  opts.default_seed = 7;
  opts.default_threads = 1;
  return opts;
}

/// Blocking loopback TCP client: connects, writes every line, then reads
/// until `expect` newline-terminated responses arrived.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      ADD_FAILURE() << "socket: " << strerror(errno);
      failed_ = true;
      return;
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ADD_FAILURE() << "connect: " << strerror(errno);
      failed_ = true;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0 && !failed_; }

  void Send(const std::vector<std::string>& lines) {
    std::string payload;
    for (const std::string& line : lines) payload += line + "\n";
    size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::send(fd_, payload.data() + off, payload.size() - off, 0);
      if (n <= 0) {
        failed_ = true;
        return;
      }
      off += static_cast<size_t>(n);
    }
  }

  std::vector<std::string> Receive(size_t expect) {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    while (lines.size() < expect) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        failed_ = true;
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
      size_t pos;
      while ((pos = buffer.find('\n')) != std::string::npos) {
        lines.push_back(buffer.substr(0, pos));
        buffer.erase(0, pos + 1);
      }
    }
    return lines;
  }

 private:
  int fd_ = -1;
  bool failed_ = false;
};

std::string NormalizeTimings(std::string s) {
  // The warm_start telemetry flag is stripped like the timings: whether a
  // solve found a warm memo hint depends on scheduling (a concurrent
  // solve may or may not have published its memo yet), while the seq-
  // order replay is single-threaded and always sees the memo — the
  // advisory hint never changes the solution bytes, only this flag.
  static const std::string kWarmStart = ", \"warm_start\": true";
  for (size_t pos; (pos = s.find(kWarmStart)) != std::string::npos;) {
    s.erase(pos, kWarmStart.size());
  }
  for (const char* key : {"solve_ms", "total_ms"}) {
    const std::string needle = std::string("\"") + key + "\": ";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      size_t end = start;
      while (end < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[end])) ||
              std::strchr(".eE+-", s[end]) != nullptr)) {
        ++end;
      }
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  return s;
}

/// Extracts an integer envelope field (`"seq": 12`), or -1 when absent.
int64_t IntField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(line.c_str() + pos + needle.size(), nullptr, 10);
}

/// The mixed per-client workload. Deletes use a distinct row per client so
/// every line succeeds regardless of interleaving; inserts carry
/// client-specific coordinates so a routing mix-up cannot cancel out.
std::vector<std::string> ClientBattery(int c) {
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i) {
    lines.push_back(StrFormat(
        "{\"id\": \"c%d-q%d\", \"algorithm\": \"intcov\", \"k\": %d, "
        "\"alpha\": 0.2, \"threads\": 1, \"dataset\": \"%s\"}",
        c, i, 4 + i % 2, i % 2 == 0 ? "default" : "other"));
  }
  lines.push_back(StrFormat(
      "{\"id\": \"c%d-big\", \"algorithm\": \"bigreedy\", \"k\": 4, "
      "\"threads\": 1, \"params\": {\"net_size\": 64}}",
      c));
  lines.push_back(StrFormat(
      "{\"id\": \"c%d-ins\", \"op\": \"insert\", \"point\": "
      "[0.9, 0.%d, 0.5], \"group\": 0}",
      c, c + 1));
  lines.push_back(StrFormat(
      "{\"id\": \"c%d-del\", \"op\": \"delete\", \"dataset\": \"other\", "
      "\"rows\": [%d]}",
      c, c));
  lines.push_back(StrFormat("{\"id\": \"c%d-ls\", \"op\": \"list\"}", c));
  return lines;
}

TEST(ServeConcurrentTest, MergedLogReplaysBitIdentically) {
  DatasetCatalog catalog;
  Bootstrap(&catalog);
  ProtocolService service(&catalog, ServiceOpts());
  ServerOptions server_opts;
  server_opts.tcp_port = 0;  // Ephemeral.
  server_opts.workers = 4;
  Server server(&service, server_opts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.tcp_port();
  ASSERT_GT(port, 0);

  constexpr int kClients = 6;
  std::vector<std::vector<std::string>> requests(kClients);
  std::vector<std::vector<std::string>> responses(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      requests[static_cast<size_t>(c)] = ClientBattery(c);
      threads.emplace_back([&, c] {
        Client client(port);
        const auto& lines = requests[static_cast<size_t>(c)];
        client.Send(lines);
        responses[static_cast<size_t>(c)] = client.Receive(lines.size());
        EXPECT_TRUE(client.ok()) << "client " << c;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  server.Drain();

  // Every line answered, every answer ok, every answer stamped with seq.
  std::map<std::string, std::string> by_id;  // "c0-q1" -> response line
  std::vector<std::pair<int64_t, size_t>> order;  // (seq, index into flat)
  std::vector<std::pair<std::string, std::string>> flat;  // (req, resp)
  for (int c = 0; c < kClients; ++c) {
    const auto& reqs = requests[static_cast<size_t>(c)];
    const auto& resps = responses[static_cast<size_t>(c)];
    ASSERT_EQ(resps.size(), reqs.size()) << "client " << c;
    for (const std::string& resp : resps) {
      EXPECT_NE(resp.find("\"ok\": true"), std::string::npos) << resp;
      const int64_t seq = IntField(resp, "seq");
      ASSERT_GT(seq, 0) << resp;
      // Match the response to its request by the unique id.
      const size_t id_start = resp.find("\"id\": \"") + 7;
      const std::string id =
          resp.substr(id_start, resp.find('"', id_start) - id_start);
      ASSERT_EQ(by_id.count(id), 0u) << "duplicate id " << id;
      by_id[id] = resp;
      const std::string* req = nullptr;
      for (const std::string& line : reqs) {
        if (line.find("\"id\": \"" + id + "\"") != std::string::npos) {
          req = &line;
        }
      }
      ASSERT_NE(req, nullptr) << id;
      order.emplace_back(seq, flat.size());
      flat.emplace_back(*req, resp);
    }
  }
  // Seq numbers are a contiguous 1..M linearization.
  std::sort(order.begin(), order.end());
  ASSERT_EQ(order.size(), flat.size());
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i].first, static_cast<int64_t>(i + 1))
        << "seq numbers must be contiguous";
  }
  EXPECT_EQ(service.served(), order.size());
  EXPECT_EQ(service.failed(), 0u);

  // Serial replay in seq order through a fresh service must reproduce
  // every response byte-for-byte (timings normalized).
  DatasetCatalog replay_catalog;
  Bootstrap(&replay_catalog);
  ProtocolService replay(&replay_catalog, ServiceOpts());
  for (size_t i = 0; i < order.size(); ++i) {
    const auto& [req, resp] = flat[order[i].second];
    const std::string replayed = replay.HandleLine(req, i + 1);
    EXPECT_EQ(NormalizeTimings(replayed), NormalizeTimings(resp))
        << "divergence at seq " << i + 1 << " for request " << req;
  }
}

TEST(ServeConcurrentTest, DrainAnswersAdmittedWorkAndStopsAccepting) {
  DatasetCatalog catalog;
  Bootstrap(&catalog);
  ProtocolService service(&catalog, ServiceOpts());
  ServerOptions server_opts;
  server_opts.tcp_port = 0;
  server_opts.workers = 2;
  Server server(&service, server_opts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.tcp_port();

  Client client(port);
  std::vector<std::string> lines;
  for (int i = 0; i < 10; ++i) {
    lines.push_back(StrFormat(
        "{\"id\": %d, \"algorithm\": \"intcov\", \"k\": 4, \"threads\": 1}",
        i));
  }
  client.Send(lines);
  const std::vector<std::string> resps = client.Receive(lines.size());
  ASSERT_EQ(resps.size(), lines.size());
  server.Drain();
  server.Drain();  // Idempotent.
  EXPECT_EQ(service.served(), lines.size());

  // The listener is gone: a fresh connect must fail.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

TEST(ServeConcurrentTest, SnapshotReloadKeepsQueryResultsStable) {
  DatasetCatalog catalog;
  Bootstrap(&catalog);
  ProtocolService service(&catalog, ServiceOpts());
  ServerOptions server_opts;
  server_opts.tcp_port = 0;
  Server server(&service, server_opts);
  ASSERT_TRUE(server.Start().ok());

  const std::string query =
      "{\"id\": \"q\", \"algorithm\": \"intcov\", \"k\": 5, "
      "\"threads\": 1}";
  auto rows_of = [](const std::string& resp) {
    const size_t pos = resp.find("\"rows\": [");
    EXPECT_NE(pos, std::string::npos) << resp;
    return resp.substr(pos, resp.find(']', pos) + 1 - pos);
  };

  Client before(server.tcp_port());
  before.Send({query});
  const std::vector<std::string> pre = before.Receive(1);
  ASSERT_EQ(pre.size(), 1u);
  ASSERT_NE(pre[0].find("\"ok\": true"), std::string::npos) << pre[0];

  char dir_template[] = "serve_reload_XXXXXX";
  char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  ASSERT_TRUE(service.SnapshotReload(dir).ok());

  Client after(server.tcp_port());
  after.Send({query});
  const std::vector<std::string> post = after.Receive(1);
  ASSERT_EQ(post.size(), 1u);
  ASSERT_NE(post[0].find("\"ok\": true"), std::string::npos) << post[0];
  EXPECT_EQ(rows_of(pre[0]), rows_of(post[0]));

  server.Drain();
  for (const char* name : {"default.snap", "other.snap"}) {
    std::remove((std::string(dir) + "/" + name).c_str());
  }
  ::rmdir(dir);
}

TEST(ServeConcurrentTest, RateLimitRejectsWithResourceExhausted) {
  DatasetCatalog catalog;
  Bootstrap(&catalog);
  ProtocolService service(&catalog, ServiceOpts());
  ServerOptions server_opts;
  server_opts.tcp_port = 0;
  server_opts.rate_limit_per_sec = 0.5;
  server_opts.rate_limit_burst = 2.0;
  Server server(&service, server_opts);
  ASSERT_TRUE(server.Start().ok());

  Client client(server.tcp_port());
  std::vector<std::string> lines;
  for (int i = 0; i < 30; ++i) {
    lines.push_back(StrFormat("{\"id\": %d, \"op\": \"list\"}", i));
  }
  client.Send(lines);
  const std::vector<std::string> resps = client.Receive(lines.size());
  ASSERT_EQ(resps.size(), lines.size());
  size_t ok = 0, limited = 0;
  for (const std::string& resp : resps) {
    if (resp.find("\"ok\": true") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(resp.find("\"error\": {\"code\": \"ResourceExhausted\""),
                std::string::npos)
          << resp;
      ++limited;
    }
  }
  // The bucket starts at the burst (2 tokens) and refills at 0.5/s: the
  // burst is always admitted, and 30 back-to-back lines cannot all be.
  EXPECT_GE(ok, 2u);
  EXPECT_GE(limited, 1u);
  EXPECT_EQ(server.rejected(), limited);
  server.Drain();
}

}  // namespace
}  // namespace fairhms
