// The benchmark's workloads: which datasets each registers, how many
// closed-loop clients drive it, and the request lines every client sends.
// The tables are fixed per workload; every request derives from the
// workload seed, so one seed always yields the same lines. The daemon only
// ever sees the generated lines.

#ifndef FAIRHMS_PERFBENCH_WORKLOADS_H_
#define FAIRHMS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"

namespace fairhms {
namespace perfbench {

/// One dataset a workload registers through a `register` op.
struct TenantSpec {
  std::string name;
  std::string family;  ///< Synthetic generator family.
  int64_t n = 0;
  int dim = 0;
  int groups = 0;
  uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TenantSpec> tenants;
  int clients = 0;
  /// Timed replies per client folded into the output digest. A run keeps
  /// its clients going past the deadline until each has this many, so the
  /// digest covers the same lines on every run of one seed.
  size_t digest_lines = 0;
};

/// "md_cold", "md_warm" or "lite_churn"; `small` shrinks every dataset so
/// the three workloads run end to end in seconds.
StatusOr<WorkloadSpec> MakeWorkload(const std::string& name, bool small);

/// The `register` op line for a tenant.
std::string RegisterLine(const TenantSpec& tenant);

/// The request stream of one client. Lines may depend on earlier replies
/// (deletes pick rows from the client's last answer), never on timing.
class ClientScript {
 public:
  ClientScript(const WorkloadSpec& spec, int client, uint64_t seed);

  /// Lines run once before timing (counted in set-up time).
  std::vector<std::string> WarmupLines();
  /// The next timed request line.
  std::string Next();
  /// Feeds back the reply to the line Next() returned last.
  void Observe(const std::string& reply);

  bool last_is_write() const { return last_is_write_; }

 private:
  std::string QueryLine(const std::string& algorithm, int k,
                        const char* bounds, double alpha, uint64_t seed);
  std::string MdCold();
  std::string MdWarm();
  std::string LiteChurn();

  const WorkloadSpec& spec_;
  const int client_;
  const TenantSpec* tenant_;  ///< The dataset this client queries.
  Rng rng_;
  uint64_t query_seed_ = 0;  ///< Fixed per tenant (md_warm, lite_churn).
  uint64_t sent_ = 0;
  bool last_is_write_ = false;

  // md_warm: the (algorithm, k, bounds, alpha) grid, swept in cycles.
  struct Combo {
    const char* algorithm;
    int k;
    const char* bounds;
    double alpha;
  };
  std::vector<Combo> combos_;
  size_t combo_pos_ = 0;

  // lite_churn: skyline rows of the registered table (insert anchors) and
  // the rows of the client's last answer (delete candidates).
  std::vector<std::vector<double>> band_;
  std::vector<int> last_rows_;
  std::set<int> deleted_;
};

}  // namespace perfbench
}  // namespace fairhms

#endif  // FAIRHMS_PERFBENCH_WORKLOADS_H_
