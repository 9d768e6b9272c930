// The benchmark's workloads: query templates, literal domains and the seeded
// operation streams each client runs. Everything here is a pure function of
// the workload name and the seed, so two runs with one seed issue the same
// operations in the same order per client, whatever the thread timing.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "decorr/rewrite/strategy.h"

namespace perfbench {

// The paper's four evaluation queries (Section 5.3).
enum class Template { kQ1, kQ1Variant, kQ2, kQ3 };

const char* TemplateName(Template t);

// One template with its literals filled in.
struct Instance {
  Template tmpl = Template::kQ1;
  std::vector<std::string> literals;  // template parameters, in order

  std::string DecorrSql() const;
  // The same query in SQLite's dialect (differs only for Q3; see the .cc).
  std::string SqliteSql() const;
  std::string Key() const;  // "Q1|FRANCE|15|BRASS"
};

// Every literal combination a template can take (for the self-tests).
std::vector<Instance> AllInstances(Template t);

enum class OpKind {
  kQuery,  // run instances[instance] under `strategy`
  kWrite,  // Server::Mutate: append kWriteBatchRows rows + ANALYZE
  kCount,  // SELECT COUNT(*) on the side table; must equal rows appended
};

struct Op {
  OpKind kind = OpKind::kQuery;
  int instance = -1;
  decorr::Strategy strategy = decorr::Strategy::kNestedIteration;
};

// Side table the served workload writes; no template reads it.
inline constexpr const char* kSideTable = "bench_events";
inline constexpr int kWriteBatchRows = 8;
std::string SideTableCountSql();

struct WorkloadSpec {
  std::string name;
  double scale_factor = 0.1;
  bool partsupp_indexes = true;  // false: Figure 7's configuration
  bool served = false;           // through Server/Session, else Database
  int clients = 1;
};

struct Workload {
  WorkloadSpec spec;
  // Distinct query instances; the oracle answers each one once.
  std::vector<Instance> instances;
  // blocks[c] is client c's stream, cut into blocks that a run attempts
  // whole; a client runs blocks 0, 1, 2, ... cycling past the last.
  std::vector<std::vector<std::vector<Op>>> blocks;
};

// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Builds the named workload's instances and streams from `seed`. Returns
// false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Deterministic 64-bit generator (splitmix64); the standard library's
// distributions are implementation-defined, so streams use this directly.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
