// The traced run's instruments, recorded from the benchmark's own code
// around calls into decorr's public module entry points.
//
// A query is driven through the same pipeline Database::Execute runs —
// ParseQuery -> Bind -> ChooseStrategy (kAuto only) -> ApplyStrategy (with a
// span per rule from its on_step hook) -> PruneRedundantDedup -> Validate ->
// Planner::PlanQuery -> open and drain the root — with a span around each
// call. Spans are kept in memory and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "decorr/catalog/catalog.h"
#include "decorr/exec/metrics.h"
#include "decorr/exec/operator.h"
#include "decorr/rewrite/strategy.h"

namespace perfbench {

int64_t NowNanos();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a query's root
  int query = 0;    // one id per traced query
};

class Tracer {
 public:
  // Opens a span; returns its index.
  int Begin(const std::string& name, int parent, int query);
  void End(int span);
  // Records an already-finished span.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, int query);
  const std::vector<Span>& spans() const { return spans_; }
  // Writes the spans as one JSON array of objects.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Rule names ApplyStrategy and PruneRedundantDedup report through on_step.
const std::vector<std::string>& RewriteRuleNames();

// One query through the traced pipeline.
struct TracedQuery {
  std::vector<decorr::Row> rows;
  decorr::ExecStats stats;
  int64_t parse_ns = 0;
  int64_t bind_ns = 0;
  int64_t choose_ns = 0;  // kAuto only
  int64_t apply_ns = 0;
  int64_t prune_ns = 0;
  int64_t validate_ns = 0;
  int64_t plan_ns = 0;
  int64_t exec_ns = 0;
  int64_t steps = 0;
  std::map<std::string, int64_t> rule_ns;     // per on_step rule name
  std::map<std::string, int64_t> rule_count;
  int64_t total_ns = 0;  // sum of the phase spans
};

// Runs `sql` under `strategy` with default QueryOptions otherwise. Returns
// false with `error` set when any stage fails.
bool RunTraced(const decorr::Catalog& catalog, const std::string& sql,
               decorr::Strategy strategy, int query_id, Tracer* tracer,
               TracedQuery* out, std::string* error);

// Per-operator self time (a node's total minus its children's totals),
// summed by operator kind ("SeqScan(parts)" counts as "SeqScan").
void AddSelfTimes(const decorr::MetricsNode& node,
                  std::map<std::string, int64_t>* self_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
