#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "decorr/binder/binder.h"
#include "decorr/common/resource.h"
#include "decorr/parser/parser.h"
#include "decorr/planner/cost.h"
#include "decorr/planner/planner.h"
#include "decorr/qgm/validate.h"
#include "decorr/rewrite/prune.h"
#include "decorr/runtime/database.h"

namespace perfbench {

using decorr::Strategy;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, int parent, int query) {
  const int64_t now = NowNanos();
  return Add(name, now, now, parent, query);
}

void Tracer::End(int span) { spans_[span].end_ns = NowNanos(); }

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent, int query) {
  spans_.push_back({name, start_ns, end_ns, parent, query});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"query\":%d}\n",
                 i ? "," : "", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.query);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

const std::vector<std::string>& RewriteRuleNames() {
  static const std::vector<std::string> names = {
      "feed",         "absorb-spj",      "absorb-groupby", "absorb-union",
      "merge-select", "remove-identity", "gc",             "prune-dedup",
      "kim",          "dayal"};
  return names;
}

bool RunTraced(const decorr::Catalog& catalog, const std::string& sql,
               Strategy strategy, int query_id, Tracer* tracer,
               TracedQuery* out, std::string* error) {
  *out = TracedQuery();
  const int root = tracer->Begin("query", -1, query_id);
  // Times one stage as a child span of the query; `ns` receives its length.
  auto stage = [&](const char* name, int64_t* ns, auto&& fn) -> bool {
    const int span = tracer->Begin(name, root, query_id);
    const bool ok = fn(span);
    tracer->End(span);
    const Span& s = tracer->spans()[span];
    *ns = s.end_ns - s.start_ns;
    out->total_ns += *ns;
    return ok;
  };
  auto check = [&](const decorr::Status& st) {
    if (!st.ok()) *error = st.ToString();
    return st.ok();
  };
  // on_step fires after each rule application: a rule's span runs from the
  // previous boundary to the notification.
  int64_t mark = 0;
  int step_parent = -1;
  decorr::RewriteStepFn on_step =
      [&](const std::string& rule) -> decorr::Status {
    const int64_t now = NowNanos();
    tracer->Add("rule:" + rule, mark, now, step_parent, query_id);
    out->rule_ns[rule] += now - mark;
    ++out->rule_count[rule];
    ++out->steps;
    mark = NowNanos();
    return decorr::Status::OK();
  };

  decorr::AstQueryPtr ast;
  std::unique_ptr<decorr::BoundQuery> bound;
  Strategy effective = strategy;
  // Declared before the plan: operators may release reservations into the
  // guard's tracker when the plan is destroyed.
  decorr::ResourceGuard guard;
  decorr::PhysicalPlan plan;
  const decorr::QueryOptions defaults;
  const bool ok =
      stage("parse", &out->parse_ns, [&](int) {
        auto r = decorr::ParseQuery(sql);
        if (!r.ok()) return check(r.status());
        ast = r.MoveValue();
        return true;
      }) &&
      stage("bind", &out->bind_ns, [&](int) {
        auto r = decorr::Bind(*ast, catalog);
        if (!r.ok()) return check(r.status());
        bound = r.MoveValue();
        return true;
      }) &&
      (strategy != Strategy::kAuto ||
       stage("choose_strategy", &out->choose_ns, [&](int) {
         auto r = decorr::ChooseStrategy(*ast, catalog, defaults.decorr,
                                         defaults.prune_dedup,
                                         defaults.subquery_cache_bytes);
         if (!r.ok()) return check(r.status());
         effective = r->chosen;
         return true;
       })) &&
      stage("apply_strategy", &out->apply_ns, [&](int span) {
        step_parent = span;
        mark = NowNanos();
        return check(decorr::ApplyStrategy(bound->graph.get(), effective,
                                           catalog, defaults.decorr, on_step));
      }) &&
      (effective == Strategy::kNestedIteration ||
       stage("prune", &out->prune_ns, [&](int span) {
         step_parent = span;
         mark = NowNanos();
         return check(
             decorr::PruneRedundantDedup(bound->graph.get(), on_step));
       })) &&
      stage("validate", &out->validate_ns, [&](int) {
        return check(decorr::Validate(bound->graph.get()));
      });
  if (!ok) {
    tracer->End(root);
    return false;
  }

  // The back end, with the planner settings Database::RunPrepared derives
  // from the effective strategy under default options.
  decorr::PlannerOptions po = defaults.planner;
  if (effective == Strategy::kOptMagic) {
    po.materialize_common_subexpressions = true;
  }
  const int64_t cache_bytes = effective == Strategy::kNestedIteration
                                  ? 0
                                  : defaults.subquery_cache_bytes;
  po.hoist_invariant_subplans = cache_bytes > 0;
  const bool ran =
      stage("plan", &out->plan_ns, [&](int) {
        decorr::Planner planner(catalog, po);
        auto r = planner.PlanQuery(*bound);
        if (!r.ok()) return check(r.status());
        plan = r.MoveValue();
        return true;
      }) &&
      stage("execute", &out->exec_ns, [&](int) {
        decorr::ExecContext ctx;
        ctx.stats = &out->stats;
        ctx.guard = &guard;
        ctx.subquery_cache_bytes = cache_bytes;
        auto r = decorr::CollectRows(plan.root.get(), &ctx);
        if (!r.ok()) return check(r.status());
        out->rows = r.MoveValue();
        return true;
      });
  tracer->End(root);
  out->stats.rows_output = static_cast<int64_t>(out->rows.size());
  out->stats.peak_memory_bytes = guard.memory().peak();
  out->stats.rows_materialized = guard.rows_materialized();
  return ran;
}

void AddSelfTimes(const decorr::MetricsNode& node,
                  std::map<std::string, int64_t>* self_ns) {
  int64_t self = node.total_nanos;
  for (const decorr::MetricsNode& child : node.children) {
    self -= child.total_nanos;
    AddSelfTimes(child, self_ns);
  }
  (*self_ns)[node.name.substr(0, node.name.find('('))] += self;
}

}  // namespace perfbench
