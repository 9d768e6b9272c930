// decorr benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Builds the workload from the seed, loads TPC-D, answers every distinct
// query instance with the SQLite oracle, then runs the workload's clients in
// closed loops for --seconds, checking every answer. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 a separate,
// instrumented run reports the per-layer metrics (see README.md).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "compare.h"
#include "decorr/catalog/statistics.h"
#include "decorr/runtime/database.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "decorr/tpcd/tpcd.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using decorr::Strategy;

// Traced run: queries run this many times each way (untraced Execute and
// the traced pipeline, alternating). The check compares the median of the
// paired differences: each pair runs back to back, so a change in the host's
// speed between pairs cancels out.
constexpr int kTraceRepeats = 5;
// A traced query's span total must lie within this of its untraced latency.
constexpr double kSpanTolerance = 0.3;
constexpr int64_t kSpanSlackNs = 300'000;
// A timed run's latency percentiles need at least ten operations beyond the
// 95th percentile. A run keeps going past --seconds, in whole blocks, until
// it has this many, and fails if it has not by kMaxRunFactor x --seconds.
constexpr int64_t kMinTimedOps = 200;
constexpr int kMaxRunFactor = 3;
// The served traced run replays this many of client 0's blocks on one
// client, so its cache counters are a fixed-length sample.
constexpr int kServedTraceBlocks = 30;

const int64_t kProcessStartNs = NowNanos();

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string Unquote(const std::string& s) {
  return s.size() >= 2 && s.front() == '\'' ? s.substr(1, s.size() - 2) : s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct IndexDef {
  const char* table;
  const char* name;
  const char* column;
};

// The paper's indexes ("indexes on all the necessary attributes").
constexpr IndexDef kPaperIndexes[] = {
    {"parts", "parts_pk", "p_partkey"},
    {"suppliers", "suppliers_pk", "s_suppkey"},
    {"partsupp", "partsupp_partkey", "ps_partkey"},
    {"partsupp", "partsupp_suppkey", "ps_suppkey"},
    {"lineitem", "lineitem_partkey", "l_partkey"},
    {"customers", "customers_nation", "c_nation"},
};

struct Counters {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
};

// Everything a run shares: the loaded data, the oracle's answers and the
// properties the checks compare against.
class Bench {
 public:
  Bench(Workload w, uint64_t seed) : w_(std::move(w)), seed_(seed) {}

  bool Setup(bool traced);
  int RunTimed(int seconds);
  int RunTraced(int seconds, const std::string& trace_dir);

 private:
  struct Client {
    std::vector<double> latency_ms;
    int64_t writes = 0;
    int64_t wall_ns = 0;
    int64_t check_wall_ns = 0;
    int64_t check_cpu_ns = 0;
    Counters counters;
  };

  // Runs one op on `client`'s connection and checks its answer.
  void RunOp(const Op& op, decorr::Session* session, Client* client);
  // Checks one query answer against the oracle and the workload properties.
  bool CheckAnswer(const Op& op, const decorr::QueryResult& result,
                   std::string* why) const;
  void ReportMismatch(const Op& op, const std::string& why, Counters* c);
  decorr::QueryOptions OptionsFor(Strategy s) const {
    decorr::QueryOptions o;
    o.strategy = s;
    return o;
  }
  void Print(const Counters& c, const std::vector<Metric>& metrics) const;
  std::vector<std::string> OracleTables() const;

  Workload w_;
  uint64_t seed_;
  decorr::Database db_;
  std::unique_ptr<decorr::Server> server_;
  std::vector<Answer> answers_;  // by instance
  // Q3 properties from the suppliers table: region -> supplier count and
  // distinct nations.
  std::map<std::string, std::pair<int64_t, int64_t>> region_suppliers_;
  std::mutex report_mu_;
  std::atomic<int64_t> appended_{0};  // side-table rows acknowledged
  int64_t setup_ns_ = 0;
  // Traced-run setup timings.
  double load_s_ = 0, create_index_ms_ = 0, analyze_ms_ = 0;
};

std::vector<std::string> Bench::OracleTables() const {
  std::set<std::string> tables;
  for (const Instance& inst : w_.instances) {
    switch (inst.tmpl) {
      case Template::kQ1:
      case Template::kQ1Variant:
        tables.insert({"parts", "suppliers", "partsupp"});
        break;
      case Template::kQ2: tables.insert({"lineitem", "parts"}); break;
      case Template::kQ3: tables.insert({"suppliers", "customers"}); break;
    }
  }
  return {tables.begin(), tables.end()};
}

bool Bench::Setup(bool traced) {
  decorr::TpcdConfig config;
  config.scale_factor = w_.spec.scale_factor;
  // The database is the generator's one fixed TPC-D instance (like the
  // paper's Table 1); the seed picks the query literals.
  config.create_indexes = false;
  int64_t t = NowNanos();
  decorr::Status st = decorr::LoadTpcd(&db_, config);
  if (!st.ok()) {
    std::fprintf(stderr, "LoadTpcd: %s\n", st.ToString().c_str());
    return false;
  }
  load_s_ = (NowNanos() - t) / 1e9;
  t = NowNanos();
  for (const IndexDef& idx : kPaperIndexes) {
    if (!w_.spec.partsupp_indexes && std::string(idx.table) == "partsupp") {
      continue;
    }
    st = db_.CreateIndex(idx.table, idx.name, {idx.column});
    if (!st.ok()) {
      std::fprintf(stderr, "CreateIndex: %s\n", st.ToString().c_str());
      return false;
    }
  }
  create_index_ms_ = (NowNanos() - t) / 1e6;
  if (traced) {
    // A full ANALYZE's cost: fresh statistics for every table.
    t = NowNanos();
    for (const std::string& name : db_.catalog().TableNames()) {
      auto table = db_.catalog().GetTable(name);
      if (table.ok()) (void)decorr::ComputeStats(**table);
    }
    analyze_ms_ = (NowNanos() - t) / 1e6;
  }
  if (w_.spec.served) {
    st = db_.CreateTable(decorr::TableSchema(
        kSideTable,
        {{"e_id", decorr::TypeId::kInt64, false},
         {"e_client", decorr::TypeId::kInt64, false},
         {"e_note", decorr::TypeId::kString, false}},
        {0}));
    if (!st.ok()) {
      std::fprintf(stderr, "CreateTable: %s\n", st.ToString().c_str());
      return false;
    }
  }

  auto suppliers = db_.catalog().GetTable("suppliers");
  if (!suppliers.ok()) return false;
  const decorr::Table& s = **suppliers;
  const int nation_col = 3, region_col = 4;
  std::map<std::string, std::set<std::string>> nations;
  for (size_t r = 0; r < s.num_rows(); ++r) {
    const std::string region = s.GetValue(r, region_col).string_value();
    ++region_suppliers_[region].first;
    nations[region].insert(s.GetValue(r, nation_col).string_value());
  }
  for (auto& [region, set] : nations) {
    region_suppliers_[region].second = static_cast<int64_t>(set.size());
  }

  if (w_.spec.served) {
    server_ = std::make_unique<decorr::Server>(decorr::ServerOptions{},
                                               db_.shared_catalog());
  }
  setup_ns_ = NowNanos() - kProcessStartNs;

  // The oracle runs in child processes after set-up is timed.
  const int64_t oracle_start = NowNanos();
  std::vector<IndexSpec> indexes;
  const std::vector<std::string> tables = OracleTables();
  for (const IndexDef& idx : kPaperIndexes) {
    if (std::find(tables.begin(), tables.end(), idx.table) != tables.end()) {
      indexes.push_back({idx.table, {idx.column}});
    }
  }
  std::string error;
  if (!RunOracle(db_.catalog(), tables, indexes, w_.instances, &answers_,
                 &error)) {
    std::fprintf(stderr, "oracle: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "setup %.3f s, oracle %.3f s, %zu instances\n",
               setup_ns_ / 1e9, (NowNanos() - oracle_start) / 1e9,
               w_.instances.size());
  return true;
}

bool Bench::CheckAnswer(const Op& op, const decorr::QueryResult& result,
                        std::string* why) const {
  Answer got = FromDecorr(result.rows);
  Canonicalize(&got);
  if (!SameMultiset(got, answers_[op.instance], why)) return false;
  const int64_t inv = result.stats.subquery_invocations;
  switch (op.strategy) {
    case Strategy::kMagic:
    case Strategy::kOptMagic:
    case Strategy::kKim:
    case Strategy::kDayal:
      if (inv != 0) {
        *why = "decorrelated plan ran " + std::to_string(inv) +
               " subquery invocations";
        return false;
      }
      break;
    default: break;
  }
  const Instance& inst = w_.instances[op.instance];
  if (inst.tmpl == Template::kQ3 &&
      (op.strategy == Strategy::kNestedIteration ||
       op.strategy == Strategy::kNestedIterationCached)) {
    const auto it = region_suppliers_.find(Unquote(inst.literals[0]));
    const int64_t want =
        it == region_suppliers_.end()
            ? 0
            : op.strategy == Strategy::kNestedIteration ? it->second.first
                                                        : it->second.second;
    if (inv != want) {
      *why = "Q3 subquery invocations " + std::to_string(inv) +
             ", expected " + std::to_string(want);
      return false;
    }
  }
  return true;
}

void Bench::ReportMismatch(const Op& op, const std::string& why,
                           Counters* c) {
  ++c->mismatches;
  std::lock_guard<std::mutex> lock(report_mu_);
  if (op.instance >= 0) {
    std::fprintf(stderr, "MISMATCH %s under %s: %s\n",
                 w_.instances[op.instance].Key().c_str(),
                 decorr::StrategyName(op.strategy), why.c_str());
  } else {
    std::fprintf(stderr, "MISMATCH side table: %s\n", why.c_str());
  }
}

void Bench::RunOp(const Op& op, decorr::Session* session, Client* client) {
  ++client->counters.attempted;
  decorr::Result<decorr::QueryResult> result = decorr::QueryResult();
  int64_t expect_count = -1;
  const int64_t t0 = NowNanos();
  switch (op.kind) {
    case OpKind::kQuery: {
      const std::string sql = w_.instances[op.instance].DecorrSql();
      result = session ? session->Execute(sql, OptionsFor(op.strategy))
                       : db_.Execute(sql, OptionsFor(op.strategy));
      break;
    }
    case OpKind::kWrite: {
      ++client->writes;
      const int64_t base = appended_.load();
      const decorr::Status st = server_->Mutate([&](decorr::Database& db) {
        std::vector<decorr::Row> rows;
        for (int i = 0; i < kWriteBatchRows; ++i) {
          rows.push_back({decorr::Value::Int64(base + i),
                          decorr::Value::Int64(0),
                          decorr::Value::String("bench event")});
        }
        DECORR_RETURN_IF_ERROR(db.Insert(kSideTable, rows));
        return db.AnalyzeAll();
      });
      if (st.ok()) {
        appended_ += kWriteBatchRows;
      } else {
        result = st;
      }
      break;
    }
    case OpKind::kCount:
      expect_count = appended_.load();
      result = session->Execute(SideTableCountSql());
      break;
  }
  const int64_t t1 = NowNanos();
  client->latency_ms.push_back((t1 - t0) / 1e6);
  if (!result.ok()) {
    ++client->counters.failed;
    std::lock_guard<std::mutex> lock(report_mu_);
    std::fprintf(stderr, "FAILED op: %s\n",
                 result.status().ToString().c_str());
    return;
  }
  if (op.kind == OpKind::kWrite) return;
  const int64_t c0 = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
  std::string why;
  bool ok;
  if (op.kind == OpKind::kCount) {
    ok = result->rows.size() == 1 && result->rows[0].size() == 1 &&
         result->rows[0][0].type() == decorr::TypeId::kInt64 &&
         result->rows[0][0].int64_value() == expect_count;
    if (!ok) {
      why = "COUNT(*) returned " +
            (result->rows.empty() ? std::string("no row")
                                  : decorr::RowToString(result->rows[0])) +
            " after " + std::to_string(expect_count) + " acknowledged rows";
    }
  } else {
    ok = CheckAnswer(op, *result, &why);
  }
  if (!ok) ReportMismatch(op, why, &client->counters);
  client->check_cpu_ns += CpuNanos(CLOCK_THREAD_CPUTIME_ID) - c0;
  client->check_wall_ns += NowNanos() - t1;
}

int Bench::RunTimed(int seconds) {
  const int clients = w_.spec.clients;
  std::vector<Client> state(clients);
  std::vector<std::shared_ptr<decorr::Session>> sessions(clients);
  if (server_) {
    for (int c = 0; c < clients; ++c) {
      sessions[c] = server_->Connect("client" + std::to_string(c));
    }
  }
  const int64_t start = NowNanos();
  const int64_t deadline = start + int64_t{seconds} * 1'000'000'000;
  const int64_t hard_deadline =
      start + int64_t{seconds} * kMaxRunFactor * 1'000'000'000;
  const int64_t cpu0 = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
  std::atomic<int64_t> done{0};  // operations completed, all clients
  // Each client runs whole blocks of its own stream until the deadline has
  // passed and the run has enough operations for its percentiles.
  auto more = [&](size_t b) {
    const int64_t now = NowNanos();
    return b == 0 || (now < hard_deadline &&
                      (now < deadline || done.load() < kMinTimedOps));
  };
  auto loop = [&](int c) {
    Client& client = state[c];
    const int64_t begin = NowNanos();
    const auto& blocks = w_.blocks[c];
    for (size_t b = 0; more(b); ++b) {
      for (const Op& op : blocks[b % blocks.size()]) {
        RunOp(op, sessions[c].get(), &client);
      }
      done += static_cast<int64_t>(blocks[b % blocks.size()].size());
    }
    client.wall_ns = NowNanos() - begin;
  };
  if (clients == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(loop, c);
    for (std::thread& t : threads) t.join();
  }
  const int64_t cpu_ns = CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - cpu0;

  Counters total;
  std::vector<double> latency;
  double ops_per_s = 0;
  int64_t check_cpu = 0, queries = 0;
  for (const Client& c : state) {
    total.attempted += c.counters.attempted;
    total.failed += c.counters.failed;
    total.mismatches += c.counters.mismatches;
    latency.insert(latency.end(), c.latency_ms.begin(), c.latency_ms.end());
    ops_per_s += c.counters.attempted / ((c.wall_ns - c.check_wall_ns) / 1e9);
    check_cpu += c.check_cpu_ns;
  }
  if (server_) {
    // Every query (COUNTs included) makes exactly one plan-cache lookup.
    for (const Client& c : state) queries += c.counters.attempted - c.writes;
    const decorr::PlanCacheCounters pc = server_->stats().plan_cache;
    if (pc.hits + pc.misses != queries) {
      ++total.mismatches;
      std::fprintf(stderr,
                   "MISMATCH plan cache: %" PRId64 " hits + %" PRId64
                   " misses for %" PRId64 " queries\n",
                   pc.hits, pc.misses, queries);
    }
  }
  const int64_t ops = total.attempted;
  std::fprintf(stderr, "%" PRId64 " ops, %" PRId64 " failed, %" PRId64
               " mismatched\n", ops, total.failed, total.mismatches);
  if (ops < kMinTimedOps) {
    std::fprintf(stderr,
                 "error: %" PRId64 " operations in %d s, fewer than the %" PRId64
                 " that put ten beyond the 95th percentile\n",
                 ops, seconds * kMaxRunFactor, kMinTimedOps);
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Print(total,
        {{"setup_s", setup_ns_ / 1e9, "s"},
         {"ops_per_s", ops_per_s, "1/s"},
         {"latency_p50_ms", Median(latency), "ms"},
         {"latency_p95_ms", Percentile(latency, 0.95), "ms"},
         {"cpu_ms_per_op", (cpu_ns - check_cpu) / 1e6 / ops, "ms"},
         {"max_rss_mb", ru.ru_maxrss / 1024.0, "MB"}});
  return 0;
}

void Bench::Print(const Counters& c,
                  const std::vector<Metric>& metrics) const {
  std::string out = "{\"correct\": ";
  out += c.mismatches == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(c.attempted);
  out += ", \"failed\": " + std::to_string(c.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Bench::RunTraced(int seconds, const std::string& trace_dir) {
  Counters counters;
  std::vector<Metric> m;
  Tracer tracer;

  // Served: replay client 0's first blocks on one client, splitting query
  // latency by whether the plan cache hit.
  std::vector<double> hit_us, miss_us, mutate_ms;
  decorr::ServerStats served;
  if (server_) {
    auto session = server_->Connect("traced");
    Client client;
    for (int b = 0; b < kServedTraceBlocks; ++b) {
      for (const Op& op : w_.blocks[0][b % w_.blocks[0].size()]) {
        const int64_t hits = server_->stats().plan_cache.hits;
        RunOp(op, session.get(), &client);
        const double us = client.latency_ms.back() * 1e3;
        if (op.kind == OpKind::kWrite) {
          mutate_ms.push_back(us / 1e3);
        } else {
          (server_->stats().plan_cache.hits > hits ? hit_us : miss_us)
              .push_back(us);
        }
      }
    }
    counters = client.counters;
    served = server_->stats();
  }

  // The instrumented pipeline over the stream's query ops, in order, each
  // distinct (instance, strategy) once.
  std::vector<Op> ops;
  std::set<std::pair<int, Strategy>> seen;
  for (const auto& block : w_.blocks[0]) {
    for (const Op& op : block) {
      if (op.kind == OpKind::kQuery &&
          seen.insert({op.instance, op.strategy}).second) {
        ops.push_back(op);
      }
    }
  }
  std::vector<double> parse, bind, choose, apply, prune, validate, plan,
      exec, prepare, run_prepared, peak_mem;
  std::map<std::string, double> rule_ns, rule_count, self_ns;
  double steps = 0, scanned = 0, lookups = 0, invocations = 0,
         materialized = 0, rows_out = 0, cache_hits = 0, cache_lookups = 0;
  double sum_diff = 0, sum_untraced = 0;
  int traced = 0;
  const int64_t deadline = NowNanos() + int64_t{seconds} * 1'000'000'000;
  for (size_t i = 0; i < ops.size() && (i == 0 || NowNanos() < deadline);
       ++i) {
    const Op& op = ops[i];
    const std::string sql = w_.instances[op.instance].DecorrSql();
    const decorr::QueryOptions opts = OptionsFor(op.strategy);
    ++counters.attempted;
    std::vector<double> untraced_ns, traced_ns;
    TracedQuery q;
    std::string why;
    bool ok = true, errored = false;
    for (int r = 0; r < kTraceRepeats && ok; ++r) {
      int64_t t0 = NowNanos();
      auto result = db_.Execute(sql, opts);
      untraced_ns.push_back(NowNanos() - t0);
      if (!result.ok()) {
        why = result.status().ToString();
        ok = false;
        errored = true;
        break;
      }
      ok = CheckAnswer(op, *result, &why);
      if (!ok) break;
      if (!perfbench::RunTraced(db_.catalog(), sql, op.strategy, traced,
                                &tracer, &q, &why)) {
        ok = false;
        errored = true;
        break;
      }
      traced_ns.push_back(static_cast<double>(q.total_ns));
      Answer a = FromDecorr(q.rows), b = FromDecorr(result->rows);
      Canonicalize(&a);
      Canonicalize(&b);
      if (!SameMultiset(a, b, &why)) {
        why = "traced pipeline differs from Execute: " + why;
        ok = false;
      }
    }
    if (errored) {
      ++counters.failed;
      std::fprintf(stderr, "FAILED traced op: %s\n", why.c_str());
      continue;
    }
    if (!ok) {
      ReportMismatch(op, why, &counters);
      continue;
    }
    ++traced;
    std::vector<double> diff_ns;
    for (size_t r = 0; r < traced_ns.size(); ++r) {
      diff_ns.push_back(traced_ns[r] - untraced_ns[r]);
    }
    const double u = Median(untraced_ns), d = Median(diff_ns);
    sum_untraced += u;
    sum_diff += d;
    if (std::fabs(d) > kSpanTolerance * u + kSpanSlackNs) {
      ReportMismatch(op,
                     "span total differs from untraced Execute by " +
                         std::to_string(d / 1e6) + " ms of " +
                         std::to_string(u / 1e6) + " ms",
                     &counters);
    }
    parse.push_back(q.parse_ns / 1e3);
    bind.push_back(q.bind_ns / 1e3);
    if (op.strategy == Strategy::kAuto) choose.push_back(q.choose_ns / 1e3);
    apply.push_back(q.apply_ns / 1e3);
    prune.push_back(q.prune_ns / 1e3);
    validate.push_back(q.validate_ns / 1e3);
    plan.push_back(q.plan_ns / 1e3);
    exec.push_back(q.exec_ns / 1e3);
    steps += q.steps;
    for (const auto& [rule, ns] : q.rule_ns) rule_ns[rule] += ns / 1e3;
    for (const auto& [rule, n] : q.rule_count) rule_count[rule] += n;
    scanned += q.stats.rows_scanned;
    lookups += q.stats.index_lookups;
    invocations += q.stats.subquery_invocations;
    materialized += q.stats.rows_materialized;
    rows_out += q.stats.rows_output;
    cache_hits += q.stats.subquery_cache_hits;
    cache_lookups += q.stats.subquery_cache_hits + q.stats.subquery_cache_misses;
    peak_mem.push_back(static_cast<double>(q.stats.peak_memory_bytes));

    // The runtime's own front-end / back-end split.
    decorr::ResourceGuard guard;
    int64_t t0 = NowNanos();
    auto pq = db_.Prepare(sql, opts, &guard);
    prepare.push_back((NowNanos() - t0) / 1e3);
    if (pq.ok()) {
      t0 = NowNanos();
      auto r = db_.RunPrepared(pq.MoveValue(), opts, true, &guard, false);
      run_prepared.push_back((NowNanos() - t0) / 1e3);
    }
    // Operator self time from one profiled run.
    auto analyzed = db_.ExplainAnalyze(sql, opts);
    if (analyzed.ok()) {
      std::map<std::string, int64_t> self;
      AddSelfTimes(analyzed->profile.plan, &self);
      for (const auto& [name, ns] : self) self_ns[name] += ns / 1e3;
    }
  }
  const double n = std::max(traced, 1);

  m.push_back({"parser.parse_us", Median(parse), "us"});
  m.push_back({"binder.bind_us", Median(bind), "us"});
  m.push_back({"planner.choose_strategy_us", Median(choose), "us"});
  m.push_back({"rewrite.apply_us", Median(apply), "us"});
  m.push_back({"rewrite.steps", steps / n, "count"});
  for (const std::string& rule : RewriteRuleNames()) {
    m.push_back({"rewrite.rule." + rule + "_us", rule_ns[rule] / n, "us"});
    m.push_back(
        {"rewrite.rule." + rule + "_count", rule_count[rule] / n, "count"});
  }
  m.push_back({"rewrite.prune_us", Median(prune), "us"});
  m.push_back({"qgm.validate_us", Median(validate), "us"});
  m.push_back({"planner.plan_us", Median(plan), "us"});
  m.push_back({"runtime.prepare_us", Median(prepare), "us"});
  m.push_back({"runtime.run_prepared_us", Median(run_prepared), "us"});
  m.push_back({"exec.run_us", Median(exec), "us"});
  m.push_back({"exec.rows_scanned", scanned / n, "count"});
  m.push_back({"exec.index_lookups", lookups / n, "count"});
  m.push_back({"exec.subquery_invocations", invocations / n, "count"});
  m.push_back({"exec.rows_materialized", materialized / n, "count"});
  m.push_back({"exec.rows_scanned_per_row_out",
               scanned / std::max(rows_out, 1.0), "ratio"});
  m.push_back({"exec.subquery_cache_hit_ratio",
               cache_hits / std::max(cache_lookups, 1.0), "ratio"});
  m.push_back({"exec.peak_memory_bytes", Median(peak_mem), "bytes"});
  for (const char* op :
       {"SeqScan", "IndexLookup", "Filter", "Project", "HashJoin",
        "HashLeftOuterJoin", "IndexJoin", "NestedLoopJoin", "HashAggregate",
        "Distinct", "Apply", "GroupProbeApply", "LateralJoin",
        "CachedMaterialize", "UnionAll"}) {
    m.push_back({std::string("exec.self_us.") + op, self_ns[op] / n, "us"});
  }
  m.push_back({"tpcd.load_s", load_s_, "s"});
  m.push_back({"storage.create_index_ms", create_index_ms_, "ms"});
  m.push_back({"catalog.analyze_ms", analyze_ms_, "ms"});
  const decorr::PlanCacheCounters& pc = served.plan_cache;
  m.push_back({"server.plan_cache_hit_ratio",
               pc.hits / std::max<double>(pc.hits + pc.misses, 1), "ratio"});
  m.push_back({"server.plan_cache_invalidations",
               static_cast<double>(pc.invalidations), "count"});
  m.push_back({"server.plan_cache_evictions",
               static_cast<double>(pc.evictions), "count"});
  m.push_back({"server.hit_latency_us", Median(hit_us), "us"});
  m.push_back({"server.miss_latency_us", Median(miss_us), "us"});
  m.push_back({"server.mutate_ms", Median(mutate_ms), "ms"});
  m.push_back({"server.queued", static_cast<double>(served.queued), "count"});
  m.push_back({"trace.queries", static_cast<double>(traced), "count"});
  m.push_back({"trace.overhead_pct",
               100.0 * sum_diff / std::max(sum_untraced, 1.0),
               "%"});

  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/" + w_.spec.name + "-seed" +
                             std::to_string(seed_) + ".json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  std::fprintf(stderr, "traced %d queries\n", traced);
  Print(counters, m);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_dir;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
      continue;
    }
    if (flag == "--trace-dir") {
      trace_dir = value;
      continue;
    }
    const long long v = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || v < 0) return Usage();
    if (flag == "--seed") {
      seed = v;
    } else if (flag == "--seconds") {
      seconds = v;
    } else if (flag == "--trace") {
      trace = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seed < 0 || seconds < 1 || seconds > 600 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  Workload w;
  if (!MakeWorkload(workload, static_cast<uint64_t>(seed), &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return Usage();
  }
  Bench bench(std::move(w), static_cast<uint64_t>(seed));
  if (!bench.Setup(trace == 1)) return 1;
  return trace == 1 ? bench.RunTraced(static_cast<int>(seconds), trace_dir)
                    : bench.RunTimed(static_cast<int>(seconds));
}
