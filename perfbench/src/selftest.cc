// Self-tests for the benchmark's own machinery:
//   * the answer comparator rejects a dropped row, a duplicated row and one
//     changed value, and tolerates last-bit double differences;
//   * the same seed yields the same operation streams, whatever the thread
//     timing (streams are built concurrently and compared to a serial build);
//   * every template instance parses and binds in decorr and prepares in
//     SQLite.
// Prints one line per check and exits non-zero on the first failure.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "compare.h"
#include "decorr/binder/binder.h"
#include "decorr/runtime/database.h"
#include "decorr/tpcd/tpcd.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Cell Text(std::string s) {
  Cell c;
  c.kind = Cell::kText;
  c.s = std::move(s);
  return c;
}
Cell Real(double d) {
  Cell c;
  c.kind = Cell::kReal;
  c.d = d;
  return c;
}
Cell Int(int64_t i) {
  Cell c;
  c.kind = Cell::kInt;
  c.i = i;
  return c;
}

bool Same(Answer a, Answer b) {
  Canonicalize(&a);
  Canonicalize(&b);
  return SameMultiset(a, b);
}

void TestComparator() {
  const Answer want = {{Text("Supplier#1"), Real(10.25), Int(3)},
                       {Text("Supplier#2"), Real(-4.5), Int(7)},
                       {Text("Supplier#2"), Real(-4.5), Int(7)},
                       {Text("Supplier#3"), Cell(), Int(1)}};
  Answer shuffled = {want[3], want[1], want[0], want[2]};
  Expect(Same(shuffled, want), "comparator: row order is ignored");

  Answer close = want;
  close[0][1].d = 10.25 * (1 + 1e-12);
  Expect(Same(close, want), "comparator: last-bit double difference accepted");

  Answer dropped = {want[0], want[1], want[3]};
  Expect(!Same(dropped, want), "comparator: dropped duplicate row rejected");

  Answer duplicated = want;
  duplicated.push_back(want[0]);
  Expect(!Same(duplicated, want), "comparator: duplicated row rejected");

  Answer changed = want;
  changed[1][1].d = -4.5001;
  Expect(!Same(changed, want), "comparator: changed double rejected");

  Answer changed_text = want;
  changed_text[3][0].s = "Supplier#4";
  Expect(!Same(changed_text, want), "comparator: changed text rejected");

  Answer null_to_zero = want;
  null_to_zero[3][1] = Real(0);
  Expect(!Same(null_to_zero, want), "comparator: NULL vs 0 rejected");

  std::string wire;
  Serialize(want, &wire);
  Answer back;
  size_t pos = 0;
  Expect(Deserialize(wire, &pos, &back) && pos == wire.size() &&
             Same(back, want),
         "comparator: serialization round trip");
}

bool SameStreams(const Workload& a, const Workload& b) {
  if (a.instances.size() != b.instances.size() ||
      a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (size_t i = 0; i < a.instances.size(); ++i) {
    if (a.instances[i].Key() != b.instances[i].Key()) return false;
  }
  for (size_t c = 0; c < a.blocks.size(); ++c) {
    if (a.blocks[c].size() != b.blocks[c].size()) return false;
    for (size_t k = 0; k < a.blocks[c].size(); ++k) {
      const auto& x = a.blocks[c][k];
      const auto& y = b.blocks[c][k];
      if (x.size() != y.size()) return false;
      for (size_t j = 0; j < x.size(); ++j) {
        if (x[j].kind != y[j].kind || x[j].instance != y[j].instance ||
            x[j].strategy != y[j].strategy) {
          return false;
        }
      }
    }
  }
  return true;
}

void TestStreams() {
  for (const std::string& name : WorkloadNames()) {
    Workload serial;
    MakeWorkload(name, 7, &serial);
    std::vector<Workload> built(4);
    std::vector<std::thread> threads;
    for (Workload& w : built) {
      threads.emplace_back([&name, &w] { MakeWorkload(name, 7, &w); });
    }
    for (std::thread& t : threads) t.join();
    bool same = true;
    for (const Workload& w : built) same = same && SameStreams(w, serial);
    Expect(same, name + ": seed 7 gives one stream across threads");
    Workload other;
    MakeWorkload(name, 8, &other);
    Expect(!SameStreams(other, serial), name + ": seed 8 gives another");
  }
}

void TestTemplates() {
  decorr::Database db;
  decorr::TpcdConfig config;
  config.scale_factor = 0.001;
  decorr::Status st = decorr::LoadTpcd(&db, config);
  Expect(st.ok(), "load TPC-D at SF 0.001");
  if (!st.ok()) return;
  const std::vector<std::string> tables = {"customers", "lineitem", "parts",
                                           "partsupp", "suppliers"};
  for (Template t : {Template::kQ1, Template::kQ1Variant, Template::kQ2,
                     Template::kQ3}) {
    const std::vector<Instance> all = AllInstances(t);
    std::string error;
    size_t bound = 0;
    for (const Instance& inst : all) {
      auto r = decorr::ParseAndBind(inst.DecorrSql(), db.catalog());
      if (!r.ok()) {
        error = inst.Key() + ": " + r.status().ToString();
        break;
      }
      ++bound;
    }
    Expect(bound == all.size(), std::string(TemplateName(t)) + ": " +
                                    std::to_string(all.size()) +
                                    " instances parse and bind " + error);
    error.clear();
    Expect(SqlitePrepares(db.catalog(), tables, all, &error),
           std::string(TemplateName(t)) + ": SQLite dialect prepares " +
               error);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestComparator();
  perfbench::TestStreams();
  perfbench::TestTemplates();
  std::printf("%s\n", perfbench::failures == 0 ? "all self-tests passed"
                                               : "self-tests FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
