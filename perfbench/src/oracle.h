// The answer oracle: SQLite, an engine that shares no code with decorr.
//
// The generated tables are copied out of decorr's storage into an in-memory
// SQLite database with the paper's indexes, and every distinct query instance
// is answered once in SQLite's dialect. This runs in forked child processes,
// so neither SQLite's memory nor its time lands in the benchmark process's
// peak RSS or CPU figures; the answers come back over a pipe.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <utility>
#include <vector>

#include "compare.h"
#include "decorr/catalog/catalog.h"
#include "workload.h"

namespace perfbench {

// An index to mirror in SQLite: (table, columns).
using IndexSpec = std::pair<std::string, std::vector<std::string>>;

// Answers each of `instances` with SQLite over a copy of `tables` from
// `catalog`. Must be called while the process has a single thread (it
// forks). Returns false and sets `error` on any failure.
bool RunOracle(const decorr::Catalog& catalog,
               const std::vector<std::string>& tables,
               const std::vector<IndexSpec>& indexes,
               const std::vector<Instance>& instances,
               std::vector<Answer>* answers, std::string* error);

// In-process form of the same, for the self-tests: checks that every
// instance's SQLite text prepares against an empty copy of the schema.
bool SqlitePrepares(const decorr::Catalog& catalog,
                    const std::vector<std::string>& tables,
                    const std::vector<Instance>& instances,
                    std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
