#include "oracle.h"

#include <sqlite3.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <memory>

namespace perfbench {

namespace {

// Oracle processes answering in parallel, each over its own SQLite copy.
constexpr int kOracleProcesses = 3;

struct DbCloser {
  void operator()(sqlite3* db) const { sqlite3_close(db); }
};
using SqliteDb = std::unique_ptr<sqlite3, DbCloser>;

struct StmtFinalizer {
  void operator()(sqlite3_stmt* s) const { sqlite3_finalize(s); }
};
using SqliteStmt = std::unique_ptr<sqlite3_stmt, StmtFinalizer>;

bool Exec(sqlite3* db, const std::string& sql, std::string* error) {
  char* msg = nullptr;
  if (sqlite3_exec(db, sql.c_str(), nullptr, nullptr, &msg) != SQLITE_OK) {
    *error = "sqlite: " + std::string(msg ? msg : "?") + " in: " + sql;
    sqlite3_free(msg);
    return false;
  }
  return true;
}

bool Prepare(sqlite3* db, const std::string& sql, SqliteStmt* stmt,
             std::string* error) {
  sqlite3_stmt* raw = nullptr;
  if (sqlite3_prepare_v2(db, sql.c_str(), -1, &raw, nullptr) != SQLITE_OK) {
    *error = "sqlite prepare: " + std::string(sqlite3_errmsg(db)) +
             " in: " + sql;
    return false;
  }
  stmt->reset(raw);
  return true;
}

const char* SqliteType(decorr::TypeId t) {
  switch (t) {
    case decorr::TypeId::kBool:
    case decorr::TypeId::kInt64: return "INTEGER";
    case decorr::TypeId::kDouble: return "REAL";
    default: return "TEXT";
  }
}

// Creates the tables (and, with `copy_rows`, their contents) in `db`.
bool CopySchema(sqlite3* db, const decorr::Catalog& catalog,
                const std::vector<std::string>& tables, bool copy_rows,
                std::string* error) {
  for (const std::string& name : tables) {
    auto table = catalog.GetTable(name);
    if (!table.ok()) {
      *error = table.status().ToString();
      return false;
    }
    const decorr::Table& t = **table;
    const decorr::TableSchema& schema = t.schema();
    std::string ddl = "CREATE TABLE " + name + " (";
    std::string insert = "INSERT INTO " + name + " VALUES (";
    for (int c = 0; c < schema.num_columns(); ++c) {
      ddl += (c ? ", " : "") + schema.column(c).name + " " +
             SqliteType(schema.column(c).type);
      insert += c ? ", ?" : "?";
    }
    if (!Exec(db, ddl + ")", error)) return false;
    if (!copy_rows) continue;
    SqliteStmt stmt;
    if (!Prepare(db, insert + ")", &stmt, error)) return false;
    if (!Exec(db, "BEGIN", error)) return false;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < schema.num_columns(); ++c) {
        const decorr::Value v = t.GetValue(r, c);
        switch (v.type()) {
          case decorr::TypeId::kNull:
            sqlite3_bind_null(stmt.get(), c + 1);
            break;
          case decorr::TypeId::kBool:
          case decorr::TypeId::kInt64:
            sqlite3_bind_int64(stmt.get(), c + 1, v.int64_value());
            break;
          case decorr::TypeId::kDouble:
            sqlite3_bind_double(stmt.get(), c + 1, v.double_value());
            break;
          case decorr::TypeId::kString:
            sqlite3_bind_text(stmt.get(), c + 1, v.string_value().data(),
                              static_cast<int>(v.string_value().size()),
                              SQLITE_TRANSIENT);
            break;
        }
      }
      if (sqlite3_step(stmt.get()) != SQLITE_DONE) {
        *error = "sqlite insert: " + std::string(sqlite3_errmsg(db));
        return false;
      }
      sqlite3_reset(stmt.get());
    }
    if (!Exec(db, "COMMIT", error)) return false;
  }
  return true;
}

bool Answer1(sqlite3* db, const Instance& inst, Answer* out,
             std::string* error) {
  SqliteStmt stmt;
  if (!Prepare(db, inst.SqliteSql(), &stmt, error)) return false;
  out->clear();
  int rc;
  while ((rc = sqlite3_step(stmt.get())) == SQLITE_ROW) {
    const int n = sqlite3_column_count(stmt.get());
    CellRow row(n);
    for (int c = 0; c < n; ++c) {
      Cell& cell = row[c];
      switch (sqlite3_column_type(stmt.get(), c)) {
        case SQLITE_INTEGER:
          cell.kind = Cell::kInt;
          cell.i = sqlite3_column_int64(stmt.get(), c);
          break;
        case SQLITE_FLOAT:
          cell.kind = Cell::kReal;
          cell.d = sqlite3_column_double(stmt.get(), c);
          break;
        case SQLITE_NULL: break;
        default:
          cell.kind = Cell::kText;
          cell.s = reinterpret_cast<const char*>(
              sqlite3_column_text(stmt.get(), c));
          break;
      }
    }
    out->push_back(std::move(row));
  }
  if (rc != SQLITE_DONE) {
    *error = "sqlite step: " + std::string(sqlite3_errmsg(db)) +
             " for " + inst.Key();
    return false;
  }
  Canonicalize(out);
  return true;
}

SqliteDb OpenMemory(std::string* error) {
  sqlite3* raw = nullptr;
  if (sqlite3_open(":memory:", &raw) != SQLITE_OK) {
    *error = "sqlite open failed";
    sqlite3_close(raw);
    return nullptr;
  }
  SqliteDb db(raw);
  // decorr's LIKE is case-sensitive; SQLite's is not unless told. Temporary
  // b-trees stay in memory, so the oracle writes no files.
  if (!Exec(db.get(), "PRAGMA case_sensitive_like = ON", error) ||
      !Exec(db.get(), "PRAGMA temp_store = MEMORY", error)) {
    return nullptr;
  }
  return db;
}

// The child's whole job: build the copy, answer everything, serialize.
std::string ChildMain(const decorr::Catalog& catalog,
                      const std::vector<std::string>& tables,
                      const std::vector<IndexSpec>& indexes,
                      const std::vector<Instance>& instances) {
  std::string error;
  SqliteDb db = OpenMemory(&error);
  if (!db || !CopySchema(db.get(), catalog, tables, true, &error)) {
    return "ERR " + error + "\n";
  }
  int n = 0;
  for (const auto& [table, columns] : indexes) {
    std::string sql = "CREATE INDEX oracle_idx" + std::to_string(n++) +
                      " ON " + table + " (";
    for (size_t i = 0; i < columns.size(); ++i) {
      sql += (i ? ", " : "") + columns[i];
    }
    if (!Exec(db.get(), sql + ")", &error)) return "ERR " + error + "\n";
  }
  if (!Exec(db.get(), "ANALYZE", &error)) return "ERR " + error + "\n";
  std::string out = "OK\n";
  Answer answer;
  for (const Instance& inst : instances) {
    if (!Answer1(db.get(), inst, &answer, &error)) {
      return "ERR " + error + "\n";
    }
    Serialize(answer, &out);
  }
  return out;
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool RunOracle(const decorr::Catalog& catalog,
               const std::vector<std::string>& tables,
               const std::vector<IndexSpec>& indexes,
               const std::vector<Instance>& instances,
               std::vector<Answer>* answers, std::string* error) {
  // Child k answers instances k, k + kProcesses, ...
  struct Child {
    pid_t pid = -1;
    int fd = -1;
    std::vector<Instance> share;
  };
  std::vector<Child> children(kOracleProcesses);
  for (size_t i = 0; i < instances.size(); ++i) {
    children[i % kOracleProcesses].share.push_back(instances[i]);
  }
  bool ok = true;
  for (Child& child : children) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      ok = false;
      break;
    }
    child.pid = fork();
    if (child.pid == 0) {
      close(fds[0]);
      const std::string out = ChildMain(catalog, tables, indexes, child.share);
      _exit(WriteAll(fds[1], out) && out.rfind("OK", 0) == 0 ? 0 : 1);
    }
    close(fds[1]);
    if (child.pid < 0) {
      close(fds[0]);
      *error = "fork failed";
      ok = false;
      break;
    }
    child.fd = fds[0];
  }
  // Drain every started child, even after a failure, so none outlives us.
  std::vector<Answer> shares[kOracleProcesses];
  for (int k = 0; k < kOracleProcesses; ++k) {
    Child& child = children[k];
    if (child.pid <= 0) continue;
    std::string data;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(child.fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      data.append(buf, static_cast<size_t>(n));
    }
    close(child.fd);
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!ok) continue;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = data.rfind("ERR ", 0) == 0 ? data.substr(4)
                                           : "oracle process failed";
      ok = false;
      continue;
    }
    size_t pos = 3;  // past "OK\n"
    shares[k].resize(child.share.size());
    for (Answer& a : shares[k]) {
      if (!Deserialize(data, &pos, &a)) {
        *error = "malformed oracle output";
        ok = false;
        break;
      }
    }
  }
  if (!ok) return false;
  answers->assign(instances.size(), {});
  for (size_t i = 0; i < instances.size(); ++i) {
    (*answers)[i] = std::move(shares[i % kOracleProcesses][i / kOracleProcesses]);
  }
  return true;
}

bool SqlitePrepares(const decorr::Catalog& catalog,
                    const std::vector<std::string>& tables,
                    const std::vector<Instance>& instances,
                    std::string* error) {
  SqliteDb db = OpenMemory(error);
  if (!db || !CopySchema(db.get(), catalog, tables, false, error)) {
    return false;
  }
  for (const Instance& inst : instances) {
    SqliteStmt stmt;
    if (!Prepare(db.get(), inst.SqliteSql(), &stmt, error)) return false;
  }
  return true;
}

}  // namespace perfbench
