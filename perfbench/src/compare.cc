#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

bool IsNumber(const Cell& c) {
  return c.kind == Cell::kInt || c.kind == Cell::kReal;
}

double AsDouble(const Cell& c) {
  return c.kind == Cell::kInt ? static_cast<double>(c.i) : c.d;
}

// Total order over cells: NULL < numbers < text; numbers by value.
int CompareCells(const Cell& a, const Cell& b) {
  const int ra = a.kind == Cell::kNull ? 0 : IsNumber(a) ? 1 : 2;
  const int rb = b.kind == Cell::kNull ? 0 : IsNumber(b) ? 1 : 2;
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 2) return a.s.compare(b.s) < 0 ? -1 : a.s == b.s ? 0 : 1;
  if (a.kind == Cell::kInt && b.kind == Cell::kInt) {
    return a.i < b.i ? -1 : a.i == b.i ? 0 : 1;
  }
  const double x = AsDouble(a), y = AsDouble(b);
  return x < y ? -1 : x == y ? 0 : 1;
}

bool CellsMatch(const Cell& a, const Cell& b) {
  if (a.kind == Cell::kNull || b.kind == Cell::kNull) return a.kind == b.kind;
  if (a.kind == Cell::kText || b.kind == Cell::kText) {
    return a.kind == b.kind && a.s == b.s;
  }
  if (a.kind == Cell::kInt && b.kind == Cell::kInt) return a.i == b.i;
  const double x = AsDouble(a), y = AsDouble(b);
  return std::fabs(x - y) <=
         std::max(kAbsTolerance, kRelTolerance * std::max(std::fabs(x),
                                                          std::fabs(y)));
}

std::string CellText(const Cell& c) {
  char buf[64];
  switch (c.kind) {
    case Cell::kNull: return "NULL";
    case Cell::kInt:
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(c.i));
      return buf;
    case Cell::kReal:
      std::snprintf(buf, sizeof buf, "%.17g", c.d);
      return buf;
    case Cell::kText: return "'" + c.s + "'";
  }
  return "?";
}

std::string RowText(const CellRow& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i ? ", " : "") + CellText(row[i]);
  }
  return out + ")";
}

}  // namespace

Answer FromDecorr(const std::vector<decorr::Row>& rows) {
  Answer out;
  out.reserve(rows.size());
  for (const decorr::Row& row : rows) {
    CellRow cells(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      const decorr::Value& v = row[i];
      Cell& c = cells[i];
      switch (v.type()) {
        case decorr::TypeId::kNull: break;
        case decorr::TypeId::kBool:
          c.kind = Cell::kInt;
          c.i = v.bool_value() ? 1 : 0;
          break;
        case decorr::TypeId::kInt64:
          c.kind = Cell::kInt;
          c.i = v.int64_value();
          break;
        case decorr::TypeId::kDouble:
          c.kind = Cell::kReal;
          c.d = v.double_value();
          break;
        case decorr::TypeId::kString:
          c.kind = Cell::kText;
          c.s = v.string_value();
          break;
      }
    }
    out.push_back(std::move(cells));
  }
  return out;
}

void Canonicalize(Answer* answer) {
  // Column order for sorting: columns holding any double go last.
  std::vector<size_t> order;
  std::vector<bool> real;
  for (const CellRow& row : *answer) {
    if (row.size() > real.size()) real.resize(row.size(), false);
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].kind == Cell::kReal) real[i] = true;
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < real.size(); ++i) {
      if (real[i] == (pass == 1)) order.push_back(i);
    }
  }
  std::sort(answer->begin(), answer->end(),
            [&](const CellRow& a, const CellRow& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              for (size_t i : order) {
                if (i >= a.size()) continue;
                const int c = CompareCells(a[i], b[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });
}

bool SameMultiset(const Answer& got, const Answer& want, std::string* why) {
  auto fail = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (got.size() != want.size()) {
    return fail("row count " + std::to_string(got.size()) + " != expected " +
                std::to_string(want.size()));
  }
  for (size_t r = 0; r < got.size(); ++r) {
    bool match = got[r].size() == want[r].size();
    for (size_t i = 0; match && i < got[r].size(); ++i) {
      match = CellsMatch(got[r][i], want[r][i]);
    }
    if (!match) {
      return fail("row " + std::to_string(r) + ": got " + RowText(got[r]) +
                  ", expected " + RowText(want[r]));
    }
  }
  return true;
}

void Serialize(const Answer& answer, std::string* out) {
  *out += std::to_string(answer.size()) + "\n";
  for (const CellRow& row : answer) {
    *out += std::to_string(row.size()) + "\n";
    for (const Cell& c : row) {
      switch (c.kind) {
        case Cell::kNull: *out += "n\n"; break;
        case Cell::kInt: *out += "i" + std::to_string(c.i) + "\n"; break;
        case Cell::kReal: {
          char buf[40];
          std::snprintf(buf, sizeof buf, "r%a\n", c.d);  // exact round trip
          *out += buf;
          break;
        }
        case Cell::kText:
          *out += "t" + std::to_string(c.s.size()) + ":" + c.s + "\n";
          break;
      }
    }
  }
}

bool Deserialize(const std::string& in, size_t* pos, Answer* answer) {
  auto line = [&](std::string* l) {
    const size_t end = in.find('\n', *pos);
    if (end == std::string::npos) return false;
    *l = in.substr(*pos, end - *pos);
    *pos = end + 1;
    return true;
  };
  std::string l;
  if (!line(&l)) return false;
  const size_t rows = std::strtoull(l.c_str(), nullptr, 10);
  answer->assign(rows, {});
  for (CellRow& row : *answer) {
    if (!line(&l)) return false;
    row.resize(std::strtoull(l.c_str(), nullptr, 10));
    for (Cell& c : row) {
      if (*pos >= in.size()) return false;
      const char tag = in[*pos];
      if (tag == 't') {
        const size_t colon = in.find(':', *pos);
        if (colon == std::string::npos) return false;
        const size_t len = std::strtoull(in.c_str() + *pos + 1, nullptr, 10);
        if (colon + 1 + len + 1 > in.size()) return false;
        c.kind = Cell::kText;
        c.s = in.substr(colon + 1, len);
        *pos = colon + 1 + len + 1;
        continue;
      }
      if (!line(&l) || l.empty()) return false;
      if (tag == 'n') {
        c.kind = Cell::kNull;
      } else if (tag == 'i') {
        c.kind = Cell::kInt;
        c.i = std::strtoll(l.c_str() + 1, nullptr, 10);
      } else if (tag == 'r') {
        c.kind = Cell::kReal;
        c.d = std::strtod(l.c_str() + 1, nullptr);
      } else {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
