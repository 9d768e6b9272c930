// Engine-neutral answers: a query result as a multiset of rows of typed
// cells, compared with a relative tolerance on doubles. decorr's rows and
// SQLite's rows are both converted to this form, so the comparison shares no
// code with either engine.
#ifndef PERFBENCH_COMPARE_H_
#define PERFBENCH_COMPARE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "decorr/common/value.h"

namespace perfbench {

struct Cell {
  enum Kind : uint8_t { kNull, kInt, kReal, kText } kind = kNull;
  int64_t i = 0;
  double d = 0;
  std::string s;
};

using CellRow = std::vector<Cell>;
using Answer = std::vector<CellRow>;  // sorted by Canonicalize

// Relative tolerance on doubles (with an absolute floor for values near 0).
inline constexpr double kRelTolerance = 1e-9;
inline constexpr double kAbsTolerance = 1e-6;

Answer FromDecorr(const std::vector<decorr::Row>& rows);

// Sorts rows into the canonical multiset order: text and integer columns
// first, doubles last, so rows that differ only in the last bits of a double
// still line up.
void Canonicalize(Answer* answer);

// True when the two canonical answers are equal as row multisets; on a
// mismatch, `why` (optional) says where.
bool SameMultiset(const Answer& got, const Answer& want,
                  std::string* why = nullptr);

// Line-oriented text form, used to pass oracle answers between processes.
void Serialize(const Answer& answer, std::string* out);
bool Deserialize(const std::string& in, size_t* pos, Answer* answer);

}  // namespace perfbench

#endif  // PERFBENCH_COMPARE_H_
