#include "core/engine_interface.h"

#include <algorithm>
#include <cmath>

namespace greta {

std::string FormatRow(const ResultRow& row, const std::vector<AggSpec>& specs,
                      const Catalog& catalog) {
  std::string out = "wid=" + std::to_string(row.wid);
  out += " group=(";
  for (size_t i = 0; i < row.group.size(); ++i) {
    if (i > 0) out += ",";
    out += row.group[i].ToString(&catalog.strings());
  }
  out += ")";
  for (const AggSpec& spec : specs) {
    out += " ";
    out += spec.display;
    out += "=";
    out += row.aggs.Render(spec);
  }
  return out;
}

namespace {

bool CloseEnough(double a, double b) {
  if (a == b) return true;
  if (std::isinf(a) || std::isinf(b)) return false;
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

}  // namespace

int CompareGroups(const Value* a, size_t na, const Value* b, size_t nb) {
  for (size_t i = 0; i < std::min(na, nb); ++i) {
    const bool a_nan = a[i].is_nan();
    const bool b_nan = b[i].is_nan();
    if (a_nan || b_nan) {
      if (a_nan != b_nan) return a_nan ? 1 : -1;
      continue;
    }
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (na != nb) return na < nb ? -1 : 1;
  return 0;
}

void SortRows(std::vector<ResultRow>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const ResultRow& a, const ResultRow& b) {
              if (a.wid != b.wid) return a.wid < b.wid;
              return CompareGroups(a.group, b.group) < 0;
            });
}

bool RowsEquivalent(const std::vector<ResultRow>& a,
                    const std::vector<ResultRow>& b, const AggPlan& plan,
                    std::string* diff) {
  auto fail = [&](const std::string& msg) {
    if (diff != nullptr) *diff = msg;
    return false;
  };
  if (a.size() != b.size()) {
    return fail("row count mismatch: " + std::to_string(a.size()) + " vs " +
                std::to_string(b.size()));
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const ResultRow& x = a[i];
    const ResultRow& y = b[i];
    std::string where = "row " + std::to_string(i);
    if (x.wid != y.wid) return fail(where + ": window mismatch");
    if (CompareGroups(x.group, y.group) != 0) {
      return fail(where + ": group mismatch");
    }
    if (x.aggs.count.ToDecimal() != y.aggs.count.ToDecimal()) {
      return fail(where + ": COUNT(*) " + x.aggs.count.ToDecimal() + " vs " +
                  y.aggs.count.ToDecimal());
    }
    if (plan.need_type_count &&
        x.aggs.type_count.ToDecimal() != y.aggs.type_count.ToDecimal()) {
      return fail(where + ": COUNT(E) " + x.aggs.type_count.ToDecimal() +
                  " vs " + y.aggs.type_count.ToDecimal());
    }
    if (plan.need_min && !CloseEnough(x.aggs.min, y.aggs.min)) {
      return fail(where + ": MIN mismatch");
    }
    if (plan.need_max && !CloseEnough(x.aggs.max, y.aggs.max)) {
      return fail(where + ": MAX mismatch");
    }
    if (plan.need_sum && !CloseEnough(x.aggs.sum, y.aggs.sum)) {
      return fail(where + ": SUM " + std::to_string(x.aggs.sum) + " vs " +
                  std::to_string(y.aggs.sum));
    }
  }
  return true;
}

}  // namespace greta
