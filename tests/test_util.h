#ifndef GRETA_TESTS_TEST_UTIL_H_
#define GRETA_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/sase.h"
#include "common/catalog.h"
#include "common/stream.h"
#include "core/engine.h"
#include "gtest/gtest.h"

namespace greta::testing {

/// Catalog with the paper's running-example types A..E, each carrying one
/// numeric attribute `attr` (Figures 6, 12, 13).
inline std::unique_ptr<Catalog> PaperCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    catalog->DefineType(name,
                        {{"attr", Value::Kind::kDouble}});
  }
  return catalog;
}

/// Builds the stream of Figure 6: I = {a1, b2, c2, a3, e3, a4, c5, d6, b7,
/// a8, b9} (letter = type, number = timestamp). Attribute values default to
/// the timestamp unless overridden by attr_of.
inline Stream Figure6Stream(Catalog* catalog) {
  Stream stream;
  auto add = [&](const char* type, Ts time) {
    stream.Append(EventBuilder(catalog, type, time)
                      .Set("attr", static_cast<double>(time))
                      .Build());
  };
  add("A", 1);
  add("B", 2);
  add("C", 2);
  add("A", 3);
  add("E", 3);
  add("A", 4);
  add("C", 5);
  add("D", 6);
  add("B", 7);
  add("A", 8);
  add("B", 9);
  return stream;
}

/// The stream of Figure 12: I = {a1, b2, a3, a4, b7} with a1.attr=5,
/// a3.attr=6, a4.attr=4.
inline Stream Figure12Stream(Catalog* catalog) {
  Stream stream;
  auto add = [&](const char* type, Ts time, double attr) {
    stream.Append(
        EventBuilder(catalog, type, time).Set("attr", attr).Build());
  };
  add("A", 1, 5.0);
  add("B", 2, 2.0);
  add("A", 3, 6.0);
  add("A", 4, 4.0);
  add("B", 7, 7.0);
  return stream;
}

/// Runs a full stream through an engine and returns the emitted rows.
inline std::vector<ResultRow> RunEngine(EngineInterface* engine,
                                        const Stream& stream) {
  for (const Event& e : stream.events()) {
    Status s = engine->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  Status s = engine->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return engine->TakeResults();
}

/// Same IEEE-754 bit pattern (tells -0.0 from +0.0, NaN payloads apart).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bit-exact row comparison, for paths that must not change results at all
/// (kernels, batch sizes, SIMD tiers, merge orders): same windows, group
/// values of the same kinds (doubles with the same bit patterns), exact
/// counts and type counts, sum/min/max with the same bit patterns, and the
/// same `any` flag. Unlike
/// RowsEquivalent there is no floating-point tolerance. Reports the first
/// differing row.
inline void ExpectBitIdenticalRows(const std::vector<ResultRow>& want,
                                   const std::vector<ResultRow>& got,
                                   const std::string& label = "") {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const ResultRow& w = want[i];
    const ResultRow& g = got[i];
    std::string diff;
    if (w.wid != g.wid) diff += " wid";
    bool same_group = w.group.size() == g.group.size();
    for (size_t k = 0; same_group && k < w.group.size(); ++k) {
      const Value& a = w.group[k];
      const Value& b = g.group[k];
      same_group = a.kind() == b.kind() &&
                   (a.kind() == Value::Kind::kDouble
                        ? SameBits(a.AsDouble(), b.AsDouble())
                        : a == b);
    }
    if (!same_group) diff += " group";
    if (w.aggs.count.ToDecimal() != g.aggs.count.ToDecimal()) {
      diff += " count " + w.aggs.count.ToDecimal() + " vs " +
              g.aggs.count.ToDecimal();
    }
    if (w.aggs.type_count.ToDecimal() != g.aggs.type_count.ToDecimal()) {
      diff += " type_count " + w.aggs.type_count.ToDecimal() + " vs " +
              g.aggs.type_count.ToDecimal();
    }
    const auto bits = [&](const char* name, double a, double b) {
      if (SameBits(a, b)) return;
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %s %a vs %a", name, a, b);
      diff += buf;
    };
    bits("sum", w.aggs.sum, g.aggs.sum);
    bits("min", w.aggs.min, g.aggs.min);
    bits("max", w.aggs.max, g.aggs.max);
    if (w.aggs.any != g.aggs.any) diff += " any";
    if (!diff.empty()) {
      ADD_FAILURE() << label << " row " << i << " (wid " << w.wid
                    << "):" << diff;
      return;
    }
  }
}

/// Builds a GRETA engine or fails the test.
inline std::unique_ptr<GretaEngine> MakeGreta(
    const Catalog* catalog, const QuerySpec& spec,
    const EngineOptions& options = {}) {
  auto engine = GretaEngine::Create(catalog, spec, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Builds a SASE (oracle) engine or fails the test.
inline std::unique_ptr<SaseEngine> MakeOracle(
    const Catalog* catalog, const QuerySpec& spec,
    const TwoStepOptions& options = {}) {
  auto engine = SaseEngine::Create(catalog, spec, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// COUNT(*) of the single expected row; "-" when no row was produced.
inline std::string SingleCount(const std::vector<ResultRow>& rows) {
  if (rows.size() != 1) return "rows=" + std::to_string(rows.size());
  return rows[0].aggs.count.ToDecimal();
}

/// Query spec with COUNT(*) over the given pattern, no predicates,
/// unbounded window.
inline QuerySpec CountQuery(PatternPtr pattern) {
  QuerySpec spec;
  spec.pattern = std::move(pattern);
  spec.aggs.push_back(AggSpec{AggKind::kCountStar, kInvalidType,
                              kInvalidAttr, "COUNT(*)"});
  return spec;
}

/// Compares GRETA against the SASE oracle on a query and stream; returns
/// the GRETA rows for further inspection.
inline std::vector<ResultRow> ExpectMatchesOracle(const Catalog* catalog,
                                                  const QuerySpec& spec,
                                                  const Stream& stream) {
  auto greta = MakeGreta(catalog, spec.Clone());
  auto oracle = MakeOracle(catalog, spec.Clone());
  std::vector<ResultRow> greta_rows = RunEngine(greta.get(), stream);
  std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(greta_rows, oracle_rows, greta->agg_plan(),
                             &diff))
      << "GRETA vs oracle: " << diff;
  return greta_rows;
}

}  // namespace greta::testing

#endif  // GRETA_TESTS_TEST_UTIL_H_
