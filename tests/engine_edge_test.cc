// Failure injection and edge cases of the engines: in-order enforcement,
// repeated Flush, irrelevant events, planner rejections, stats reporting,
// DNF behavior, and result drain semantics.

#include "baselines/sase.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::CountQuery;
using testing::MakeGreta;
using testing::PaperCatalog;

Event At(Catalog* catalog, const char* type, Ts time) {
  return EventBuilder(catalog, type, time)
      .Set("attr", static_cast<double>(time))
      .Build();
}

TEST(EngineEdgeTest, RejectsOutOfOrderEvents) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(catalog.get(),
                          CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 10)).ok());
  Status s = engine->Process(At(catalog.get(), "A", 9));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EngineEdgeTest, TwoStepRejectsOutOfOrderEvents) {
  auto catalog = PaperCatalog();
  auto engine_or = SaseEngine::Create(
      catalog.get(), CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 10)).ok());
  EXPECT_FALSE(engine->Process(At(catalog.get(), "A", 9)).ok());
}

TEST(EngineEdgeTest, RepeatedFlushEmitsOnce) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(catalog.get(),
                          CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 1)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->TakeResults().size(), 1u);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->TakeResults().empty());
}

TEST(EngineEdgeTest, TakeResultsDrains) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(catalog.get(),
                          CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 1)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->TakeResults().size(), 1u);
  EXPECT_TRUE(engine->TakeResults().empty());
}

TEST(EngineEdgeTest, IrrelevantEventsAdvanceWatermark) {
  // Events of types outside the pattern still close windows.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(5);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 1)).ok());
  ASSERT_TRUE(engine->Process(At(catalog.get(), "E", 50)).ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].wid, 0);
}

TEST(EngineEdgeTest, LargeTimestampsDoNotStallWindowLoop) {
  // First event at an astronomically large time: window ids jump straight
  // to it instead of iterating from zero.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(10);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  Ts huge = Ts{1} << 50;
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", huge)).ok());
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", huge + 11)).ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "1");
}

TEST(EngineEdgeTest, PlannerRejectsTooManyWindowsPerEvent) {
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Sliding(1000, 1);  // k = 1000 > 64 default.
  auto engine = GretaEngine::Create(catalog.get(), spec);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnsupported);
}

TEST(EngineEdgeTest, PlannerRejectsMissingPattern) {
  auto catalog = PaperCatalog();
  QuerySpec spec;
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  EXPECT_FALSE(GretaEngine::Create(catalog.get(), spec).ok());
}

TEST(EngineEdgeTest, StatsAreReported) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(
      catalog.get(), CountQuery(Pattern::Plus(Pattern::Atom(0))));
  for (Ts t = 1; t <= 10; ++t) {
    ASSERT_TRUE(engine->Process(At(catalog.get(), "A", t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const EngineStats& stats = engine->stats();
  EXPECT_EQ(stats.events_processed, 10u);
  EXPECT_EQ(stats.vertices_stored, 10u);
  // A+ over 10 events: 45 pairwise edges.
  EXPECT_EQ(stats.edges_traversed, 45u);
  EXPECT_GT(stats.peak_bytes, 0u);
  EXPECT_FALSE(stats.dnf);
}

TEST(EngineEdgeTest, DnfEngineStaysInertAfterFlush) {
  auto catalog = PaperCatalog();
  TwoStepOptions options;
  options.work_budget = 10;
  auto engine_or = SaseEngine::Create(
      catalog.get(), CountQuery(Pattern::Plus(Pattern::Atom(0))), options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();
  for (Ts t = 1; t <= 20; ++t) {
    ASSERT_TRUE(engine->Process(At(catalog.get(), "A", t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->stats().dnf);
  EXPECT_TRUE(engine->TakeResults().empty());
  // Still accepts (and ignores) traffic after DNF.
  EXPECT_TRUE(engine->Process(At(catalog.get(), "A", 21)).ok());
  EXPECT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->TakeResults().empty());
}

TEST(EngineEdgeTest, ManyPartitionsManyWindows) {
  // Smoke: 50 groups x sliding windows with purge; exercises the routing
  // maps and pane cleanup paths together.
  auto catalog = std::make_unique<Catalog>();
  catalog->DefineType("T", {{"g", Value::Kind::kInt}});
  QuerySpec spec;
  spec.pattern = Pattern::Plus(Pattern::Atom(0));
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  spec.group_by = {"g"};
  spec.window = WindowSpec::Sliding(4, 2);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  for (Ts t = 0; t < 200; ++t) {
    for (int64_t g = 0; g < 50; ++g) {
      ASSERT_TRUE(engine
                      ->Process(EventBuilder(catalog.get(), "T", t)
                                    .Set("g", g)
                                    .Build())
                      .ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  // 100 closed windows x 50 groups (the first window [0,4) is wid 0; the
  // last window containing t=199 is wid 99 with start 198).
  EXPECT_EQ(rows.size(), 100u * 50u);
  // Full windows hold 4 events per group: 2^4 - 1 trends.
  EXPECT_EQ(rows[70].aggs.count.ToDecimal(), "15");
}

// Events after a mid-stream Flush() still reach the windows Flush closed
// (those rows are dropped, as always). Windows that start after the flush
// point hold only later events, so their rows must match an engine that
// never flushed — in particular no stale per-window result of a closed
// window may leak into a later window that reuses its result slot.
TEST(EngineEdgeTest, WindowsAfterMidStreamFlushMatchUninterruptedRun) {
  auto catalog = std::make_unique<Catalog>();
  catalog->DefineType("T", {{"g", Value::Kind::kInt},
                            {"x", Value::Kind::kDouble}});
  auto spec = ParseQuery(
      "RETURN g, COUNT(*), SUM(S.x) PATTERN T S+ WHERE [g] GROUP-BY g "
      "WITHIN 8 seconds SLIDE 2 seconds",
      catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto flushed = MakeGreta(catalog.get(), spec.value().Clone());
  auto straight = MakeGreta(catalog.get(), spec.value().Clone());
  constexpr Ts kFlushAt = 51;
  for (Ts t = 0; t < 120; ++t) {
    for (int64_t g = 0; g < 3; ++g) {
      if ((t + g) % 3 == 0) continue;
      Event e = EventBuilder(catalog.get(), "T", t)
                    .Set("g", g)
                    .Set("x", static_cast<double>((t * 7 + g) % 11) + 0.25)
                    .Build();
      ASSERT_TRUE(flushed->Process(e).ok());
      ASSERT_TRUE(straight->Process(e).ok());
    }
    if (t == kFlushAt) ASSERT_TRUE(flushed->Flush().ok());
  }
  ASSERT_TRUE(flushed->Flush().ok());
  ASSERT_TRUE(straight->Flush().ok());
  auto after_flush = [](std::vector<ResultRow> rows) {
    std::vector<ResultRow> kept;
    for (ResultRow& row : rows) {
      if (row.wid * 2 > kFlushAt) kept.push_back(std::move(row));
    }
    return kept;
  };
  std::vector<ResultRow> got = after_flush(flushed->TakeResults());
  std::vector<ResultRow> want = after_flush(straight->TakeResults());
  ASSERT_GT(want.size(), 60u);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(got, want, straight->agg_plan(), &diff)) << diff;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].aggs.sum, want[i].aggs.sum) << "row " << i;
  }
}

TEST(EngineEdgeTest, ZeroAggregateQueriesRejected) {
  auto catalog = PaperCatalog();
  QuerySpec spec;
  spec.pattern = Pattern::Plus(Pattern::Atom(0));
  EXPECT_FALSE(GretaEngine::Create(catalog.get(), spec).ok());
}

}  // namespace
}  // namespace greta
