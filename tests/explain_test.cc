// Tests for ExplainPlan rendering and the push-style result callback.

#include "core/explain.h"

#include "gtest/gtest.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/linear_road.h"
#include "workload/stock.h"

namespace greta {
namespace {

TEST(ExplainTest, RendersQ3Plan) {
  Catalog catalog;
  auto spec = MakeQ3(&catalog, /*within=*/300, /*slide=*/60);
  ASSERT_TRUE(spec.ok());
  auto engine = testing::MakeGreta(&catalog, std::move(spec).value());
  std::string text = ExplainPlan(engine->plan(), catalog);
  // Window and partitioning.
  EXPECT_NE(text.find("WITHIN 300 SLIDE 60"), std::string::npos);
  EXPECT_NE(text.find("partition by: segment(group) vehicle"),
            std::string::npos);
  EXPECT_NE(text.find("sharding: partition-parallel"), std::string::npos);
  // Negative sub-pattern with its placement case.
  EXPECT_NE(text.find("negative"), std::string::npos);
  EXPECT_NE(text.find("case 3 (leading)"), std::string::npos);
  // Edge predicate compiled to a tree range.
  EXPECT_NE(text.find("edge[(Position.speed > NEXT(Position).speed)]"),
            std::string::npos);
  EXPECT_NE(text.find("(tree range)"), std::string::npos);
  EXPECT_NE(text.find("tree key = speed"), std::string::npos);
}

TEST(ExplainTest, RendersDisjunctionAlternatives) {
  auto catalog = testing::PaperCatalog();
  auto spec =
      ParseQuery("RETURN COUNT(*) PATTERN A+ | SEQ(C, D)", catalog.get());
  ASSERT_TRUE(spec.ok());
  auto engine = testing::MakeGreta(catalog.get(), std::move(spec).value());
  std::string text = ExplainPlan(engine->plan(), *catalog);
  EXPECT_NE(text.find("alternative 0 (counts sum, disjoint)"),
            std::string::npos);
  EXPECT_NE(text.find("alternative 1"), std::string::npos);
  // No GROUP-BY / equivalence key: the plan states the shard-0 fallback
  // the sharded runtime applies (ShardRouter clamps to one shard).
  EXPECT_NE(text.find("sharding: none"), std::string::npos);
  EXPECT_NE(text.find("shard 0"), std::string::npos);
}

TEST(ExplainTest, RendersPartialSharingLayout) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  std::vector<QuerySpec> specs;
  for (const char* text :
       {"RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
        "RETURN SUM(S.price) PATTERN SEQ(Stock S+, Halt H) "
        "WITHIN 10 seconds SLIDE 5 seconds",
        "RETURN AVG(S.volume) PATTERN Stock S+ "
        "WITHIN 15 seconds SLIDE 5 seconds",
        "RETURN COUNT(S) PATTERN Stock S+ WITHIN 20 seconds SLIDE 5 seconds",
        "RETURN COUNT(H) PATTERN SEQ(Stock S+, Halt H) "
        "WITHIN 20 seconds SLIDE 5 seconds"}) {
    auto spec = ParseQuery(text, &catalog);
    ASSERT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
    specs.push_back(std::move(spec).value());
  }
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& spec : specs) spec_ptrs.push_back(&spec);
  auto engine = GretaEngine::CreatePartial(&catalog, spec_ptrs, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::string text = ExplainPlan(engine.value()->plan(), catalog);
  EXPECT_NE(text.find("partial sharing: 5 queries, 1 shared core state(s); "
                      "core cells per (vertex, window): 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fold slot 0: Stock.price [count sum] + snapshot "
                      "count; queries 1, 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fold slot 1: Stock.volume [count sum]; queries 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("no core fold (snapshot count only): queries 0, 4"),
            std::string::npos)
      << text;
}

TEST(ResultCallbackTest, FiresAtWindowClose) {
  auto catalog = testing::PaperCatalog();
  QuerySpec spec = testing::CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(10);
  auto engine = testing::MakeGreta(catalog.get(), std::move(spec));

  std::vector<std::pair<WindowId, std::string>> pushed;
  engine->set_result_callback([&](const ResultRow& row) {
    pushed.emplace_back(row.wid, row.aggs.count.ToDecimal());
  });

  auto at = [&](Ts t) {
    return EventBuilder(catalog.get(), "A", t).Set("attr", 1.0).Build();
  };
  ASSERT_TRUE(engine->Process(at(1)).ok());
  ASSERT_TRUE(engine->Process(at(2)).ok());
  EXPECT_TRUE(pushed.empty());  // Window 0 still open.
  ASSERT_TRUE(engine->Process(at(12)).ok());
  ASSERT_EQ(pushed.size(), 1u);  // Pushed at close, before any TakeResults.
  EXPECT_EQ(pushed[0].first, 0);
  EXPECT_EQ(pushed[0].second, "3");
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_EQ(pushed.size(), 2u);
  EXPECT_EQ(pushed[1].second, "1");
  // Pull-style rows are still available.
  EXPECT_EQ(engine->TakeResults().size(), 2u);
}

}  // namespace
}  // namespace greta
