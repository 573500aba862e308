// Partial sharing of common Kleene sub-patterns (Hamlet snapshot
// propagation): planner pooling, the core cell layout (fold slots keyed by
// aggregate target), the merged snapshot-propagating runtime, and the
// equivalence suite asserting that every query of a partially
// shared cluster produces the same rows as its own dedicated engine —
// across differing pattern suffixes, differing window lengths with equal
// slide, grouping, every aggregate kind, unbounded windows, and semantics
// (the restricted semantics fall back to unshared execution and must stay
// equivalent too).

#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "sharing/shared_engine.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using sharing::PlanSharing;
using sharing::QueryCluster;
using sharing::SharedEngineOptions;
using sharing::SharedWorkloadEngine;
using sharing::SharingOptions;
using sharing::SharingPlan;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

std::unique_ptr<Catalog> StockCatalog() {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  return catalog;
}

Stream StockStream(Catalog* catalog, double halt_probability = 0.05) {
  StockConfig config;
  config.seed = 11;
  config.num_companies = 4;
  config.num_sectors = 2;
  config.rate = 40;
  config.duration = 30;
  config.drift = 1.0;
  config.halt_probability = halt_probability;
  return GenerateStockStream(catalog, config);
}

// Runs the workload both ways and asserts per-query row equivalence;
// returns the shared engine for plan inspection.
std::unique_ptr<SharedWorkloadEngine> ExpectWorkloadEquivalent(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const Stream& stream, const SharedEngineOptions& options = {}) {
  auto shared = SharedWorkloadEngine::Create(catalog, workload, options);
  EXPECT_TRUE(shared.ok()) << shared.status().ToString();
  if (!shared.ok()) return nullptr;
  for (const Event& e : stream.events()) {
    Status s = shared.value()->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(shared.value()->Flush().ok());

  for (size_t q = 0; q < workload.size(); ++q) {
    auto independent =
        GretaEngine::Create(catalog, workload[q].Clone(), options.engine);
    EXPECT_TRUE(independent.ok()) << independent.status().ToString();
    if (!independent.ok()) return nullptr;
    std::vector<ResultRow> expected =
        testing::RunEngine(independent.value().get(), stream);
    std::vector<ResultRow> actual = shared.value()->TakeResults(q);
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(actual, expected,
                               shared.value()->agg_plan_for(q), &diff))
        << "query " << q << ": " << diff;
  }
  return std::move(shared).value();
}

size_t NumPartialClusters(const SharingPlan& plan) {
  size_t n = 0;
  for (const QueryCluster& c : plan.clusters) {
    n += (c.shared && c.partial) ? 1 : 0;
  }
  return n;
}

// The common Kleene core of the partial workloads below: down-trend runs
// per company, grouped by sector.
const char* kCoreTail =
    " WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector";

// Every aggregate kind over the core, on two attributes, with windows
// cycled so no two queries share an exact fingerprint.
std::vector<QuerySpec> AllAggregateKindsWorkload(Catalog* catalog) {
  std::vector<QuerySpec> workload;
  const std::vector<std::string> aggs = {
      "COUNT(*)", "SUM(S.price)", "MIN(S.price), MAX(S.price)", "COUNT(S)",
      "AVG(S.volume)"};
  for (size_t i = 0; i < aggs.size(); ++i) {
    Ts within = 5 + 5 * static_cast<Ts>(i);
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] + " PATTERN Stock S+" + kCoreTail +
            " WITHIN " + std::to_string(within) +
            " seconds SLIDE 5 seconds",
        catalog));
  }
  return workload;
}

// Compiles `workload` as one partial cluster and returns its core layout.
PartialSharingPlan PartialLayout(const std::vector<QuerySpec>& workload,
                                 const Catalog& catalog) {
  std::vector<const QuerySpec*> specs;
  for (const QuerySpec& spec : workload) specs.push_back(&spec);
  auto plan = BuildPartialSharedPlan(specs, catalog, PlannerOptions{});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok() || !plan.value()->partial.has_value()) return {};
  return *plan.value()->partial;
}

TEST(PartialSharingPlannerTest, FoldSlotsKeyedByAggregateTarget) {
  auto catalog = StockCatalog();
  const TypeId stock = catalog->FindType("Stock");
  const AttrId price = catalog->type(stock).FindAttr("price");
  const AttrId volume = catalog->type(stock).FindAttr("volume");

  // The 8-query down-trend workload of the repository benchmark
  // (perfbench `shared_partial`): five aggregate kinds over S.price, two
  // suffixes, four window lengths. Every attribute fold lands in one slot,
  // which also carries the snapshot count.
  {
    std::vector<QuerySpec> workload;
    const char* aggs[] = {"COUNT(*)", "SUM(S.price)", "MIN(S.price)",
                          "MAX(S.price)", "AVG(S.price)"};
    for (int i = 0; i < 8; ++i) {
      std::string pattern =
          i % 2 == 0 ? "Stock S+" : "SEQ(Stock S+, Halt H)";
      workload.push_back(Parse(
          std::string("RETURN company, ") + aggs[i % 5] + " PATTERN " +
              pattern +
              " WHERE [company] AND S.price > NEXT(S).price "
              "GROUP-BY company WITHIN " +
              std::to_string(10 + 5 * (i / 2)) + " seconds SLIDE 5 seconds",
          catalog.get()));
    }
    PartialSharingPlan layout = PartialLayout(workload, *catalog);
    ASSERT_EQ(layout.fold_plans.size(), 1u);
    EXPECT_EQ(layout.core_stride(), 1u);
    EXPECT_EQ(layout.fold_slots,
              (std::vector<int>{-1, 0, 0, 0, 0, -1, 0, 0}));
    const AggPlan& slot = layout.fold_plans[0];
    EXPECT_EQ(slot.target_type, stock);
    EXPECT_EQ(slot.target_attr, price);
    EXPECT_TRUE(slot.need_sum && slot.need_min && slot.need_max &&
                slot.need_type_count);
  }

  // Two attributes: one slot each; COUNT(S) names no attribute and joins
  // the first Stock slot instead of opening a third.
  {
    std::vector<QuerySpec> workload = AllAggregateKindsWorkload(catalog.get());
    PartialSharingPlan layout = PartialLayout(workload, *catalog);
    ASSERT_EQ(layout.fold_plans.size(), 2u);
    EXPECT_EQ(layout.core_stride(), 2u);
    EXPECT_EQ(layout.fold_slots, (std::vector<int>{-1, 0, 0, 0, 1}));
    const AggPlan& by_price = layout.fold_plans[0];
    EXPECT_EQ(by_price.target_attr, price);
    EXPECT_TRUE(by_price.need_sum && by_price.need_min &&
                by_price.need_max && by_price.need_type_count);
    const AggPlan& by_volume = layout.fold_plans[1];
    EXPECT_EQ(by_volume.target_attr, volume);
    EXPECT_TRUE(by_volume.need_sum && by_volume.need_type_count);
    EXPECT_FALSE(by_volume.need_min || by_volume.need_max);
  }

  // COUNT(H) targets a type no core state has: no slot, one cell.
  {
    std::vector<QuerySpec> workload;
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(H) PATTERN SEQ(Stock S+, Halt H)") +
            kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
        catalog.get()));
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 20 seconds SLIDE 5 seconds",
        catalog.get()));
    PartialSharingPlan layout = PartialLayout(workload, *catalog);
    EXPECT_TRUE(layout.fold_plans.empty());
    EXPECT_EQ(layout.core_stride(), 1u);
    EXPECT_EQ(layout.fold_slots, (std::vector<int>{-1, -1}));
  }
}

TEST(PartialSharingPlannerTest, PoolsDifferingSuffixesAndWindows) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  // Same Kleene core, different suffix.
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  // Same pattern, different WITHIN under the same slide.
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));

  auto plan = PlanSharing(workload, *catalog.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().clusters.size(), 1u);
  const QueryCluster& cluster = plan.value().clusters[0];
  EXPECT_TRUE(cluster.shared);
  EXPECT_TRUE(cluster.partial);
  EXPECT_EQ(cluster.query_ids, (std::vector<size_t>{0, 1, 2}));
  EXPECT_LT(cluster.shared_cost, cluster.independent_cost);
  EXPECT_NE(plan.value().ToString().find("SHARED-PARTIAL"),
            std::string::npos);
}

TEST(PartialSharingPlannerTest, IneligibleShapesStayDedicated) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  // No Kleene prefix.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H, Halt G) "
      "WITHIN 10 seconds",
      catalog.get()));
  // Negation.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN SUM(S.price) PATTERN SEQ(NOT Halt H, Stock S+) "
      "WITHIN 20 seconds",
      catalog.get()));
  // Different slide.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 2 seconds",
      catalog.get()));
  // Core predicates disagree.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.volume > 20 "
      "WITHIN 12 seconds SLIDE 6 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.volume > 50 "
      "WITHIN 24 seconds SLIDE 6 seconds",
      catalog.get()));

  auto plan = PlanSharing(workload, *catalog.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(NumPartialClusters(plan.value()), 0u);
  EXPECT_EQ(plan.value().num_shared_clusters(), 0u);
}

TEST(PartialSharingPlannerTest, DisableFlagKeepsQueriesApart) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));
  SharingOptions off;
  off.enable_partial_sharing = false;
  auto plan = PlanSharing(workload, *catalog.get(), off);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(NumPartialClusters(plan.value()), 0u);
}

TEST(PartialSharingEquivalenceTest, DifferingSuffixes) {
  // Three suffixes of the same Kleene core under ONE window: the full
  // patterns (and so the exact fingerprints) all differ, yet the queries
  // run as one snapshot-propagating runtime.
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) "
                  "PATTERN SEQ(Stock S+, Halt H, Halt G)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, DifferingWindowsEqualSlide) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  for (Ts within : {4, 8, 12, 20}) {
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN " + std::to_string(within) +
            " seconds SLIDE 4 seconds",
        catalog.get()));
  }
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
  // One merged graph: the shared core stores each Stock event once, not
  // once per query.
  auto independent = GretaEngine::Create(catalog.get(), workload[0].Clone());
  ASSERT_TRUE(independent.ok());
  std::vector<ResultRow> rows =
      testing::RunEngine(independent.value().get(), stream);
  (void)rows;
  EXPECT_LT(shared->stats().vertices_stored,
            4 * independent.value()->stats().vertices_stored);
}

TEST(PartialSharingEquivalenceTest, AllAggregateKindsFoldThroughSnapshots) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload = AllAggregateKindsWorkload(catalog.get());
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, SharedTargetSlotsMixedAggregates) {
  // Queries on both Stock attributes, COUNT(S) (joins a Stock slot),
  // COUNT(H) (no core slot) and COUNT(*)-only, over both suffixes, with
  // the COUNT(S) query listed first: every query reads only its own
  // components out of the slots it shares.
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get(), /*halt_probability=*/0.1);
  struct Q {
    const char* aggs;
    const char* pattern;
    int within;
  };
  const Q queries[] = {
      {"COUNT(S)", "SEQ(Stock S+, Halt H)", 5},
      {"SUM(S.price), MAX(S.price)", "Stock S+", 10},
      {"AVG(S.volume)", "SEQ(Stock S+, Halt H)", 15},
      {"COUNT(H)", "SEQ(Stock S+, Halt H)", 20},
      {"COUNT(*)", "Stock S+", 15},
      {"MIN(S.volume), COUNT(S)", "Stock S+", 5},
      {"AVG(S.price)", "SEQ(Stock S+, Halt H)", 10},
  };
  std::vector<QuerySpec> workload;
  for (const Q& q : queries) {
    workload.push_back(Parse(
        std::string("RETURN sector, ") + q.aggs + " PATTERN " + q.pattern +
            kCoreTail + " WITHIN " + std::to_string(q.within) +
            " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  PartialSharingPlan layout = PartialLayout(workload, *catalog);
  EXPECT_EQ(layout.core_stride(), 2u);
  EXPECT_EQ(layout.fold_slots, (std::vector<int>{0, 0, 1, -1, -1, 1, 0}));

  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, SuffixPredicatesStayPerQuery) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  // Same core predicates; one query filters its suffix Halt events, the
  // other does not — they still pool (suffix predicates are per query).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          " WHERE [company, sector] AND S.price > NEXT(S).price AND "
          "H.sector < 1 GROUP-BY sector WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, UnboundedWindows) {
  auto catalog = StockCatalog();
  StockConfig config;
  config.seed = 3;
  config.num_companies = 3;
  config.num_sectors = 2;
  config.rate = 10;
  config.duration = 12;
  config.drift = 1.0;
  config.halt_probability = 0.1;
  Stream stream = GenerateStockStream(catalog.get(), config);

  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail,
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) "
                  "PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail,
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, RestrictedSemanticsFallBackUnshared) {
  for (Semantics semantics :
       {Semantics::kSkipTillNextMatch, Semantics::kContiguous}) {
    auto catalog = StockCatalog();
    Stream stream = StockStream(catalog.get());
    std::vector<QuerySpec> workload;
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 10 seconds SLIDE 5 seconds",
        catalog.get()));
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 20 seconds SLIDE 5 seconds",
        catalog.get()));
    SharedEngineOptions options;
    options.engine.semantics = semantics;
    auto shared =
        ExpectWorkloadEquivalent(catalog.get(), workload, stream, options);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 0u);
  }
}

// Acceptance criterion: an 8-query workload sharing one Kleene sub-pattern
// but differing in pattern suffix or window length runs as one partially
// shared cluster, equivalent to independent engines for every query.
TEST(PartialSharingEquivalenceTest, EightQuerySharedCoreWorkload) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  const std::vector<std::string> aggs = {"COUNT(*)", "SUM(S.price)",
                                         "MIN(S.price)", "AVG(S.price)"};
  // 4 windows x plain core, 4 windows x Halt suffix.
  for (int i = 0; i < 4; ++i) {
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] + " PATTERN Stock S+" + kCoreTail +
            " WITHIN " + std::to_string(5 * (i + 1)) +
            " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  for (int i = 0; i < 4; ++i) {
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] +
            " PATTERN SEQ(Stock S+, Halt H)" + kCoreTail + " WITHIN " +
            std::to_string(5 * (i + 1)) + " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  ASSERT_EQ(workload.size(), 8u);
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().clusters.size(), 1u);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, MixedExactPartialAndDedicated) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  // Exact cluster (identical fingerprints, different aggregates).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  // Partial pool (same core, one suffixed, one longer window).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 15 seconds SLIDE 5 seconds",
      catalog.get()));
  // Dedicated (no Kleene prefix).
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WHERE [sector] "
      "WITHIN 10 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  const SharingPlan& plan = shared->sharing_plan();
  EXPECT_EQ(plan.clusters.size(), 3u);
  EXPECT_EQ(plan.num_shared_clusters(), 2u);
  EXPECT_EQ(NumPartialClusters(plan), 1u);
}

}  // namespace
}  // namespace greta
