// Kernel equivalence suite: every propagation-kernel variant (COUNT-only
// modular / COUNT-only exact / generic; single-query, multi-query shared
// cells, partial sharing) must produce rows identical to the generic
// flag-tested path on randomized streams — the kernels change only how
// aggregate state moves, never what it computes. Plus Counter
// promotion-boundary tests at the u64 overflow edge, including an
// engine-level run whose trend count crosses 2^64.

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_batch.h"
#include "common/kslack.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::ExpectBitIdenticalRows;
using testing::MakeGreta;
using testing::RunEngine;

std::unique_ptr<Catalog> FuzzCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C"}) {
    catalog->DefineType(name, {{"x", Value::Kind::kDouble},
                               {"g", Value::Kind::kInt}});
  }
  return catalog;
}

// `nan_every` > 0 overwrites x with NaN on every nan_every-th event (after
// the same random draws, so the rest of the stream is unchanged).
Stream FuzzStream(Catalog* catalog, uint64_t seed, int n, int nan_every = 0) {
  Random rng(seed);
  const char* types[] = {"A", "B", "C"};
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < n; ++i) {
    time += rng.UniformInt(0, 2);
    const char* type = types[rng.UniformInt(0, 2)];
    double x = rng.UniformDouble(0, 10);
    if (nan_every > 0 && i % nan_every == 0) {
      x = std::numeric_limits<double>::quiet_NaN();
    }
    stream.Append(EventBuilder(catalog, type, time)
                      .Set("x", x)
                      .Set("g", rng.UniformInt(0, 2))
                      .Build());
  }
  return stream;
}

// Runs `spec` with kernels enabled and disabled and asserts identical rows.
void ExpectKernelMatchesGeneric(const Catalog* catalog, const QuerySpec& spec,
                                const Stream& stream, EngineOptions options,
                                const std::string& label) {
  options.enable_specialized_kernels = true;
  auto fast = MakeGreta(catalog, spec.Clone(), options);
  options.enable_specialized_kernels = false;
  auto generic = MakeGreta(catalog, spec.Clone(), options);
  std::vector<ResultRow> fast_rows = RunEngine(fast.get(), stream);
  std::vector<ResultRow> generic_rows = RunEngine(generic.get(), stream);
  ExpectBitIdenticalRows(fast_rows, generic_rows, label);
}

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// Processes the stream WITHOUT draining rows (multi-query runtimes are
// drained per slot with TakeResultsFor afterwards; RunEngine would swallow
// every slot through TakeResults).
void ProcessStream(GretaEngine* engine, const Stream& stream) {
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
}

TEST(HotpathEquivalence, SingleQueryKernelGrid) {
  auto catalog = FuzzCatalog();
  const char* aggs[] = {"COUNT(*)", "COUNT(S)", "SUM(S.x)",
                        "MIN(S.x), MAX(S.x)", "AVG(S.x)"};
  const char* patterns[] = {"A S+", "SEQ(A S+, B E)",
                            "SEQ(C H, A S+, B E)"};
  const char* windows[] = {"", " WITHIN 8 seconds SLIDE 4 seconds",
                           " WITHIN 10 seconds SLIDE 10 seconds"};
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    for (const char* agg : aggs) {
      for (const char* pattern : patterns) {
        for (const char* window : windows) {
          // COUNT(A)/attribute aggregates need the Kleene type in scope for
          // every pattern above (it is: S binds A).
          std::string text = "RETURN " + std::string(agg) + " PATTERN " +
                             pattern + " GROUP-BY g" + window;
          QuerySpec spec = Parse(text, catalog.get());
          Stream stream = FuzzStream(catalog.get(), 7, 120);
          EngineOptions options;
          options.counter_mode = mode;
          ExpectKernelMatchesGeneric(
              catalog.get(), spec, stream, options,
              text + (mode == CounterMode::kExact ? " [exact]"
                                                  : " [modular]"));
        }
      }
    }
  }
}

TEST(HotpathEquivalence, SemanticsAndPredicates) {
  auto catalog = FuzzCatalog();
  std::string text =
      "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x "
      "WITHIN 6 seconds SLIDE 3 seconds";
  QuerySpec spec = Parse(text, catalog.get());
  for (Semantics semantics :
       {Semantics::kSkipTillAnyMatch, Semantics::kSkipTillNextMatch,
        Semantics::kContiguous}) {
    Stream stream = FuzzStream(catalog.get(), 13, 150);
    EngineOptions options;
    options.semantics = semantics;
    ExpectKernelMatchesGeneric(catalog.get(), spec, stream, options,
                               text + " semantics=" +
                                   std::to_string(static_cast<int>(semantics)));
  }
}

TEST(HotpathEquivalence, NegationStaysGenericAndIdentical) {
  auto catalog = FuzzCatalog();
  for (const char* pattern :
       {"SEQ(A S+, NOT C N, B E)", "SEQ(A S+, NOT C N)",
        "SEQ(NOT C N, A S+)"}) {
    std::string text = "RETURN COUNT(*) PATTERN " + std::string(pattern) +
                       " WITHIN 8 seconds SLIDE 4 seconds";
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 29, 150);
    ExpectKernelMatchesGeneric(catalog.get(), spec, stream, {}, text);
  }
}

TEST(HotpathEquivalence, MultiQuerySharedCells) {
  auto catalog = FuzzCatalog();
  // All-COUNT cluster exercises the multi-slot count kernel; the mixed
  // cluster must demote to the generic kernel and still match.
  const std::vector<std::vector<std::string>> workloads = {
      {"RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds"},
      {"RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN MIN(S.x), MAX(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 "
       "seconds"}};
  for (const std::vector<std::string>& workload : workloads) {
    std::vector<QuerySpec> specs;
    for (const std::string& text : workload) {
      specs.push_back(Parse(text, catalog.get()));
    }
    std::vector<const QuerySpec*> spec_ptrs;
    for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

    Stream stream = FuzzStream(catalog.get(), 41, 150);
    EngineOptions options;
    options.enable_specialized_kernels = true;
    auto fast = GretaEngine::CreateMulti(catalog.get(), spec_ptrs, options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    options.enable_specialized_kernels = false;
    auto generic =
        GretaEngine::CreateMulti(catalog.get(), spec_ptrs, options);
    ASSERT_TRUE(generic.ok()) << generic.status().ToString();

    ProcessStream(fast.value().get(), stream);
    ProcessStream(generic.value().get(), stream);
    for (size_t q = 0; q < specs.size(); ++q) {
      ExpectBitIdenticalRows(fast.value()->TakeResultsFor(q),
                             generic.value()->TakeResultsFor(q),
                             "multi-query slot " + std::to_string(q));
    }
  }
}

TEST(HotpathEquivalence, PartialSharingMatchesDedicatedKernels) {
  auto catalog = FuzzCatalog();
  // Shared Kleene core, differing suffixes and windows: the partial runtime
  // (its own snapshot path, arena-backed vertices) must match dedicated
  // engines running the specialized kernels.
  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 4 seconds SLIDE 4 "
      "seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 53, 150);
  auto partial = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ProcessStream(partial.value().get(), stream);
  for (size_t q = 0; q < specs.size(); ++q) {
    auto dedicated = MakeGreta(catalog.get(), specs[q].Clone());
    std::vector<ResultRow> expected = RunEngine(dedicated.get(), stream);
    ExpectBitIdenticalRows(partial.value()->TakeResultsFor(q), expected,
                           "partial slot " + std::to_string(q));
  }
}

// Telemetry is observation only: the SAME engine/kernel grid run with the
// registry armed and disarmed must produce bit-identical rows — the
// instrumented hot paths (routing tallies, window-close flushes) may never
// leak into results.
TEST(HotpathEquivalence, TelemetryOnOffRowsIdentical) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  auto catalog = FuzzCatalog();
  const char* queries[] = {
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      "RETURN SUM(S.x) PATTERN SEQ(A S+, B E) WHERE S.x < NEXT(S).x "
      "WITHIN 6 seconds SLIDE 3 seconds",
  };
  for (const char* text : queries) {
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 61, 150);

    reg.Reset();
    reg.set_enabled(true);  // before Create: instruments cache here
    auto armed = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> armed_rows = RunEngine(armed.get(), stream);
#if GRETA_TELEMETRY
    // The armed run actually recorded (otherwise this test is vacuous).
    bool routed = false;
    for (const auto& c : reg.ScrapeCounters()) {
      if (c.name == "greta_core_events_routed_total" && c.value > 0) {
        routed = true;
      }
    }
    EXPECT_TRUE(routed) << text;
#endif

    reg.Reset();
    reg.set_enabled(false);
    auto disarmed = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> disarmed_rows = RunEngine(disarmed.get(), stream);
    reg.set_enabled(true);

    ExpectBitIdenticalRows(armed_rows, disarmed_rows,
                           std::string("telemetry on/off: ") + text);
  }
  reg.Reset();
}

// --- Columnar batch path (ProcessBatch) vs scalar (Process) ---

// Packs the events into columnar batches of `batch_size` rows and feeds
// them through ProcessBatch, draining emitted rows after every batch. Takes
// a raw vector (not a Stream) so locally disordered wires can exercise
// sort_within_batch.
std::vector<ResultRow> RunEngineBatched(EngineInterface* engine,
                                        const std::vector<Event>& events,
                                        size_t batch_size,
                                        bool sort_within_batch = false) {
  std::vector<ResultRow> rows;
  EventBatch batch;
  batch.reserve(batch_size);
  size_t i = 0;
  while (i < events.size()) {
    batch.clear();
    for (; i < events.size() && batch.size() < batch_size; ++i) {
      batch.Append(events[i]);
    }
    if (sort_within_batch) batch.SortByTime();
    Status s = engine->ProcessBatch(batch);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) return rows;
    for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  }
  Status s = engine->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  return rows;
}

std::vector<ResultRow> RunEngineBatched(EngineInterface* engine,
                                        const Stream& stream,
                                        size_t batch_size) {
  return RunEngineBatched(engine, stream.events(), batch_size);
}

// Like ProcessStream but through ProcessBatch (multi-query engines drain per
// slot afterwards).
void ProcessStreamBatched(GretaEngine* engine, const Stream& stream,
                          size_t batch_size) {
  EventBatch batch;
  batch.reserve(batch_size);
  const std::vector<Event>& events = stream.events();
  size_t i = 0;
  while (i < events.size()) {
    batch.clear();
    for (; i < events.size() && batch.size() < batch_size; ++i) {
      batch.Append(events[i]);
    }
    ASSERT_TRUE(engine->ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
}

// One scalar run, then batched runs at ragged sizes (1 = degenerate
// per-event batches, 7 = misaligned with every window and same-timestamp
// run, 256 = whole stream in one batch), plus an enable_batch_kernels=false
// ablation that forces the row-at-a-time path through the batch entry
// point. All rows bit-identical, and every batched run traverses the same
// edges as the scalar one.
void ExpectBatchMatchesScalar(const Catalog* catalog, const QuerySpec& spec,
                              const Stream& stream, EngineOptions options,
                              const std::string& label) {
  auto scalar = MakeGreta(catalog, spec.Clone(), options);
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), stream);
  scalar->RefreshStats();
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto batched = MakeGreta(catalog, spec.Clone(), options);
    const std::string batch_label =
        label + " batch=" + std::to_string(batch_size);
    ExpectBitIdenticalRows(scalar_rows,
                           RunEngineBatched(batched.get(), stream, batch_size),
                           batch_label);
    batched->RefreshStats();
    EXPECT_EQ(scalar->stats().edges_traversed,
              batched->stats().edges_traversed)
        << batch_label;
  }
  EngineOptions ablated = options;
  ablated.enable_batch_kernels = false;
  auto generic = MakeGreta(catalog, spec.Clone(), ablated);
  ExpectBitIdenticalRows(scalar_rows,
                         RunEngineBatched(generic.get(), stream, 64),
                         label + " [batch kernels off]");
}

TEST(BatchEquivalence, SingleQueryKernelGrid) {
  auto catalog = FuzzCatalog();
  const char* aggs[] = {"COUNT(*)", "SUM(S.x)"};
  const char* patterns[] = {"A S+", "SEQ(A S+, B E)"};
  // Unbounded, sliding and tumbling windows: every cell of this grid is now
  // covered by an amortized run kernel (shared-fold or suffix-merge for the
  // predicate-free queries); the rows must stay bit-identical regardless of
  // which strategy the kernel picks.
  const char* windows[] = {"", " WITHIN 8 seconds SLIDE 4 seconds",
                           " WITHIN 10 seconds SLIDE 10 seconds"};
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    for (const char* agg : aggs) {
      for (const char* pattern : patterns) {
        for (const char* window : windows) {
          std::string text = "RETURN " + std::string(agg) + " PATTERN " +
                             pattern + " GROUP-BY g" + window;
          QuerySpec spec = Parse(text, catalog.get());
          Stream stream = FuzzStream(catalog.get(), 101, 150);
          EngineOptions options;
          options.counter_mode = mode;
          ExpectBatchMatchesScalar(
              catalog.get(), spec, stream, options,
              text + (mode == CounterMode::kExact ? " [exact]"
                                                  : " [modular]"));
        }
      }
    }
  }
}

TEST(BatchEquivalence, SemanticsAndPredicates) {
  auto catalog = FuzzCatalog();
  // The NEXT predicate populates follow_links_, which disqualifies the
  // batch fast path per call; the plain query keeps it.
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ WITHIN 6 seconds SLIDE 6 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x "
        "WITHIN 6 seconds SLIDE 3 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    for (Semantics semantics :
         {Semantics::kSkipTillAnyMatch, Semantics::kSkipTillNextMatch,
          Semantics::kContiguous}) {
      Stream stream = FuzzStream(catalog.get(), 103, 150);
      EngineOptions options;
      options.semantics = semantics;
      ExpectBatchMatchesScalar(
          catalog.get(), spec, stream, options,
          std::string(text) + " semantics=" +
              std::to_string(static_cast<int>(semantics)));
    }
  }
}

TEST(BatchEquivalence, NegationFallsBackAndMatches) {
  auto catalog = FuzzCatalog();
  for (const char* pattern :
       {"SEQ(A S+, NOT C N, B E)", "SEQ(NOT C N, A S+)"}) {
    std::string text = "RETURN COUNT(*) PATTERN " + std::string(pattern) +
                       " WITHIN 8 seconds SLIDE 8 seconds";
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 107, 150);
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
  }
}

// Tumbling boundaries land mid-batch: two events per timestamp so batch
// splits of 3 and 5 cut through same-timestamp runs AND window closes.
TEST(BatchEquivalence, CrossWindowBoundarySplits) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 4 seconds SLIDE 4 seconds",
      catalog.get());
  Random rng(109);
  const char* types[] = {"A", "B", "C"};
  Stream stream;
  for (Ts t = 0; t < 30; ++t) {
    for (int dup = 0; dup < 2; ++dup) {
      stream.Append(EventBuilder(catalog.get(), types[rng.UniformInt(0, 2)], t)
                        .Set("x", rng.UniformDouble(0, 10))
                        .Set("g", rng.UniformInt(0, 2))
                        .Build());
    }
  }
  auto scalar = MakeGreta(catalog.get(), spec.Clone());
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), stream);
  for (size_t batch_size : {size_t{3}, size_t{5}}) {
    auto batched = MakeGreta(catalog.get(), spec.Clone());
    ExpectBitIdenticalRows(scalar_rows,
                           RunEngineBatched(batched.get(), stream, batch_size),
                           "window split batch=" + std::to_string(batch_size));
  }
}

// Batched routing must broadcast exactly like scalar routing when a type
// lacks a key attribute (delivery to every agreeing partition, replay into
// partitions created later in the same run).
TEST(BatchEquivalence, BroadcastRoutingInBatches) {
  Catalog catalog;
  catalog.DefineType("A", {{"x", Value::Kind::kDouble},
                           {"g", Value::Kind::kInt}});
  catalog.DefineType("B", {{"x", Value::Kind::kDouble}});  // no g: broadcasts
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) GROUP-BY g "
      "WITHIN 8 seconds SLIDE 4 seconds",
      &catalog);
  Random rng(113);
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < 150; ++i) {
    time += rng.UniformInt(0, 2);
    if (rng.UniformInt(0, 3) == 0) {
      stream.Append(EventBuilder(&catalog, "B", time)
                        .Set("x", rng.UniformDouble(0, 10))
                        .Build());
    } else {
      stream.Append(EventBuilder(&catalog, "A", time)
                        .Set("x", rng.UniformDouble(0, 10))
                        .Set("g", rng.UniformInt(0, 2))
                        .Build());
    }
  }
  ExpectBatchMatchesScalar(&catalog, spec, stream, {}, "broadcast");
}

TEST(BatchEquivalence, MultiQuerySharedCells) {
  auto catalog = FuzzCatalog();
  const std::vector<std::string> workload = {
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds"};
  std::vector<QuerySpec> specs;
  for (const std::string& text : workload) {
    specs.push_back(Parse(text, catalog.get()));
  }
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 127, 150);
  auto scalar = GretaEngine::CreateMulti(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  auto batched = GretaEngine::CreateMulti(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  ProcessStream(scalar.value().get(), stream);
  ProcessStreamBatched(batched.value().get(), stream, 7);
  for (size_t q = 0; q < specs.size(); ++q) {
    ExpectBitIdenticalRows(scalar.value()->TakeResultsFor(q),
                           batched.value()->TakeResultsFor(q),
                           "multi-query batched slot " + std::to_string(q));
  }
}

TEST(BatchEquivalence, PartialSharingBatchVsScalar) {
  auto catalog = FuzzCatalog();
  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 4 seconds SLIDE 4 "
      "seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 131, 150);
  auto scalar = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  auto batched = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  ProcessStream(scalar.value().get(), stream);
  ProcessStreamBatched(batched.value().get(), stream, 7);
  for (size_t q = 0; q < specs.size(); ++q) {
    ExpectBitIdenticalRows(scalar.value()->TakeResultsFor(q),
                           batched.value()->TakeResultsFor(q),
                           "partial batched slot " + std::to_string(q));
  }
}

// Sliding windows with k = 2 and k = 5 panes per event: the run kernel must
// produce the identical per-window fan-out the scalar path gets from
// FirstWindowOf/LastWindowOf, including events whose run straddles a pane
// boundary. With a NEXT predicate the lower time bound varies per event, so
// the suffix-merge strategy (COUNT) is exercised alongside shared-fold.
TEST(BatchEquivalence, SlidingWindows) {
  auto catalog = FuzzCatalog();
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ GROUP-BY g "
        "WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN COUNT(*) PATTERN A S+ GROUP-BY g "
        "WITHIN 10 seconds SLIDE 2 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x "
        "WITHIN 10 seconds SLIDE 2 seconds",
        "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WHERE S.x < NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 157, 150);
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
  }
}

// SUM/MIN/MAX/AVG drive the generic fold through the batch kernels.
// Without a predicate every event of a run sees the same bounds
// (shared-fold, valid even for order-sensitive FP sums); with a NEXT
// predicate SUM/AVG must take the per-event strategy (FP addition does not
// commute) while MIN/MAX may suffix-merge — all bit-identical to scalar.
TEST(BatchEquivalence, AttributeAggregates) {
  auto catalog = FuzzCatalog();
  const char* aggs[] = {"SUM(S.x)", "MIN(S.x)", "MAX(S.x)", "AVG(S.x)",
                        "MIN(S.x), MAX(S.x)"};
  const char* wheres[] = {"", " WHERE S.x < NEXT(S).x"};
  const char* windows[] = {" WITHIN 10 seconds SLIDE 10 seconds",
                           " WITHIN 8 seconds SLIDE 4 seconds"};
  for (const char* agg : aggs) {
    for (const char* where : wheres) {
      for (const char* window : windows) {
        std::string text = "RETURN " + std::string(agg) + " PATTERN A S+" +
                           where + " GROUP-BY g" + window;
        QuerySpec spec = Parse(text, catalog.get());
        Stream stream = FuzzStream(catalog.get(), 163, 150);
        ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
      }
    }
  }
}

// Residual predicates (not expressible as a time/attribute range over the
// skip-list key) no longer disqualify the batch path: the per-event strategy
// compacts collected predecessors through the compiled edge filters. The
// arithmetic conjunct is entirely non-extractable, so every edge goes
// through the residual filter.
TEST(BatchEquivalence, ResidualPredicates) {
  auto catalog = FuzzCatalog();
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ "
        "WHERE S.x < NEXT(S).x AND S.g >= NEXT(S).g "
        "WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN SUM(S.x) PATTERN A S+ "
        "WHERE S.x < NEXT(S).x AND S.g >= NEXT(S).g "
        "WITHIN 10 seconds SLIDE 10 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x + S.g < NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 167, 150);
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
  }
}

// Partial sharing with attribute aggregates at ragged batch sizes: the
// kPartial run kernel must fill the same (snapshot, fold-slot) cells as
// the kPartial row kernel, including the per-query handoff at suffix states.
TEST(BatchEquivalence, PartialSharingBatchedAggregates) {
  auto catalog = FuzzCatalog();
  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 4 seconds SLIDE 4 "
      "seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 173, 150);
  auto scalar = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  ProcessStream(scalar.value().get(), stream);
  std::vector<std::vector<ResultRow>> expected;
  for (size_t q = 0; q < specs.size(); ++q) {
    expected.push_back(scalar.value()->TakeResultsFor(q));
  }
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto batched = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ProcessStreamBatched(batched.value().get(), stream, batch_size);
    for (size_t q = 0; q < specs.size(); ++q) {
      ExpectBitIdenticalRows(batched.value()->TakeResultsFor(q), expected[q],
                             "partial agg slot " + std::to_string(q) +
                              " batch=" + std::to_string(batch_size));
    }
  }
}

// Queries sharing fold slots by aggregate target (two attributes of A,
// COUNT(S) joining an A slot, COUNT(E) on the suffix type with no core
// slot, COUNT(*)-only), with and without a NEXT predicate (shared fold vs
// per-event strategy): the batched kernel at ragged sizes must fill the
// shared slots exactly as the kPartial row kernel does.
TEST(BatchEquivalence, PartialSharingSharedTargetSlots) {
  auto catalog = FuzzCatalog();
  for (const char* where : {"", " WHERE S.x < NEXT(S).x"}) {
    std::vector<QuerySpec> specs;
    for (const auto& [head, within] :
         std::vector<std::pair<const char*, int>>{
             {"RETURN COUNT(S) PATTERN SEQ(A S+, B E)", 4},
             {"RETURN SUM(S.x), MIN(S.x) PATTERN A S+", 8},
             {"RETURN AVG(S.g) PATTERN SEQ(A S+, B E)", 8},
             {"RETURN MAX(S.x), COUNT(S) PATTERN A S+", 4},
             {"RETURN COUNT(E) PATTERN SEQ(A S+, B E)", 12},
             {"RETURN COUNT(*) PATTERN A S+", 12},
             {"RETURN MIN(S.g), MAX(S.g) PATTERN A S+", 16}}) {
      specs.push_back(Parse(std::string(head) + where + " WITHIN " +
                                std::to_string(within) +
                                " seconds SLIDE 4 seconds",
                            catalog.get()));
    }
    std::vector<const QuerySpec*> spec_ptrs;
    for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);
    const std::string label = std::string("shared targets") + where;

    Stream stream = FuzzStream(catalog.get(), 179, 150);
    auto scalar = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    EXPECT_EQ(scalar.value()->plan().partial->core_stride(), 2u) << label;
    ProcessStream(scalar.value().get(), stream);
    std::vector<std::vector<ResultRow>> expected;
    for (size_t q = 0; q < specs.size(); ++q) {
      expected.push_back(scalar.value()->TakeResultsFor(q));
    }
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
      auto batched = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      ProcessStreamBatched(batched.value().get(), stream, batch_size);
      for (size_t q = 0; q < specs.size(); ++q) {
        ExpectBitIdenticalRows(batched.value()->TakeResultsFor(q), expected[q],
                               label + " slot " + std::to_string(q) +
                                " batch=" + std::to_string(batch_size));
      }
    }
  }
}

// A NaN sort key hands the affected (state, run) from the run kernel back
// to the row kernel mid-run (reason="bounds") — the one place the run
// kernel calls the row kernel. CombineTransitionBounds drops a NaN
// NEXT(S).x bound (every comparison with NaN is false), so what fires here
// is a NaN predecessor key met while collecting entries for a
// multi-event run. Single-query, multi-query shared and partial plans at
// ragged batch sizes must stay bit-identical to per-event Process, and the
// fallback must actually fire wherever a run can hold two events (batch
// size > 1). The aggregates read g, not the NaN-bearing x, so the exact
// sum comparisons stay meaningful.
TEST(BatchEquivalence, NanSortKeyFallsBackToRowKernel) {
  auto catalog = FuzzCatalog();
  Stream stream = FuzzStream(catalog.get(), 191, 150, /*nan_every=*/5);
  const std::string where = " WHERE S.x < NEXT(S).x";
  auto fallback_rows = [](GretaEngine* engine) {
    engine->RefreshStats();
    return engine->stats().batch_rows_fallback;
  };

  {
    const std::string text =
        "RETURN COUNT(*), SUM(S.g), MIN(S.g), MAX(S.g) PATTERN "
        "SEQ(A S+, B E)" + where + " WITHIN 8 seconds SLIDE 4 seconds";
    QuerySpec spec = Parse(text, catalog.get());
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
    for (size_t batch_size : {size_t{7}, size_t{256}}) {
      auto engine = MakeGreta(catalog.get(), spec.Clone(), {});
      RunEngineBatched(engine.get(), stream, batch_size);
      EXPECT_GT(fallback_rows(engine.get()), 0u)
          << text << " batch=" << batch_size;
    }
  }

  // Multi-query shared cells and partial sharing, drained per query slot.
  using Query = std::pair<const char*, int>;  // RETURN..PATTERN, WITHIN
  auto expect_slots_match = [&](auto create,
                                const std::vector<Query>& workload,
                                const std::string& label) {
    std::vector<QuerySpec> specs;
    for (const auto& [head, within] : workload) {
      specs.push_back(Parse(std::string(head) + where + " WITHIN " +
                                std::to_string(within) +
                                " seconds SLIDE 4 seconds",
                            catalog.get()));
    }
    std::vector<const QuerySpec*> spec_ptrs;
    for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);
    auto scalar = create(catalog.get(), spec_ptrs, EngineOptions{});
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ProcessStream(scalar.value().get(), stream);
    std::vector<std::vector<ResultRow>> expected;
    for (size_t q = 0; q < specs.size(); ++q) {
      expected.push_back(scalar.value()->TakeResultsFor(q));
    }
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
      const std::string at = label + " batch=" + std::to_string(batch_size);
      auto batched = create(catalog.get(), spec_ptrs, EngineOptions{});
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      ProcessStreamBatched(batched.value().get(), stream, batch_size);
      for (size_t q = 0; q < specs.size(); ++q) {
        ExpectBitIdenticalRows(batched.value()->TakeResultsFor(q), expected[q],
                               at + " slot " + std::to_string(q));
      }
      if (batch_size > 1) {
        EXPECT_GT(fallback_rows(batched.value().get()), 0u) << at;
      }
    }
  };
  expect_slots_match(&GretaEngine::CreateMulti,
                     {{"RETURN COUNT(*) PATTERN A S+", 8},
                      {"RETURN SUM(S.g), MIN(S.g) PATTERN A S+", 8},
                      {"RETURN MAX(S.g), COUNT(S) PATTERN A S+", 8}},
                     "multi");
  expect_slots_match(
      &GretaEngine::CreatePartial,
      {{"RETURN COUNT(*) PATTERN A S+", 8},
       {"RETURN SUM(S.g), MAX(S.g) PATTERN SEQ(A S+, B E)", 4},
       {"RETURN MIN(S.g), COUNT(S) PATTERN A S+", 12}},
      "partial");
}

// The engine tallies which rows took an amortized kernel and which fell
// back (and why); the aggregate surfaces through EngineStats. These are
// coverage guards: if a future change silently disqualifies an eligible
// plan, batch_rows_fast drops to zero here before any benchmark notices.
TEST(BatchEquivalence, FallbackAndStrategyCounters) {
  auto catalog = FuzzCatalog();
  Stream stream = FuzzStream(catalog.get(), 179, 150);

  auto run_batched = [&](const QuerySpec& spec, EngineOptions options) {
    auto engine = MakeGreta(catalog.get(), spec.Clone(), options);
    RunEngineBatched(engine.get(), stream.events(), 16);
    engine->RefreshStats();
    return engine->stats();
  };

  // Eligible plans — sliding COUNT, SUM, residual predicate — are fully
  // covered: no row falls back.
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ WITHIN 10 seconds SLIDE 2 seconds",
        "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x + S.g < NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    EngineStats stats = run_batched(Parse(text, catalog.get()), {});
    EXPECT_GT(stats.batch_rows_fast, 0u) << text;
    EXPECT_EQ(stats.batch_rows_fallback, 0u) << text;
  }

  // Kernels disabled: everything falls back, nothing runs fast.
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
        catalog.get());
    EngineOptions options;
    options.enable_batch_kernels = false;
    EngineStats stats = run_batched(spec, options);
    EXPECT_EQ(stats.batch_rows_fast, 0u);
    EXPECT_GT(stats.batch_rows_fallback, 0u);
  }

  // Restricted semantics: the plan is ineligible (edge sets are not
  // run-stable), so the batch entry point falls back row-wise.
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
        catalog.get());
    EngineOptions options;
    options.semantics = Semantics::kSkipTillNextMatch;
    EngineStats stats = run_batched(spec, options);
    EXPECT_EQ(stats.batch_rows_fast, 0u);
    EXPECT_GT(stats.batch_rows_fallback, 0u);
  }

  // Negation splits the pattern into alternative graphs whose marking scan
  // is inherently per-event.
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN SEQ(A S+, NOT C N, B E) "
        "WITHIN 8 seconds SLIDE 8 seconds",
        catalog.get());
    EngineStats stats = run_batched(spec, {});
    EXPECT_EQ(stats.batch_rows_fast, 0u);
    EXPECT_GT(stats.batch_rows_fallback, 0u);
  }

#if GRETA_TELEMETRY
  // The registry sees the same tallies, labelled by reason and strategy.
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN A S+ WITHIN 10 seconds SLIDE 2 seconds",
        catalog.get());
    auto engine = MakeGreta(catalog.get(), spec.Clone(), {});
    RunEngineBatched(engine.get(), stream.events(), 16);
  }
  uint64_t fast_rows = 0, fallback_rows = 0;
  for (const auto& c : reg.ScrapeCounters()) {
    if (c.name.rfind("greta_core_batch_rows_total", 0) == 0) {
      fast_rows += c.value;
    } else if (c.name.rfind("greta_core_batch_fallback_rows_total", 0) == 0) {
      fallback_rows += c.value;
    }
  }
  EXPECT_GT(fast_rows, 0u);
  EXPECT_EQ(fallback_rows, 0u);
  reg.Reset();
#endif
}

// Out-of-order front end: a jittered wire stream goes through the k-slack
// buffer, whose in-order releases are packed into batches — identical to
// feeding each released event through Process.
TEST(BatchEquivalence, KSlackReleasedBatches) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 6 seconds SLIDE 3 seconds",
      catalog.get());
  std::vector<Event> wire = FuzzStream(catalog.get(), 137, 150).events();
  Random rng(139);
  for (size_t i = 0; i + 1 < wire.size(); i += 2) {
    if (rng.UniformInt(0, 1) == 1) std::swap(wire[i], wire[i + 1]);
  }
  KSlackBuffer buffer(/*slack=*/3);
  Stream released;
  for (Event& e : wire) {
    for (Event& r : buffer.Push(std::move(e))) released.Append(std::move(r));
  }
  for (Event& r : buffer.Flush()) released.Append(std::move(r));
  ASSERT_EQ(buffer.dropped(), 0u);

  auto scalar = MakeGreta(catalog.get(), spec.Clone());
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), released);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto batched = MakeGreta(catalog.get(), spec.Clone());
    ExpectBitIdenticalRows(
        scalar_rows, RunEngineBatched(batched.get(), released, batch_size),
        "kslack batch=" + std::to_string(batch_size));
  }
}

// sort_within_batch repairs disorder that is confined to a batch: swapping
// unequal-timestamp neighbours at even offsets keeps every inversion inside
// one batch of 8, and the stable SortByTime restores the original order.
TEST(BatchEquivalence, SortWithinBatchRepairsLocalDisorder) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 6 seconds SLIDE 3 seconds",
      catalog.get());
  Stream ordered = FuzzStream(catalog.get(), 149, 152);
  std::vector<Event> wire = ordered.events();
  Random rng(151);
  for (size_t i = 0; i + 1 < wire.size(); i += 2) {
    if (wire[i].time != wire[i + 1].time && rng.UniformInt(0, 1) == 1) {
      std::swap(wire[i], wire[i + 1]);
    }
  }
  auto scalar = MakeGreta(catalog.get(), spec.Clone());
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), ordered);
  auto batched = MakeGreta(catalog.get(), spec.Clone());
  ExpectBitIdenticalRows(
      scalar_rows,
      RunEngineBatched(batched.get(), wire, 8, /*sort_within_batch=*/true),
      "sort_within_batch");
}

TEST(BatchEquivalence, DisorderedBatchesRejected) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse("RETURN COUNT(*) PATTERN A S+", catalog.get());
  auto engine = MakeGreta(catalog.get(), spec.Clone());
  auto make = [&](Ts t) {
    return EventBuilder(catalog.get(), "A", t).Set("x", 1.0).Set("g", 0)
        .Build();
  };
  EventBatch unsorted;
  unsorted.Append(make(5));
  unsorted.Append(make(3));
  ASSERT_FALSE(unsorted.time_ordered());
  EXPECT_FALSE(engine->ProcessBatch(unsorted).ok());

  EventBatch first;
  first.Append(make(10));
  ASSERT_TRUE(engine->ProcessBatch(first).ok());
  // The watermark advanced to 10, so a batch starting earlier regresses.
  EventBatch regress;
  regress.Append(make(7));
  EXPECT_FALSE(engine->ProcessBatch(regress).ok());
  // Empty batches are harmless (watermark-only heartbeats).
  EventBatch empty;
  EXPECT_TRUE(engine->ProcessBatch(empty).ok());
}

// --- Fold order: the per-event strategy's columnar fold ---

// x values that make floating-point summation order visible: 1e16 + 1.0
// rounds back to 1e16, so 1.0, 1e16, -1e16 sums to 0 in that order and to 1
// in reverse; -0.0 checks that no fold turns a +0.0 SUM negative, and the
// key ties exercise strict/non-strict bound edges. Half the events are A
// and about eight share each timestamp, so runs are long and a vertex folds
// many predecessors.
Stream CancellingStream(Catalog* catalog, uint64_t seed, int n) {
  Random rng(seed);
  const char* types[] = {"A", "A", "B", "C"};
  const double terms[] = {1e16, -1e16, 1.0, -0.0, 2.5, 0.5, -2.0, 3.0};
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < n; ++i) {
    time += rng.UniformInt(0, 7) == 0 ? 1 : 0;
    stream.Append(EventBuilder(catalog, types[rng.UniformInt(0, 3)], time)
                      .Set("x", terms[rng.UniformInt(0, 7)])
                      .Set("g", rng.UniformInt(0, 2))
                      .Build());
  }
  return stream;
}

// Windows of `width` seconds whose A-event x values sum to different bits
// in stream order and in reverse.
int OrderSensitiveWindows(const Stream& stream, const Catalog& catalog,
                          Ts width) {
  const TypeId a = catalog.FindType("A");
  std::vector<std::vector<double>> terms;
  for (const Event& e : stream.events()) {
    if (e.type != a) continue;
    const size_t w = static_cast<size_t>(e.time / width);
    if (w >= terms.size()) terms.resize(w + 1);
    terms[w].push_back(e.attr(0).ToDouble());
  }
  int sensitive = 0;
  for (const std::vector<double>& t : terms) {
    double forward = 0.0;
    for (double x : t) forward += x;
    double reverse = 0.0;
    for (auto it = t.rbegin(); it != t.rend(); ++it) reverse += *it;
    sensitive += testing::SameBits(forward, reverse) ? 0 : 1;
  }
  return sensitive;
}

// Rows the run kernel folded with the per-event strategy so far (0 when
// telemetry is compiled out or the registry is disabled).
uint64_t PerEventRows() {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  if (!reg.Armed()) return 0;
  return reg.GetCounter("greta_core_batch_rows_total{strategy=\"per_event\"}")
      ->Value();
}

// The per-event strategy folds every event's admitted predecessors in the
// row kernel's order; under modular counters it reads them from per-window
// columns, padding entries outside a window with neutral values. On a
// stream where summation order changes SUM's bits, batches of 1, 7 and 256
// must equal Process bit for bit: SUM, AVG, MIN+MAX and COUNT(S), with a
// range-only NEXT predicate and with a residual, k = 1, 2 and 5 windows per
// event, modular and exact counters, START and non-START Kleene states.
TEST(BatchEquivalence, FoldOrderSurvivesColumnarFold) {
  auto catalog = FuzzCatalog();
  Stream stream = CancellingStream(catalog.get(), 211, 800);
  EXPECT_GT(OrderSensitiveWindows(stream, *catalog, 8), 0);

  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);
  const char* aggs[] = {"SUM(S.x)", "AVG(S.x)", "MIN(S.x), MAX(S.x)",
                        "COUNT(S)"};
  const char* nexts[] = {"S.x < NEXT(S).x",
                         "S.x < NEXT(S).x AND S.g >= NEXT(S).g"};
  const char* windows[] = {" WITHIN 8 seconds SLIDE 8 seconds",
                           " WITHIN 8 seconds SLIDE 4 seconds",
                           " WITHIN 10 seconds SLIDE 2 seconds"};
  // In SEQ(C P, A S+) an S vertex is stored only with a predecessor; with
  // P rare, a sliding S vertex often holds a zero count in a later window.
  const std::pair<const char*, const char*> patterns[] = {
      {" PATTERN A S+ WHERE ", ""},
      {" PATTERN SEQ(C P, A S+) WHERE ", "P.x > 2.75 AND "}};
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    for (const char* agg : aggs) {
      for (const auto& [pattern, pattern_pred] : patterns) {
        for (const char* next : nexts) {
          for (const char* window : windows) {
            const std::string text = "RETURN COUNT(*), " + std::string(agg) +
                                     pattern + pattern_pred + next + window;
            EngineOptions options;
            options.counter_mode = mode;
            const uint64_t per_event_before = PerEventRows();
            ExpectBatchMatchesScalar(
                catalog.get(), Parse(text, catalog.get()), stream, options,
                text + (mode == CounterMode::kExact ? " [exact]"
                                                    : " [modular]"));
            if (reg.Armed()) {
              EXPECT_GT(PerEventRows(), per_event_before) << text;
            }
          }
        }
      }
    }
  }
  reg.Reset();
}

// The same on a shared multi-query cluster (CreateMulti, nq = 3 query slots
// per window, mixed aggregates): each slot folds its own components.
TEST(BatchEquivalence, FoldOrderSurvivesColumnarFoldMultiQuery) {
  auto catalog = FuzzCatalog();
  Stream stream = CancellingStream(catalog.get(), 223, 800);
  EXPECT_GT(OrderSensitiveWindows(stream, *catalog, 8), 0);
  const char* windows[] = {" WITHIN 8 seconds SLIDE 8 seconds",
                           " WITHIN 8 seconds SLIDE 4 seconds",
                           " WITHIN 10 seconds SLIDE 2 seconds"};
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    for (const char* window : windows) {
      std::vector<QuerySpec> specs;
      for (const char* agg : {"SUM(S.x)", "MIN(S.x), MAX(S.x)", "COUNT(S)"}) {
        specs.push_back(Parse(std::string("RETURN ") + agg +
                                  " PATTERN A S+ WHERE S.x < NEXT(S).x" +
                                  window,
                              catalog.get()));
      }
      std::vector<const QuerySpec*> spec_ptrs;
      for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);
      EngineOptions options;
      options.counter_mode = mode;
      auto scalar = GretaEngine::CreateMulti(catalog.get(), spec_ptrs, options);
      ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
      ProcessStream(scalar.value().get(), stream);
      std::vector<std::vector<ResultRow>> want(specs.size());
      for (size_t q = 0; q < specs.size(); ++q) {
        want[q] = scalar.value()->TakeResultsFor(q);
      }
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
        auto batched =
            GretaEngine::CreateMulti(catalog.get(), spec_ptrs, options);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        ProcessStreamBatched(batched.value().get(), stream, batch_size);
        for (size_t q = 0; q < specs.size(); ++q) {
          ExpectBitIdenticalRows(
              want[q], batched.value()->TakeResultsFor(q),
              std::string(window) +
                  (mode == CounterMode::kExact ? " [exact]" : " [modular]") +
                  " batch=" + std::to_string(batch_size) + " slot " +
                  std::to_string(q));
        }
      }
    }
  }
}

// --- Counter promotion boundary (u64 overflow edge) ---

TEST(CounterPromotion, AddOneAtMaxPromotesExact) {
  Counter c(~uint64_t{0});
  c.AddOne(CounterMode::kExact);
  EXPECT_EQ(c.ToDecimal(), "18446744073709551616");  // 2^64
  EXPECT_EQ(c.Low64(), 0u);
  EXPECT_FALSE(c.IsZero());
  c.AddOne(CounterMode::kExact);
  EXPECT_EQ(c.ToDecimal(), "18446744073709551617");
}

TEST(CounterPromotion, AddOneAtMaxWrapsModular) {
  Counter c(~uint64_t{0});
  c.AddOne(CounterMode::kModular);
  EXPECT_TRUE(c.IsZero());
  EXPECT_EQ(c.ToDecimal(), "0");
}

TEST(CounterPromotion, AddCrossingBoundary) {
  Counter a(uint64_t{1} << 63);
  Counter b(uint64_t{1} << 63);
  a.Add(b, CounterMode::kExact);
  EXPECT_EQ(a.ToDecimal(), "18446744073709551616");
  // One below the edge stays un-promoted.
  Counter c(~uint64_t{0} - 1);
  Counter one(1);
  c.Add(one, CounterMode::kExact);
  EXPECT_EQ(c.ApproxHeapBytes(), 0u);  // still the inline u64
  EXPECT_EQ(c.Low64(), ~uint64_t{0});
  // Modular wraps silently.
  Counter d(~uint64_t{0});
  d.Add(one, CounterMode::kModular);
  EXPECT_TRUE(d.IsZero());
}

TEST(CounterPromotion, PromotedAccumulatesFurtherAdds) {
  Counter promoted(~uint64_t{0});
  promoted.AddOne(CounterMode::kExact);  // 2^64, promoted
  Counter plain(5);
  promoted.Add(plain, CounterMode::kExact);
  EXPECT_EQ(promoted.ToDecimal(), "18446744073709551621");
  // Copies of promoted counters are deep.
  Counter copy = promoted;
  copy.AddOne(CounterMode::kExact);
  EXPECT_EQ(promoted.ToDecimal(), "18446744073709551621");
  EXPECT_EQ(copy.ToDecimal(), "18446744073709551622");
}

// Engine-level promotion: n same-type events under an unbounded window give
// 2^n - 1 trends (every non-empty subsequence), so n = 70 drives the
// COUNT(*)-exact kernel across the u64 overflow edge mid-stream. The
// modular engine must agree mod 2^64.
TEST(CounterPromotion, EngineCountCrossesU64Boundary) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse("RETURN COUNT(*) PATTERN A S+", catalog.get());
  Stream stream;
  const int n = 70;
  for (int i = 0; i < n; ++i) {
    stream.Append(EventBuilder(catalog.get(), "A", i + 1)
                      .Set("x", 1.0)
                      .Set("g", 0)
                      .Build());
  }

  // Expected 2^70 - 1 via the Counter itself: x -> 2x + 1, n times.
  Counter expected;
  for (int i = 0; i < n; ++i) {
    Counter copy = expected;
    expected.Add(copy, CounterMode::kExact);
    expected.AddOne(CounterMode::kExact);
  }

  EngineOptions exact;
  exact.counter_mode = CounterMode::kExact;
  auto exact_engine = MakeGreta(catalog.get(), spec.Clone(), exact);
  std::vector<ResultRow> exact_rows =
      RunEngine(exact_engine.get(), stream);
  ASSERT_EQ(exact_rows.size(), 1u);
  EXPECT_EQ(exact_rows[0].aggs.count.ToDecimal(), expected.ToDecimal());

  EngineOptions modular;
  modular.counter_mode = CounterMode::kModular;
  auto modular_engine = MakeGreta(catalog.get(), spec.Clone(), modular);
  std::vector<ResultRow> modular_rows =
      RunEngine(modular_engine.get(), stream);
  ASSERT_EQ(modular_rows.size(), 1u);
  EXPECT_EQ(modular_rows[0].aggs.count.Low64(), expected.Low64());

  // And the exact engine agrees with its generic-kernel twin bit for bit.
  exact.enable_specialized_kernels = false;
  auto generic_engine = MakeGreta(catalog.get(), spec.Clone(), exact);
  std::vector<ResultRow> generic_rows =
      RunEngine(generic_engine.get(), stream);
  ExpectBitIdenticalRows(exact_rows, generic_rows, "overflow exact-vs-generic");
}

}  // namespace
}  // namespace greta
