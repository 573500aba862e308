// Differential tests for the runtime-dispatched SIMD kernels
// (common/simd.h): every per-ISA table entry must be bit-identical to the
// scalar reference on randomized inputs — including NaN keys, null/str
// lanes, int/double mixes, empty selections, and both the consecutive
// (contiguous-load) and scattered (gather) selection shapes — and the full
// engine must emit bit-identical rows with the vector kernels forced on,
// forced off, and under every compiled ISA.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/event_batch.h"
#include "common/simd.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using simd::CmpConst;
using simd::CmpOp;
using simd::Isa;
using simd::Kernels;
using simd::NumColumn;

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagStr = 3;

// The ISA tables worth diffing on this host (scalar is the reference).
std::vector<std::pair<const char*, const Kernels*>> VectorTables() {
  std::vector<std::pair<const char*, const Kernels*>> tables;
  if (simd::Avx2Compiled()) tables.push_back({"avx2", &simd::Avx2Kernels()});
  return tables;
}

struct RandomColumn {
  std::vector<double> dval;
  std::vector<int64_t> ival;
  std::vector<uint8_t> tag;

  NumColumn view() const {
    NumColumn col;
    col.dval = dval.data();
    col.ival = ival.data();
    col.tag = tag.data();
    return col;
  }
};

// A column with adversarial lanes: every tag kind, NaN/inf doubles, int
// payloads beyond 2^53 (where double coercion rounds and the exact int/int
// compare must disagree with it), and string ids.
RandomColumn MakeColumn(std::mt19937_64* rng, size_t n) {
  RandomColumn col;
  col.dval.resize(n);
  col.ival.resize(n);
  col.tag.resize(n);
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int64_t> small(-1000, 1000);
  std::uniform_int_distribution<int64_t> huge(
      (int64_t{1} << 53) - 4, (int64_t{1} << 53) + 4);
  std::uniform_real_distribution<double> real(-1000.0, 1000.0);
  for (size_t i = 0; i < n; ++i) {
    switch (kind(*rng)) {
      case 0:
        col.tag[i] = kTagNull;
        col.ival[i] = 0;
        col.dval[i] = 0.0;
        break;
      case 1: {
        col.tag[i] = kTagInt;
        const int64_t v = (*rng)() % 8 == 0 ? huge(*rng) : small(*rng);
        col.ival[i] = v;
        col.dval[i] = static_cast<double>(v);
        break;
      }
      case 2: {
        col.tag[i] = kTagDouble;
        const uint64_t mode = (*rng)() % 16;
        col.dval[i] = mode == 0   ? std::numeric_limits<double>::quiet_NaN()
                      : mode == 1 ? std::numeric_limits<double>::infinity()
                      : mode == 2 ? -std::numeric_limits<double>::infinity()
                      : mode == 3 ? -0.0
                                  : real(*rng);
        col.ival[i] = 0;
        break;
      }
      default:
        col.tag[i] = kTagStr;
        col.ival[i] = small(*rng) & 0xfff;
        col.dval[i] = 0.0;
        break;
    }
  }
  return col;
}

CmpConst MakeRandomCmp(std::mt19937_64* rng) {
  CmpConst c;
  c.op = static_cast<CmpOp>((*rng)() % 6);
  switch ((*rng)() % 4) {
    case 0:
      c.rhs_kind = kTagNull;  // nothing passes
      break;
    case 1:
      c.rhs_kind = kTagInt;
      c.rhs_i = static_cast<int64_t>((*rng)() % 2001) - 1000;
      if ((*rng)() % 8 == 0) c.rhs_i = (int64_t{1} << 53) + 1;
      c.rhs_d = static_cast<double>(c.rhs_i);
      break;
    case 2:
      c.rhs_kind = kTagDouble;
      c.rhs_d = (*rng)() % 16 == 0
                    ? std::numeric_limits<double>::quiet_NaN()
                    : static_cast<double>(static_cast<int64_t>((*rng)() %
                                                               2001) -
                                          1000) /
                          3.0;
      break;
    default:
      c.rhs_kind = kTagStr;
      c.rhs_i = static_cast<int64_t>((*rng)() % 0x1000);
      break;
  }
  // The kernels must honor whatever mismatch constant the plan computed;
  // randomizing it exercises both branches without re-deriving semantics.
  c.mismatch_pass = static_cast<uint8_t>((*rng)() % 2);
  return c;
}

// Selection shapes: consecutive lanes hit the contiguous-load fast paths,
// strided/scattered lanes hit the gather paths, and empty selections must
// not read anything.
std::vector<uint32_t> MakeSelection(std::mt19937_64* rng, size_t lanes,
                                    uint32_t rebase, int shape) {
  std::vector<uint32_t> sel;
  if (lanes == 0) return sel;
  switch (shape) {
    case 0:  // dense: every lane, consecutive
      for (size_t i = 0; i < lanes; ++i) {
        sel.push_back(static_cast<uint32_t>(i) + rebase);
      }
      break;
    case 1: {  // strided (partition-like)
      const uint32_t stride = 2 + static_cast<uint32_t>((*rng)() % 9);
      for (size_t i = (*rng)() % stride; i < lanes; i += stride) {
        sel.push_back(static_cast<uint32_t>(i) + rebase);
      }
      break;
    }
    case 2:  // random subset, ascending (order is preserved by kernels)
      for (size_t i = 0; i < lanes; ++i) {
        if ((*rng)() % 3 != 0) sel.push_back(static_cast<uint32_t>(i) + rebase);
      }
      break;
    default:  // empty
      break;
  }
  return sel;
}

TEST(SimdKernelDifferential, FilterSelMatchesScalar) {
  const auto tables = VectorTables();
  std::mt19937_64 rng(20260808);
  const Kernels& ref = simd::ScalarKernels();
  for (int iter = 0; iter < 400; ++iter) {
    const size_t lanes = iter % 7 == 0 ? 0 : 1 + (rng() % 300);
    RandomColumn col = MakeColumn(&rng, lanes);
    const CmpConst cmp = MakeRandomCmp(&rng);
    const uint32_t rebase = rng() % 4 == 0 ? 0 : rng() % 1000;
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<uint32_t> base_sel =
          MakeSelection(&rng, lanes, rebase, shape);
      std::vector<uint32_t> want = base_sel;
      const size_t want_n =
          ref.filter_sel(col.view(), cmp, rebase, want.data(), want.size());
      want.resize(want_n);
      for (const auto& [name, table] : tables) {
        std::vector<uint32_t> got = base_sel;
        const size_t got_n = table->filter_sel(col.view(), cmp, rebase,
                                               got.data(), got.size());
        got.resize(got_n);
        ASSERT_EQ(want, got) << name << " iter " << iter << " shape "
                             << shape;
      }
    }
  }
}

TEST(SimdKernelDifferential, RangeSelectMatchesScalar) {
  const auto tables = VectorTables();
  std::mt19937_64 rng(7);
  const Kernels& ref = simd::ScalarKernels();
  std::uniform_real_distribution<double> real(-100.0, 100.0);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = iter % 5 == 0 ? 0 : 1 + (rng() % 200);
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng() % 32 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                : real(rng);
    }
    const uint32_t begin = n == 0 ? 0 : rng() % n;
    const uint32_t end = n == 0 ? 0 : begin + rng() % (n - begin + 1);
    double lo = rng() % 8 == 0 ? -std::numeric_limits<double>::infinity()
                               : real(rng);
    double hi = rng() % 8 == 0 ? std::numeric_limits<double>::infinity()
                               : real(rng);
    const bool lo_strict = rng() % 2 == 0;
    const bool hi_strict = rng() % 2 == 0;

    std::vector<uint32_t> want(n);
    const size_t want_n = ref.range_select(keys.data(), begin, end, lo,
                                           lo_strict, hi, hi_strict,
                                           want.data());
    want.resize(want_n);
    for (const auto& [name, table] : tables) {
      std::vector<uint32_t> got(n);
      const size_t got_n = table->range_select(keys.data(), begin, end, lo,
                                               lo_strict, hi, hi_strict,
                                               got.data());
      got.resize(got_n);
      ASSERT_EQ(want, got) << name << " iter " << iter;
    }
  }
}

TEST(SimdKernelDifferential, LeafScansMatchScalarAndLowerBound) {
  const auto tables = VectorTables();
  std::mt19937_64 rng(11);
  const Kernels& ref = simd::ScalarKernels();
  std::uniform_real_distribution<double> real(-50.0, 50.0);
  for (int iter = 0; iter < 300; ++iter) {
    const int n = static_cast<int>(rng() % 100);
    std::vector<double> keys(n);
    for (double& k : keys) k = real(rng);
    std::sort(keys.begin(), keys.end());
    const double lo = rng() % 4 == 0 && n > 0 ? keys[rng() % n] : real(rng);
    const double hi = rng() % 4 == 0 && n > 0 ? keys[rng() % n] : real(rng);
    const bool lo_strict = rng() % 2 == 0;
    const bool hi_strict = rng() % 2 == 0;

    const int want_skip = ref.leaf_skip(keys.data(), n, lo, lo_strict);
    // The skip phase is exactly a lower/upper bound over the sorted leaf.
    const auto bound =
        lo_strict ? std::upper_bound(keys.begin(), keys.end(), lo)
                  : std::lower_bound(keys.begin(), keys.end(), lo);
    ASSERT_EQ(want_skip, static_cast<int>(bound - keys.begin()))
        << "iter " << iter;
    const int i0 = n == 0 ? 0 : static_cast<int>(rng() % (n + 1));
    const int want_stop = ref.leaf_stop(keys.data(), i0, n, hi, hi_strict);
    for (const auto& [name, table] : tables) {
      ASSERT_EQ(want_skip, table->leaf_skip(keys.data(), n, lo, lo_strict))
          << name << " iter " << iter;
      ASSERT_EQ(want_stop,
                table->leaf_stop(keys.data(), i0, n, hi, hi_strict))
          << name << " iter " << iter;
    }
  }
}

TEST(SimdKernelDifferential, RunSplitAndSplitmixMatchScalar) {
  const auto tables = VectorTables();
  std::mt19937_64 rng(13);
  const Kernels& ref = simd::ScalarKernels();
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = 1 + (rng() % 200);
    std::vector<int64_t> times;
    int64_t t = static_cast<int64_t>(rng() % 100);
    while (times.size() < n) {
      const size_t run = 1 + (rng() % 9);
      for (size_t i = 0; i < run && times.size() < n; ++i) times.push_back(t);
      ++t;
    }
    for (size_t i = 0; i < n; i += 1 + (rng() % 7)) {
      const size_t want = ref.run_split(times.data(), i, n);
      size_t brute = i + 1;
      while (brute < n && times[brute] == times[i]) ++brute;
      ASSERT_EQ(want, brute) << "iter " << iter << " i " << i;
      for (const auto& [name, table] : tables) {
        ASSERT_EQ(want, table->run_split(times.data(), i, n))
            << name << " iter " << iter << " i " << i;
      }
    }

    std::vector<uint64_t> h(n);
    for (uint64_t& x : h) x = rng();
    std::vector<uint64_t> want_h = h;
    ref.splitmix_bulk(want_h.data(), want_h.size());
    for (const auto& [name, table] : tables) {
      std::vector<uint64_t> got_h = h;
      table->splitmix_bulk(got_h.data(), got_h.size());
      ASSERT_EQ(want_h, got_h) << name << " iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Full-engine differential: rows must be bit-identical between the scalar
// kernel twins (enable_simd=false), the dispatched vector kernels, and
// every compiled ISA forced via the test hook — at batch sizes 1, 7 (runs
// straddling batch boundaries) and 256.
// ---------------------------------------------------------------------------

std::vector<ResultRow> RunQuery(Catalog* catalog, const QuerySpec& spec,
                                const Stream& stream, size_t batch_size,
                                bool enable_simd) {
  EngineOptions options;
  options.enable_simd = enable_simd;
  auto built = GretaEngine::Create(catalog, spec, options);
  EXPECT_TRUE(built.ok());
  std::unique_ptr<GretaEngine> engine = std::move(built).value();
  std::vector<ResultRow> rows;
  auto drain = [&] {
    for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  };
  if (batch_size == 0) {
    for (const Event& e : stream.events()) {
      EXPECT_TRUE(engine->Process(e).ok());
      drain();
    }
  } else {
    EventBatch batch;
    batch.Reserve(batch_size);
    const std::vector<Event>& events = stream.events();
    size_t i = 0;
    while (i < events.size()) {
      batch.clear();
      for (; i < events.size() && batch.size() < batch_size; ++i) {
        batch.Append(events[i]);
      }
      EXPECT_TRUE(engine->ProcessBatch(batch).ok());
      drain();
    }
  }
  EXPECT_TRUE(engine->Flush().ok());
  drain();
  return rows;
}

TEST(SimdEngineDifferential, RowsBitIdenticalAcrossIsasAndBatchSizes) {
  Catalog catalog;
  StockConfig stock;
  stock.rate = 60;
  stock.duration = 12;
  Stream stream = GenerateStockStream(&catalog, stock);

  const char* queries[] = {
      // Const vertex predicates (filter kernels; volume crosses the
      // projection use threshold in the two-state Kleene plan).
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] "
      "AND S.volume > 100 AND S.volume <= 700 AND S.price > 50.0 "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 4 seconds",
      // Residual NEXT predicate (vectorized edge re-filter + range kernels).
      "RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "AND S.volume >= NEXT(S).volume "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      // Sliding pure-lower bounds (suffix-merge strategy + leaf kernels).
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] "
      "AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 6 seconds SLIDE 2 seconds",
  };

  const Isa saved = simd::DispatchedIsa();
  for (const char* text : queries) {
    auto spec = ParseQuery(text, &catalog);
    ASSERT_TRUE(spec.ok()) << text;
    const QuerySpec query = std::move(spec).value();
    // Reference: scalar per-event path with the vector kernels disabled.
    std::vector<ResultRow> want =
        RunQuery(&catalog, query, stream, 0, /*enable_simd=*/false);
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
      const std::string tag = std::to_string(batch_size);
      testing::ExpectBitIdenticalRows(
          want, RunQuery(&catalog, query, stream, batch_size, false),
          "nosimd batch" + tag);
      testing::ExpectBitIdenticalRows(
          want, RunQuery(&catalog, query, stream, batch_size, true),
          "dispatched batch" + tag);
    }
    // Force each compiled ISA (ForceIsa clamps to what the host supports).
    for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
      simd::ForceIsa(isa);
      testing::ExpectBitIdenticalRows(
          want, RunQuery(&catalog, query, stream, 256, true),
          std::string("forced ") + simd::IsaName(simd::DispatchedIsa()));
    }
    simd::ForceIsa(saved);
  }
}

}  // namespace
}  // namespace greta
