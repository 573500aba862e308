#ifndef GRETA_CORE_AGGREGATE_H_
#define GRETA_CORE_AGGREGATE_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/biguint.h"
#include "common/event.h"
#include "common/status.h"
#include "common/types.h"
#include "query/query.h"

namespace greta {

/// How trend counters behave at 64-bit overflow (see DESIGN.md §2.3):
/// kExact promotes to arbitrary precision (BigUInt); kModular wraps mod 2^64
/// — the propagation work is identical, only the stored width differs, which
/// keeps large benchmarks apples-to-apples across engines.
enum class CounterMode { kExact, kModular };

/// A trend counter: a uint64 that promotes itself to BigUInt on overflow in
/// exact mode. 16 bytes when un-promoted.
class Counter {
 public:
  Counter() = default;
  explicit Counter(uint64_t v) : low_(v) {}

  /// Builds a counter from an exact big value, honoring the mode (modular
  /// keeps the low 64 bits). Used by the conjunction combinator.
  static Counter FromBig(const BigUInt& big, CounterMode mode) {
    Counter c;
    if (mode == CounterMode::kModular || big.FitsUint64()) {
      c.low_ = big.Low64();
    } else {
      c.big_ = std::make_unique<BigUInt>(big);
    }
    return c;
  }

  Counter(const Counter& other) { *this = other; }
  Counter& operator=(const Counter& other) {
    low_ = other.low_;
    big_ = other.big_ ? std::make_unique<BigUInt>(*other.big_) : nullptr;
    return *this;
  }
  Counter(Counter&&) = default;
  Counter& operator=(Counter&&) = default;

  void AddOne(CounterMode mode) {
    if (big_ != nullptr) {
      big_->AddUint64(1);
      return;
    }
    uint64_t next = low_ + 1;
    if (next == 0 && mode == CounterMode::kExact) {
      Promote();
      big_->AddUint64(1);
      return;
    }
    low_ = next;
  }

  void Add(const Counter& other, CounterMode mode) {
    if (mode == CounterMode::kModular) {
      low_ += other.low_;  // Wrapping arithmetic by design.
      return;
    }
    if (big_ == nullptr && other.big_ == nullptr) {
      uint64_t sum = low_ + other.low_;
      if (sum >= low_) {  // No overflow.
        low_ = sum;
        return;
      }
      Promote();
    }
    if (big_ == nullptr) Promote();
    if (other.big_ != nullptr) {
      big_->Add(*other.big_);
    } else {
      big_->AddUint64(other.low_);
    }
  }

  bool IsZero() const {
    return big_ != nullptr ? big_->IsZero() : low_ == 0;
  }

  double ToDouble() const {
    return big_ != nullptr ? big_->ToDouble() : static_cast<double>(low_);
  }

  /// Low 64 bits (exact value when never promoted).
  uint64_t Low64() const { return big_ != nullptr ? big_->Low64() : low_; }

  /// Raw modular lane for the run kernel's predecessor columns. Only
  /// meaningful in kModular mode, where a counter is exactly its wrapping
  /// low 64 bits: the columns copy this, and a column fold adds its wrapping
  /// sum back via AddRaw — equivalent to a sequence of modular Add()s.
  uint64_t ModularValue() const { return low_; }
  void AddRaw(uint64_t v) { low_ += v; }  // wrapping by design

  BigUInt ToBig() const {
    return big_ != nullptr ? *big_ : BigUInt(low_);
  }

  /// Exact decimal rendering (exact mode) or the mod-2^64 value.
  std::string ToDecimal() const {
    return big_ != nullptr ? big_->ToDecimal() : std::to_string(low_);
  }

  size_t ApproxHeapBytes() const {
    return big_ != nullptr ? sizeof(BigUInt) + big_->ApproxBytes() : 0;
  }

 private:
  void Promote() { big_ = std::make_unique<BigUInt>(low_); }

  uint64_t low_ = 0;
  std::unique_ptr<BigUInt> big_;
};

/// Which aggregate machinery the query needs, derived from its AggSpecs. All
/// attribute-based aggregates must share one (type, attr) target; COUNT(E)
/// and AVG additionally pin the target type.
struct AggPlan {
  CounterMode mode = CounterMode::kExact;
  bool need_type_count = false;  // COUNT(E) or AVG
  bool need_min = false;
  bool need_max = false;
  bool need_sum = false;  // SUM or AVG
  bool need_max_start = false;  // negative graphs: barrier support
  TypeId target_type = kInvalidType;
  AttrId target_attr = kInvalidAttr;

  static StatusOr<AggPlan> FromSpecs(const std::vector<AggSpec>& specs,
                                     CounterMode mode);

  /// Aggregate plan used by negative sub-pattern graphs: counts plus the
  /// latest-trend-start auxiliary (Section 5 invalidation barriers).
  static AggPlan ForNegative(CounterMode mode) {
    AggPlan plan;
    plan.mode = mode;
    plan.need_max_start = true;
    return plan;
  }
};

inline constexpr double kAggInf = std::numeric_limits<double>::infinity();

/// Per-(vertex, window) aggregate state propagated along GRETA graph edges
/// (Theorem 4.3 for COUNT(*), Theorem 9.1 for the rest).
struct AggCell {
  Counter count;       // trends ending at this vertex (COUNT(*) DP value)
  Counter type_count;  // target-type events across those trends (COUNT(E))
  double min = kAggInf;
  double max = -kAggInf;
  double sum = 0.0;
  Ts max_start = kMinTs;  // latest start among trends ending here
  bool active = true;     // false: window invalidated by Case-3 negation

  /// dst-accumulates the predecessor contribution (the Σ_p terms).
  void AddPredecessor(const AggCell& pred, const AggPlan& plan) {
    count.Add(pred.count, plan.mode);
    if (plan.need_type_count) type_count.Add(pred.type_count, plan.mode);
    if (plan.need_min && pred.min < min) min = pred.min;
    if (plan.need_max && pred.max > max) max = pred.max;
    if (plan.need_sum) sum += pred.sum;
    if (plan.need_max_start && pred.max_start > max_start) {
      max_start = pred.max_start;
    }
  }

  /// Partial sharing (Hamlet snapshot propagation): predecessor fold of the
  /// non-count components only. The trend count lives once in the shared
  /// snapshot; `plan` is a fold slot's union plan on core edges and the
  /// owning query's own plan at a hand-off.
  void AddPredecessorFold(const AggCell& pred, const AggPlan& plan) {
    if (plan.need_type_count) type_count.Add(pred.type_count, plan.mode);
    if (plan.need_min && pred.min < min) min = pred.min;
    if (plan.need_max && pred.max > max) max = pred.max;
    if (plan.need_sum) sum += pred.sum;
  }

  /// Partial sharing: the vertex's own contribution to the non-count
  /// components, with `count` read from the shared snapshot cell (which must
  /// already include the vertex's own +1, i.e. call after the snapshot's
  /// FinishVertex).
  void FinishVertexFold(const EventRef& e, const Counter& count,
                        const AggPlan& plan) {
    if (e.type != plan.target_type) return;
    if (plan.need_type_count) type_count.Add(count, plan.mode);
    if (plan.need_min || plan.need_max || plan.need_sum) {
      double attr = e.attr(plan.target_attr).ToDouble();
      if (plan.need_min && attr < min) min = attr;
      if (plan.need_max && attr > max) max = attr;
      if (plan.need_sum) sum += attr * count.ToDouble();
    }
  }

  /// Applies the vertex's own contribution after all predecessors are in:
  /// the +1 for START events, and the e.attr terms when the vertex is of the
  /// target type. Must be called exactly once, last.
  void FinishVertex(const EventRef& e, bool is_start, const AggPlan& plan) {
    if (is_start) {
      count.AddOne(plan.mode);
      if (plan.need_max_start) max_start = e.time;
    }
    if (e.type == plan.target_type) {
      if (plan.need_type_count) {
        type_count.Add(count, plan.mode);  // e.countE = e.count + Σ p.countE
      }
      // COUNT(E)-only plans carry no target attribute; touching it would
      // read out of the event's attribute vector.
      if (plan.need_min || plan.need_max || plan.need_sum) {
        double attr = e.attr(plan.target_attr).ToDouble();
        if (plan.need_min && attr < min) min = attr;
        if (plan.need_max && attr > max) max = attr;
        if (plan.need_sum) sum += attr * count.ToDouble();
      }
    }
  }
};

/// Final aggregate for one (group, window): the Σ over END events, merged
/// across partitions / disjunction alternatives.
struct AggOutputs {
  Counter count;
  Counter type_count;
  double min = kAggInf;
  double max = -kAggInf;
  double sum = 0.0;
  bool any = false;  // at least one trend contributed

  void AccumulateEnd(const AggCell& cell, const AggPlan& plan) {
    if (cell.count.IsZero()) return;
    count.Add(cell.count, plan.mode);
    if (plan.need_type_count) type_count.Add(cell.type_count, plan.mode);
    if (plan.need_min && cell.min < min) min = cell.min;
    if (plan.need_max && cell.max > max) max = cell.max;
    if (plan.need_sum) sum += cell.sum;
    any = true;
  }

  /// Partial sharing: accumulate an END vertex whose trend count lives in a
  /// shared snapshot and whose attribute components live in `fold` (null for
  /// COUNT-only queries).
  void AccumulateEndShared(const Counter& snapshot_count, const AggCell* fold,
                           const AggPlan& plan) {
    if (snapshot_count.IsZero()) return;
    count.Add(snapshot_count, plan.mode);
    if (fold != nullptr) {
      if (plan.need_type_count) type_count.Add(fold->type_count, plan.mode);
      if (plan.need_min && fold->min < min) min = fold->min;
      if (plan.need_max && fold->max > max) max = fold->max;
      if (plan.need_sum) sum += fold->sum;
    }
    any = true;
  }

  void Merge(const AggOutputs& other, const AggPlan& plan) {
    if (!other.any) return;
    count.Add(other.count, plan.mode);
    type_count.Add(other.type_count, plan.mode);
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    sum += other.sum;
    any = true;
  }

  double Avg() const {
    double denom = type_count.ToDouble();
    return denom == 0.0 ? 0.0 : sum / denom;
  }

  /// Renders the value of one requested aggregate.
  std::string Render(const AggSpec& spec) const;
};

}  // namespace greta

#endif  // GRETA_CORE_AGGREGATE_H_
