#include "core/explain.h"

namespace greta {

namespace {

const char* KindName(NegationKind kind) {
  switch (kind) {
    case NegationKind::kBetween:
      return "case 1 (between)";
    case NegationKind::kTrailing:
      return "case 2 (trailing)";
    case NegationKind::kLeading:
      return "case 3 (leading)";
    case NegationKind::kNone:
      return "none";
  }
  return "?";
}

void ExplainGraph(const GraphPlan& gp, size_t index, const Catalog& catalog,
                  std::string* out) {
  *out += "  sub-pattern " + std::to_string(index) +
          (gp.negative ? " (negative" : " (positive");
  if (gp.negative) {
    *out += ", invalidates sub-pattern " + std::to_string(gp.parent) + ", " +
            KindName(gp.link_kind);
  }
  *out += ")\n";
  *out += "    template: " + gp.templ.ToString() + "\n";
  for (const TemplateState& s : gp.templ.states()) {
    const StatePlan& sp = gp.states[s.id];
    if (sp.local_preds.empty() && sp.sort_attr == kInvalidAttr) continue;
    *out += "    state " + s.label + ":";
    if (sp.sort_attr != kInvalidAttr) {
      *out += " tree key = " + catalog.type(s.type).attrs[sp.sort_attr].name;
    }
    for (const Expr* pred : sp.local_preds) {
      *out += " filter[" + pred->ToString(catalog) + "]";
    }
    *out += "\n";
  }
  const auto& transitions = gp.templ.transitions();
  for (size_t t = 0; t < transitions.size(); ++t) {
    if (gp.transitions[t].preds.empty()) continue;
    *out += "    transition " + gp.templ.states()[transitions[t].from].label +
            "->" + gp.templ.states()[transitions[t].to].label + ":";
    for (const EdgePredicatePlan& ep : gp.transitions[t].preds) {
      *out += " edge[" + ep.expr->ToString(catalog) + "]";
      if (ep.range.has_value()) {
        *out += ep.drives_sort_key ? " (tree range)" : " (range, residual)";
      }
    }
    *out += "\n";
  }
}

// Partial sharing layout: the cells a shared-core vertex keeps per window
// and which queries read each fold slot.
void ExplainPartial(const PartialSharingPlan& partial, const Catalog& catalog,
                    std::string* out) {
  const size_t nq = partial.fold_slots.size();
  *out += "partial sharing: " + std::to_string(nq) + " queries, " +
          std::to_string(partial.num_core_states) +
          " shared core state(s); core cells per (vertex, window): " +
          std::to_string(partial.core_stride()) + "\n";
  auto members = [&](int slot) {
    std::string list;
    for (size_t q = 0; q < nq; ++q) {
      if (partial.fold_slots[q] != slot) continue;
      list += (list.empty() ? "" : ", ") + std::to_string(q);
    }
    return list;
  };
  for (size_t f = 0; f < partial.fold_plans.size(); ++f) {
    const AggPlan& a = partial.fold_plans[f];
    const EventTypeDef& type = catalog.type(a.target_type);
    *out += "  fold slot " + std::to_string(f) + ": " + type.name;
    if (a.target_attr != kInvalidAttr) {
      *out += "." + type.attrs[a.target_attr].name;
    }
    *out += " [";
    std::string parts;
    if (a.need_type_count) parts += " count";
    if (a.need_sum) parts += " sum";
    if (a.need_min) parts += " min";
    if (a.need_max) parts += " max";
    *out += parts.substr(1) + "]";
    if (f == 0) *out += " + snapshot count";
    *out += "; queries " + members(static_cast<int>(f)) + "\n";
  }
  const std::string no_slot = members(-1);
  if (!no_slot.empty()) {
    *out += "  no core fold (snapshot count only): queries " + no_slot + "\n";
  }
}

}  // namespace

std::string ExplainPlan(const ExecPlan& plan, const Catalog& catalog) {
  std::string out;
  out += "window: ";
  if (plan.window.unbounded()) {
    out += "unbounded";
  } else {
    out += "WITHIN " + std::to_string(plan.window.within) + " SLIDE " +
           std::to_string(plan.window.slide);
  }
  out += "; counters: ";
  out += (plan.mode == CounterMode::kExact) ? "exact" : "modular (2^64)";
  out += "\n";

  if (!plan.key_attrs.empty()) {
    out += "partition by:";
    for (size_t i = 0; i < plan.key_attrs.size(); ++i) {
      out += " " + plan.key_attrs[i];
      if (i < plan.num_group_attrs) out += "(group)";
    }
    out += "\n";
    out +=
        "sharding: partition-parallel (src/runtime/ hashes the partition "
        "key to a shard)\n";
  } else {
    out +=
        "sharding: none — no GROUP-BY or equivalence key; the sharded "
        "runtime routes every event to shard 0\n";
  }

  if (plan.groups.size() > 1) {
    out += "conjunction of " + std::to_string(plan.groups.size()) +
           " term groups (counts multiply)\n";
  }
  if (plan.partial.has_value()) ExplainPartial(*plan.partial, catalog, &out);
  for (size_t a = 0; a < plan.alternatives.size(); ++a) {
    out += "alternative " + std::to_string(a);
    if (plan.alternatives.size() > 1) out += " (counts sum, disjoint)";
    out += ":\n";
    for (size_t g = 0; g < plan.alternatives[a].graphs.size(); ++g) {
      ExplainGraph(plan.alternatives[a].graphs[g], g, catalog, &out);
    }
  }
  return out;
}

}  // namespace greta
