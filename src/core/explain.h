#ifndef GRETA_CORE_EXPLAIN_H_
#define GRETA_CORE_EXPLAIN_H_

#include <string>

#include "core/plan.h"

namespace greta {

/// Renders a compiled ExecPlan for humans — the GRETA "configuration" the
/// query analyzer produces (Figure 4): templates per sub-pattern with
/// start/end states and transitions, negation links and their placement
/// cases, predicate attachments (vertex / edge, tree key ranges),
/// partitioning attributes, window and counter mode, and for partial-sharing
/// plans the core cell layout (fold slots by aggregate target with their
/// member queries). Used by the examples
/// and handy when debugging query plans.
std::string ExplainPlan(const ExecPlan& plan, const Catalog& catalog);

}  // namespace greta

#endif  // GRETA_CORE_EXPLAIN_H_
