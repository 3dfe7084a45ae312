// The engine's stage chain, called one public function at a time with a
// span around each: ParseProgram -> ValidateProgram -> NormalizeProgram ->
// MixedToPure -> Ground -> ComputeFixpoint -> BuildLabelGraph ->
// BuildGraphSpecification. The traced runs use it to cost each engine
// layer from outside.

#ifndef RELBENCH_SRC_STAGES_H_
#define RELBENCH_SRC_STAGES_H_

#include <memory>
#include <string>

#include "relbench/src/common.h"
#include "src/ast/ast.h"
#include "src/core/fixpoint.h"
#include "src/core/graph_spec.h"
#include "src/core/ground.h"
#include "src/core/label_graph.h"

namespace relbench {

struct Chain {
  relspec::Program program;
  std::unique_ptr<relspec::GroundProgram> ground;  // labeling points into it
  relspec::Labeling labeling;
  relspec::LabelGraph graph;
  std::unique_ptr<relspec::GraphSpecification> spec;
};

/// Runs the chain on `source`, recording the stage spans and the layer
/// counts (|U|, rule instances, chi entries, trunk nodes, rounds, clusters)
/// in `log`. Returns "" or the failing stage's error.
std::string RunChain(const std::string& source, LayerLog* log, Chain* out);

/// Membership the way relspecd answers it: the fact is parsed against a
/// scratch copy of the spec's symbols (span parser.fact_us), then looked up
/// with GraphSpecification::Holds (span graph_spec.holds_us).
relspec::StatusOr<bool> SpecHolds(const relspec::GraphSpecification& spec,
                                  const std::string& fact, LayerLog* log);

/// Ends the traced run: stops the event tracer, writes the timeline to
/// <run_dir>/trace-<workload>.json, validates it with tools/trace_check and
/// adds every per-layer metric to `r`. A layer the workload does not run
/// reads 0.
void FinishTrace(const RunOptions& opt, LayerLog* log, Result* r);

}  // namespace relbench

#endif  // RELBENCH_SRC_STAGES_H_
