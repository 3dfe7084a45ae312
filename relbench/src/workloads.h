// The three workloads. Each returns the result line's contents; with
// options.trace set it runs the traced replay and reports per-layer metrics
// instead of end-to-end ones.

#ifndef RELBENCH_SRC_WORKLOADS_H_
#define RELBENCH_SRC_WORKLOADS_H_

#include "relbench/src/common.h"

namespace relbench {

/// `build`: one thread, in process, whole rounds of a seeded program mix.
Result RunBuild(const RunOptions& options);

/// `serve-read` (updates = false) and `serve-write` (updates = true):
/// relspecd --threads 2 over a Unix socket, two closed-loop connections.
Result RunServe(const RunOptions& options, bool updates);

}  // namespace relbench

#endif  // RELBENCH_SRC_WORKLOADS_H_
