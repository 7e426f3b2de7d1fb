// Uniform method-runner layer: every triangulation method in the repo
// behind one call, so benches and tests sweep them identically.
#ifndef OPT_HARNESS_METHODS_H_
#define OPT_HARNESS_METHODS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/intersect.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "util/status.h"

namespace opt {

enum class Method {
  kOpt,            // overlapped + morphing, num_threads workers
  kOptSerial,      // single thread, macro overlap off (OPT_serial)
  kOptNoMorph,     // overlapped but no thread morphing (Figure 4 ablation)
  kOptVertexIter,  // OPT with the vertex-iterator model
  kMgt,
  kCcSeq,
  kCcDs,
  kGraphChiTri,        // parallel
  kGraphChiTriSerial,  // execthreads = 1
  kIdeal,              // in-memory edge-iterator incl. load (the baseline)
};

const char* MethodName(Method method);

struct MethodConfig {
  /// Total memory budget in pages (the paper's m). OPT splits it evenly
  /// into m_in = m_ex = m/2 (§5.1).
  uint32_t memory_pages = 0;
  uint32_t num_threads = 2;
  uint32_t io_queue_depth = 16;
  std::string temp_dir = "/tmp";
  /// Intersection kernel ablation knob; unset keeps the process-wide
  /// dispatch table (auto = best CPU-supported). Applies to every
  /// method, since they all funnel through the Intersect entry points.
  std::optional<IntersectKernel> kernel;
};

struct MethodResult {
  std::string method;
  double seconds = 0;
  uint64_t triangles = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint32_t iterations = 0;
  /// Amdahl parallel fraction where the method reports one (else 0).
  double parallel_fraction = 0;
  /// Kernel the dispatch table ran during this invocation.
  IntersectKernel kernel_used = IntersectKernel::kScalar;
  /// Per-kernel intersection counters, measured across this run.
  IntersectCounters intersect;
};

/// Runs `method` on `store`, counting triangles.
Result<MethodResult> RunMethod(Method method, GraphStore* store, Env* env,
                               const MethodConfig& config);

}  // namespace opt

#endif  // OPT_HARNESS_METHODS_H_
