// Correctness oracle. The truth is computed once per seed from the
// in-memory graph with a plain merge-based edge iterator that shares no
// code with the library's intersection kernels, so a kernel defect
// cannot hide by agreeing with itself. A listing is checked by its
// triangle count and an order-independent checksum (the sum of a hash
// of every triangle), read back through ReadListing.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/csr_graph.h"
#include "storage/env.h"
#include "util/status.h"

namespace perfbench {

struct Truth {
  uint64_t triangles = 0;
  uint64_t checksum = 0;
};

/// Hash of the triangle u < v < w; the checksum is its sum mod 2^64.
uint64_t TriangleHash(opt::VertexId u, opt::VertexId v, opt::VertexId w);

Truth ComputeTruth(const opt::CSRGraph& graph, unsigned threads);

opt::Status CheckCount(const Truth& truth, uint64_t count);

/// Reads the listing at `path` back and compares count and checksum.
opt::Status CheckListing(opt::Env* env, const std::string& path,
                         const Truth& truth);

/// The two legal states of a graph whose one fixed edge batch is
/// toggled in and out: without the batch (t0) and with it (t0 + delta).
struct ToggleTruth {
  uint64_t t0 = 0;
  int64_t delta = 0;
  std::vector<opt::Edge> batch;
};

/// Picks `batch_size` absent edges that each close at least one wedge,
/// so adding the batch creates triangles, and computes both states.
ToggleTruth ComputeToggle(const opt::CSRGraph& graph, size_t batch_size,
                          uint64_t seed, unsigned threads);

/// A COUNT on the toggled graph must equal one of the two states.
opt::Status CheckToggleCount(const ToggleTruth& truth, uint64_t count);

/// An ADD must report +delta and a REMOVE -delta.
opt::Status CheckToggleDelta(const ToggleTruth& truth, bool add,
                             int64_t reported);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
