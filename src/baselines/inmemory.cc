#include "baselines/inmemory.h"

#include <algorithm>
#include <vector>

#include "graph/intersect.h"
#include "util/thread_pool.h"

namespace opt {

void EdgeIteratorInMemory(const CSRGraph& g, TriangleSink* sink,
                          uint32_t num_threads) {
  ParallelFor(0, g.num_vertices(), num_threads, [&](size_t u_index) {
    const auto u = static_cast<VertexId>(u_index);
    std::vector<VertexId> ws;
    const auto succ_u = g.Successors(u);
    for (size_t i = 0; i < succ_u.size(); ++i) {
      const VertexId v = succ_u[i];
      ws.clear();
      // n_succ(v) holds only ids above v: skip succ_u[0..i].
      Intersect(succ_u.subspan(i + 1), g.Successors(v), &ws);
      if (!ws.empty()) sink->Emit(u, v, ws);
    }
  });
}

void VertexIteratorInMemory(const CSRGraph& g, TriangleSink* sink,
                            uint32_t num_threads) {
  ParallelFor(0, g.num_vertices(), num_threads, [&](size_t u_index) {
    const auto u = static_cast<VertexId>(u_index);
    std::vector<VertexId> ws;
    const auto succ_u = g.Successors(u);
    for (size_t i = 0; i < succ_u.size(); ++i) {
      const VertexId v = succ_u[i];
      ws.clear();
      for (size_t j = i + 1; j < succ_u.size(); ++j) {
        // (v, w) ∈ E via binary search on the smaller adjacency list.
        if (g.HasEdge(v, succ_u[j])) ws.push_back(succ_u[j]);
      }
      if (!ws.empty()) sink->Emit(u, v, ws);
    }
  });
}

void CompactForwardInMemory(const CSRGraph& g, TriangleSink* sink) {
  const VertexId n = g.num_vertices();
  // A(v): lower-id neighbors of v already visited by the outer loop,
  // in ascending order (appended in outer-loop order).
  std::vector<std::vector<VertexId>> a_lists(n);
  std::vector<VertexId> common;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t : g.Successors(s)) {
      common.clear();
      IntersectMerge(a_lists[s], a_lists[t], &common);
      for (VertexId w : common) {
        // w < s < t: canonical orientation.
        const VertexId tail[1] = {t};
        sink->Emit(w, s, tail);
      }
      a_lists[t].push_back(s);
    }
  }
}

uint64_t BruteForceTriangleCount(const CSRGraph& g) {
  const VertexId n = g.num_vertices();
  uint64_t count = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!g.HasEdge(u, v)) continue;
      for (VertexId w = v + 1; w < n; ++w) {
        if (g.HasEdge(u, w) && g.HasEdge(v, w)) ++count;
      }
    }
  }
  return count;
}

}  // namespace opt
