#include "core/iterator_model.h"

#include <algorithm>

#include "graph/intersect.h"

namespace opt {

// ---------------------------------------------------------------------------
// EdgeIterator instance (Algorithms 6, 8, 10).
// ---------------------------------------------------------------------------

void EdgeIteratorModel::InternalTriangles(const PageRangeView& internal,
                                          const IterationPlan& plan,
                                          VertexId u, TriangleSink* sink,
                                          ModelScratch* scratch) const {
  const AdjacencyRef au = internal.Get(u);
  const auto succ_u = au.succ();
  for (size_t i = 0; i < succ_u.size(); ++i) {
    const VertexId v = succ_u[i];
    if (v > plan.v_hi) break;  // sorted: the rest are external pairs
    const AdjacencyRef av = internal.Get(v);
    scratch->intersection.clear();
    // Every w in n_succ(v) exceeds v, so succ_u[0..i] cannot match.
    Intersect(succ_u.subspan(i + 1), av.succ(), &scratch->intersection);
    if (!scratch->intersection.empty()) {
      sink->Emit(u, v, scratch->intersection);
    }
  }
}

void EdgeIteratorModel::CollectCandidates(const IterationPlan& plan,
                                          const Segment& segment,
                                          std::vector<VertexId>* out) const {
  // Algorithm 8: v in n_succ(u) with n(v) outside the internal area.
  // Residency is the id-range test v <= v_hi, so candidates are exactly
  // the neighbors beyond v_hi (they are also > u, hence in n_succ(u)).
  const auto& nbrs = segment.neighbors;
  auto it = std::upper_bound(nbrs.begin(), nbrs.end(), plan.v_hi);
  out->insert(out->end(), it, nbrs.end());
}

void EdgeIteratorModel::ExternalTriangles(const PageRangeView& internal,
                                          const IterationPlan& plan,
                                          VertexId external_vertex,
                                          const AdjacencyRef& external_adj,
                                          TriangleSink* sink,
                                          ModelScratch* scratch) const {
  // Algorithm 9 line 5 derives V_req from the loaded record itself:
  // the internal requesters are n_prec(v) ∩ [v_lo, v_hi].
  const auto prec = external_adj.prec();
  auto lo = std::lower_bound(prec.begin(), prec.end(), plan.v_lo);
  auto hi = std::upper_bound(lo, prec.end(), plan.v_hi);
  const auto succ_v = external_adj.succ();
  for (auto it = lo; it != hi; ++it) {
    const VertexId u = *it;
    const auto succ_u = internal.Get(u).succ();
    scratch->intersection.clear();
    // Algorithm 10: W_uv = n_succ(u) ∩ n_succ(v). Every w in n_succ(v)
    // exceeds v, so n_succ(u) is searched from past v only.
    const auto past_v =
        std::upper_bound(succ_u.begin(), succ_u.end(), external_vertex);
    Intersect(succ_u.subspan(static_cast<size_t>(past_v - succ_u.begin())),
              succ_v, &scratch->intersection);
    if (!scratch->intersection.empty()) {
      sink->Emit(u, external_vertex, scratch->intersection);
    }
  }
}

// ---------------------------------------------------------------------------
// VertexIterator instance (Algorithms 11, 12, 13).
// ---------------------------------------------------------------------------

void VertexIteratorModel::InternalTriangles(const PageRangeView& internal,
                                            const IterationPlan& plan,
                                            VertexId u, TriangleSink* sink,
                                            ModelScratch* scratch) const {
  // Algorithm 11: for v in n_succ(u) with n(v) resident, check every
  // (v, w) combination with w in n_succ(u), id(w) > id(v), against E_in.
  const AdjacencyRef au = internal.Get(u);
  const auto succ_u = au.succ();
  for (size_t i = 0; i < succ_u.size(); ++i) {
    const VertexId v = succ_u[i];
    if (v > plan.v_hi) break;
    const AdjacencyRef av = internal.Get(v);
    const auto succ_v = av.succ();
    scratch->intersection.clear();
    for (size_t j = i + 1; j < succ_u.size(); ++j) {
      const VertexId w = succ_u[j];
      // (v, w) ∈ E_in ⟺ w ∈ n(v); w > v so search n_succ(v).
      if (std::binary_search(succ_v.begin(), succ_v.end(), w)) {
        scratch->intersection.push_back(w);
      }
    }
    if (!scratch->intersection.empty()) {
      sink->Emit(u, v, scratch->intersection);
    }
  }
}

void VertexIteratorModel::CollectCandidates(const IterationPlan& plan,
                                            const Segment& segment,
                                            std::vector<VertexId>* out) const {
  // Algorithm 12: for a resident record v, every u ∈ n_prec(v) whose
  // list is not resident (u < v_lo) becomes an external candidate.
  const auto& nbrs = segment.neighbors;
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), plan.v_lo);
  out->insert(out->end(), nbrs.begin(), it);
}

void VertexIteratorModel::ExternalTriangles(const PageRangeView& internal,
                                            const IterationPlan& plan,
                                            VertexId external_vertex,
                                            const AdjacencyRef& external_adj,
                                            TriangleSink* sink,
                                            ModelScratch* scratch) const {
  // The loaded record is the low-id outer vertex u; its requesters are
  // v ∈ n_succ(u) ∩ [v_lo, v_hi] (resident lists).
  const VertexId u = external_vertex;
  const auto succ_u = external_adj.succ();
  auto lo = std::lower_bound(succ_u.begin(), succ_u.end(), plan.v_lo);
  auto hi = std::upper_bound(lo, succ_u.end(), plan.v_hi);
  for (auto it = lo; it != hi; ++it) {
    const VertexId v = *it;
    const AdjacencyRef av = internal.Get(v);
    const auto succ_v = av.succ();
    scratch->intersection.clear();
    // Algorithm 13: w ∈ n_succ(u) with id(w) > id(v) and (v, w) ∈ E_in.
    for (auto jt = std::upper_bound(succ_u.begin(), succ_u.end(), v);
         jt != succ_u.end(); ++jt) {
      if (std::binary_search(succ_v.begin(), succ_v.end(), *jt)) {
        scratch->intersection.push_back(*jt);
      }
    }
    if (!scratch->intersection.empty()) {
      sink->Emit(u, v, scratch->intersection);
    }
  }
}

}  // namespace opt
