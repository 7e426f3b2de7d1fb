#include "oracle.h"

#include <algorithm>
#include <set>
#include <thread>

#include "core/listing_reader.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Successor lists only: u's neighbors with larger ids, so each triangle
// u < v < w is found once, at edge (u, v).
Truth CountRange(const opt::CSRGraph& g, unsigned stripe, unsigned stripes) {
  Truth t;
  for (opt::VertexId u = stripe; u < g.num_vertices(); u += stripes) {
    const auto su = g.Successors(u);
    for (opt::VertexId v : su) {
      const auto sv = g.Successors(v);
      size_t i = 0;
      size_t j = 0;
      while (i < su.size() && j < sv.size()) {
        if (su[i] < sv[j]) {
          ++i;
        } else if (sv[j] < su[i]) {
          ++j;
        } else {
          ++t.triangles;
          t.checksum += TriangleHash(u, v, su[i]);
          ++i;
          ++j;
        }
      }
    }
  }
  return t;
}

}  // namespace

uint64_t TriangleHash(opt::VertexId u, opt::VertexId v, opt::VertexId w) {
  return Mix(Mix(Mix(u) ^ v) ^ w);
}

Truth ComputeTruth(const opt::CSRGraph& graph, unsigned threads) {
  threads = std::max(1u, threads);
  std::vector<Truth> parts(threads);
  std::vector<std::thread> workers;
  for (unsigned s = 0; s < threads; ++s) {
    workers.emplace_back(
        [&, s] { parts[s] = CountRange(graph, s, threads); });
  }
  for (auto& w : workers) w.join();
  Truth total;
  for (const Truth& p : parts) {
    total.triangles += p.triangles;
    total.checksum += p.checksum;
  }
  return total;
}

opt::Status CheckCount(const Truth& truth, uint64_t count) {
  if (count == truth.triangles) return opt::Status::OK();
  return opt::Status::Corruption("count " + std::to_string(count) +
                                 " != truth " +
                                 std::to_string(truth.triangles));
}

opt::Status CheckListing(opt::Env* env, const std::string& path,
                         const Truth& truth) {
  Truth seen;
  bool ordered = true;
  OPT_RETURN_IF_ERROR(opt::ReadListing(
      env, path,
      [&](opt::VertexId u, opt::VertexId v,
          std::span<const opt::VertexId> ws) {
        for (opt::VertexId w : ws) {
          ordered = ordered && u < v && v < w;
          ++seen.triangles;
          seen.checksum += TriangleHash(u, v, w);
        }
      }));
  if (!ordered) return opt::Status::Corruption("listing has u<v<w violated");
  OPT_RETURN_IF_ERROR(CheckCount(truth, seen.triangles));
  if (seen.checksum != truth.checksum) {
    return opt::Status::Corruption("listing checksum differs from truth");
  }
  return opt::Status::OK();
}

ToggleTruth ComputeToggle(const opt::CSRGraph& graph, size_t batch_size,
                          uint64_t seed, unsigned threads) {
  ToggleTruth truth;
  truth.t0 = ComputeTruth(graph, threads).triangles;
  std::set<opt::Edge> chosen;
  uint64_t state = Mix(seed ^ 0x70661E);
  const opt::VertexId n = graph.num_vertices();
  // Bounded so a graph without open wedges cannot loop forever; the
  // caller checks that the batch came out full.
  for (uint64_t attempt = 0; chosen.size() < batch_size &&
                             attempt < 1000 * batch_size + 100000;
       ++attempt) {
    state = Mix(state);
    const opt::VertexId z = static_cast<opt::VertexId>(state % n);
    const auto nz = graph.Neighbors(z);
    if (nz.size() < 2) continue;
    state = Mix(state);
    opt::VertexId x = nz[state % nz.size()];
    state = Mix(state);
    opt::VertexId y = nz[state % nz.size()];
    if (x == y || graph.HasEdge(x, y)) continue;
    if (x > y) std::swap(x, y);
    chosen.insert({x, y});
  }
  truth.batch.assign(chosen.begin(), chosen.end());

  opt::GraphBuilder builder;
  builder.Reserve(graph.num_edges() + truth.batch.size());
  for (opt::VertexId u = 0; u < n; ++u) {
    for (opt::VertexId v : graph.Successors(u)) builder.AddEdge(u, v);
  }
  for (const opt::Edge& e : truth.batch) builder.AddEdge(e.first, e.second);
  const opt::CSRGraph with_batch = std::move(builder).Build();
  truth.delta = static_cast<int64_t>(ComputeTruth(with_batch, threads).triangles) -
                static_cast<int64_t>(truth.t0);
  return truth;
}

opt::Status CheckToggleCount(const ToggleTruth& truth, uint64_t count) {
  const int64_t c = static_cast<int64_t>(count);
  const int64_t t0 = static_cast<int64_t>(truth.t0);
  if (c == t0 || c == t0 + truth.delta) return opt::Status::OK();
  return opt::Status::Corruption(
      "live count " + std::to_string(count) + " is neither " +
      std::to_string(t0) + " nor " + std::to_string(t0 + truth.delta));
}

opt::Status CheckToggleDelta(const ToggleTruth& truth, bool add,
                             int64_t reported) {
  const int64_t expected = add ? truth.delta : -truth.delta;
  if (reported == expected) return opt::Status::OK();
  return opt::Status::Corruption("mutation delta " + std::to_string(reported) +
                                 " != " + std::to_string(expected));
}

}  // namespace perfbench
