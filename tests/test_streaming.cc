// Streaming edge-delta tests: DeltaOverlay unit coverage, metamorphic
// properties (add-then-remove restoration, batch order independence,
// typed rejections), the TRIÈST approximate counter, and the
// differential mutation-soak — thousands of seeded insert/delete deltas
// against an in-memory mirror graph, with incremental counts checked
// against a from-scratch recompute at every checkpoint, plain and under
// fault injection.
//
// Every randomized case derives from one seed printed via SCOPED_TRACE
// as a one-line repro; override with OPT_STREAMING_SEED=<n>.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "graph/delta_overlay.h"
#include "graph/streaming_approx.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/random.h"

namespace opt {
namespace {

using testutil::OracleCount;
using testutil::OracleTriangles;

using EdgePair = std::pair<VertexId, VertexId>;

uint64_t SoakSeed() {
  if (const char* env = std::getenv("OPT_STREAMING_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xC0FFEE;
}

std::string ReproLine(uint64_t seed) {
  return "repro: OPT_STREAMING_SEED=" + std::to_string(seed) +
         " ./test_streaming";
}

/// Nightly soak budget (seconds). When OPT_SOAK_SECONDS is set the
/// differential soak keeps re-running all shapes under fresh derived
/// seeds until the wall budget elapses — the same gate the chaos suite
/// uses. Unset (every normal run): a single fixed-size pass.
int SoakBudgetSeconds() {
  if (const char* env = std::getenv("OPT_SOAK_SECONDS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 0;
}

EdgePair Canonical(VertexId u, VertexId v) {
  return u < v ? EdgePair{u, v} : EdgePair{v, u};
}

std::set<EdgePair> EdgeSetOf(const CSRGraph& g) {
  std::set<EdgePair> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.Successors(v)) edges.insert({v, w});
  }
  return edges;
}

/// From-scratch oracle over the mirror edge set — the ground truth the
/// incremental count must match at every checkpoint.
uint64_t MirrorTriangles(const std::set<EdgePair>& edges) {
  if (edges.empty()) return 0;
  return OracleCount(
      GraphBuilder::FromEdges({edges.begin(), edges.end()}));
}

AdjacencyFetcher GraphFetcher(const CSRGraph* g) {
  return [g](VertexId v, std::vector<VertexId>* out) {
    const auto neighbors = g->Neighbors(v);
    out->assign(neighbors.begin(), neighbors.end());
    return Status::OK();
  };
}

CSRGraph DiamondGraph() {
  // K4 minus the edge {2,3}: triangles {0,1,2} and {0,1,3}.
  return GraphBuilder::FromEdges(
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
}

// ---------------------------------------------------------------------
// DeltaOverlay unit tests (in-memory fetcher).
// ---------------------------------------------------------------------

TEST(DeltaOverlay, AddAndRemoveMaintainExactTriangleDelta) {
  const CSRGraph base = DiamondGraph();
  ASSERT_EQ(OracleCount(base), 2u);

  DeltaApplyStats stats;
  const std::vector<Edge> batch = {{2, 3}};
  auto with_edge = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd, batch,
                                       base.num_vertices(),
                                       GraphFetcher(&base), &stats);
  ASSERT_TRUE(with_edge.ok()) << with_edge.status().ToString();
  // {2,3} closes against common neighbors {0,1}: K4 has 4 triangles.
  EXPECT_EQ((*with_edge)->triangle_delta(), 2);
  EXPECT_EQ((*with_edge)->edges_added(), 1u);
  EXPECT_EQ(stats.triangles_added, 2u);
  EXPECT_EQ(stats.edges_applied, 1u);
  EXPECT_GT(stats.base_fetches, 0u);

  auto removed = DeltaOverlay::Apply(with_edge->get(), DeltaKind::kRemove,
                                     batch, base.num_vertices(),
                                     GraphFetcher(&base));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ((*removed)->triangle_delta(), 0);
  EXPECT_TRUE((*removed)->empty());
  EXPECT_EQ((*removed)->edges_added(), 0u);
  EXPECT_EQ((*removed)->edges_removed(), 0u);
}

TEST(DeltaOverlay, RemovingBaseEdgeSubtractsItsTriangles) {
  const CSRGraph base = DiamondGraph();
  auto overlay = DeltaOverlay::Apply(nullptr, DeltaKind::kRemove,
                                     std::vector<Edge>{{0, 1}},
                                     base.num_vertices(),
                                     GraphFetcher(&base));
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  // {0,1} participates in both triangles.
  EXPECT_EQ((*overlay)->triangle_delta(), -2);
  EXPECT_EQ((*overlay)->edges_removed(), 1u);
  EXPECT_EQ((*overlay)->edges_added(), 0u);
}

TEST(DeltaOverlay, MergeNeighborsReflectsEdits) {
  const CSRGraph base = DiamondGraph();
  auto overlay = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd,
                                     std::vector<Edge>{{2, 3}},
                                     base.num_vertices(),
                                     GraphFetcher(&base));
  ASSERT_TRUE(overlay.ok());
  auto remove = DeltaOverlay::Apply(overlay->get(), DeltaKind::kRemove,
                                    std::vector<Edge>{{0, 2}},
                                    base.num_vertices(),
                                    GraphFetcher(&base));
  ASSERT_TRUE(remove.ok());
  const DeltaOverlay& view = **remove;
  EXPECT_TRUE(view.TouchesVertex(2));
  EXPECT_TRUE(view.TouchesVertex(0));
  EXPECT_FALSE(view.TouchesVertex(1));
  const auto n2 = base.Neighbors(2);
  EXPECT_EQ(view.MergeNeighbors(2, n2), (std::vector<VertexId>{1, 3}));
  const auto n1 = base.Neighbors(1);
  EXPECT_EQ(view.MergeNeighbors(1, n1), (std::vector<VertexId>{0, 2, 3}));
}

TEST(DeltaOverlay, BatchApplicationIsOrderIndependent) {
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  const CSRGraph base = GenerateErdosRenyi(64, 220, seed);
  std::set<EdgePair> present = EdgeSetOf(base);
  Random64 rng(seed ^ 0x9E3779B97F4A7C15ull);

  // One mixed batch of absent edges to add, in two different orders.
  std::vector<Edge> batch;
  while (batch.size() < 24) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(64));
    const VertexId v = static_cast<VertexId>(rng.Uniform(64));
    if (u == v) continue;
    if (!present.insert(Canonical(u, v)).second) continue;
    batch.push_back({u, v});
  }
  std::vector<Edge> reversed(batch.rbegin(), batch.rend());

  auto forward = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd, batch,
                                     base.num_vertices(),
                                     GraphFetcher(&base));
  auto backward = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd, reversed,
                                      base.num_vertices(),
                                      GraphFetcher(&base));
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ((*forward)->triangle_delta(), (*backward)->triangle_delta());
  EXPECT_EQ((*forward)->edges_added(), (*backward)->edges_added());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    const auto n = base.Neighbors(v);
    EXPECT_EQ((*forward)->MergeNeighbors(v, n),
              (*backward)->MergeNeighbors(v, n))
        << "merged views diverge at vertex " << v;
  }
  // And the delta matches the from-scratch difference.
  const int64_t expected =
      static_cast<int64_t>(MirrorTriangles(present)) -
      static_cast<int64_t>(OracleCount(base));
  EXPECT_EQ((*forward)->triangle_delta(), expected);
}

TEST(DeltaOverlay, RejectsInvalidBatchesWithTypedErrors) {
  const CSRGraph base = DiamondGraph();
  const AdjacencyFetcher fetch = GraphFetcher(&base);
  const VertexId n = base.num_vertices();

  auto self_loop = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd,
                                       std::vector<Edge>{{1, 1}}, n, fetch);
  ASSERT_FALSE(self_loop.ok());
  EXPECT_TRUE(self_loop.status().IsInvalidArgument())
      << self_loop.status().ToString();

  auto out_of_range = DeltaOverlay::Apply(
      nullptr, DeltaKind::kAdd, std::vector<Edge>{{0, 99}}, n, fetch);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_TRUE(out_of_range.status().IsInvalidArgument());

  // Duplicate within a batch, in either orientation.
  auto duplicate = DeltaOverlay::Apply(
      nullptr, DeltaKind::kAdd, std::vector<Edge>{{2, 3}, {3, 2}}, n, fetch);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_TRUE(duplicate.status().IsInvalidArgument());

  auto already_present = DeltaOverlay::Apply(
      nullptr, DeltaKind::kAdd, std::vector<Edge>{{0, 1}}, n, fetch);
  ASSERT_FALSE(already_present.ok());
  EXPECT_TRUE(already_present.status().IsInvalidArgument());

  auto not_present = DeltaOverlay::Apply(
      nullptr, DeltaKind::kRemove, std::vector<Edge>{{2, 3}}, n, fetch);
  ASSERT_FALSE(not_present.ok());
  EXPECT_TRUE(not_present.status().IsInvalidArgument());

  auto empty = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd,
                                   std::vector<Edge>{}, n, fetch);
  ASSERT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsInvalidArgument());
}

TEST(DeltaOverlay, FetchFailurePropagatesWithoutCommitting) {
  const CSRGraph base = DiamondGraph();
  const AdjacencyFetcher failing = [](VertexId,
                                      std::vector<VertexId>*) {
    return Status::Unavailable("injected fetch failure");
  };
  auto result = DeltaOverlay::Apply(nullptr, DeltaKind::kAdd,
                                    std::vector<Edge>{{2, 3}},
                                    base.num_vertices(), failing);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

// ---------------------------------------------------------------------
// TRIÈST approximate counter.
// ---------------------------------------------------------------------

TEST(TriestEstimator, ExactWhileStreamFitsReservoir) {
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  const CSRGraph g = GenerateErdosRenyi(120, 900, seed);
  const std::set<EdgePair> edge_set = EdgeSetOf(g);
  std::vector<EdgePair> edges(edge_set.begin(), edge_set.end());
  Random64 rng(seed);
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.Uniform(i)]);
  }
  TriestEstimator estimator(/*reservoir_edges=*/4096, seed);
  for (const auto& [u, v] : edges) estimator.OnInsert(u, v);
  EXPECT_TRUE(estimator.valid());
  EXPECT_EQ(estimator.stream_length(), edges.size());
  EXPECT_DOUBLE_EQ(estimator.estimate(),
                   static_cast<double>(OracleCount(g)));
}

TEST(TriestEstimator, SampledEstimateWithinTolerance) {
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  const CSRGraph g = GenerateErdosRenyi(300, 4000, seed + 1);
  const std::set<EdgePair> edge_set = EdgeSetOf(g);
  std::vector<EdgePair> edges(edge_set.begin(), edge_set.end());
  Random64 rng(seed + 1);
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.Uniform(i)]);
  }
  TriestEstimator estimator(/*reservoir_edges=*/1500, seed + 1);
  for (const auto& [u, v] : edges) estimator.OnInsert(u, v);
  EXPECT_EQ(estimator.reservoir_size(), 1500u);
  const double exact = static_cast<double>(OracleCount(g));
  ASSERT_GT(exact, 0);
  // Deterministic given the seed; the bound is generous because the
  // test pins behavior, not the estimator's variance.
  EXPECT_GT(estimator.estimate(), 0.3 * exact)
      << "estimate " << estimator.estimate() << " vs exact " << exact;
  EXPECT_LT(estimator.estimate(), 3.0 * exact)
      << "estimate " << estimator.estimate() << " vs exact " << exact;
}

TEST(TriestEstimator, RemovalTaintsTheEstimate) {
  TriestEstimator estimator(64, 7);
  estimator.OnInsert(0, 1);
  EXPECT_TRUE(estimator.valid());
  estimator.Taint();
  EXPECT_FALSE(estimator.valid());
}

// ---------------------------------------------------------------------
// Registry / scheduler integration.
// ---------------------------------------------------------------------

struct ServiceFixture {
  explicit ServiceFixture(Env* env, const CSRGraph& g,
                          const std::string& tag,
                          const RegistryOptions& registry_options = {}) {
    static int counter = 0;
    base_path = testutil::ProcessTempDir() + "/stream_" + tag + "_" +
                std::to_string(counter++);
    GraphStoreOptions store_options;
    store_options.page_size = 256;
    const Status created = GraphStore::Create(g, env, base_path, store_options);
    EXPECT_TRUE(created.ok()) << created.ToString();
    registry = std::make_unique<GraphRegistry>(env, registry_options);
    SchedulerOptions scheduler_options;
    scheduler_options.workers = 2;
    scheduler_options.default_memory_pages = 32;
    scheduler = std::make_unique<QueryScheduler>(registry.get(),
                                                 scheduler_options);
    EXPECT_TRUE(scheduler->LoadGraph("g", base_path).ok());
  }

  uint64_t Count() {
    QuerySpec spec;
    spec.graph = "g";
    const QueryResult result = scheduler->Run(spec);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return result.triangles;
  }

  std::string base_path;
  std::unique_ptr<GraphRegistry> registry;
  std::unique_ptr<QueryScheduler> scheduler;
};

TEST(StreamingService, AddThenRemoveRestoresPriorCountAndListing) {
  Env* env = Env::Default();
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  const CSRGraph g = GenerateErdosRenyi(80, 400, seed);
  ServiceFixture service(env, g, "restore");

  const uint64_t base_count = service.Count();
  EXPECT_EQ(base_count, OracleCount(g));

  // A batch of absent edges.
  std::set<EdgePair> present = EdgeSetOf(g);
  Random64 rng(seed);
  std::vector<Edge> batch;
  while (batch.size() < 12) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(80));
    const VertexId v = static_cast<VertexId>(rng.Uniform(80));
    if (u == v || !present.insert(Canonical(u, v)).second) continue;
    batch.push_back({u, v});
  }

  const MutationResult added =
      service.scheduler->ApplyDelta("g", DeltaKind::kAdd, batch);
  ASSERT_TRUE(added.status.ok()) << added.status.ToString();
  EXPECT_EQ(added.edges_applied, batch.size());
  EXPECT_EQ(service.Count(), MirrorTriangles(present));

  // LIST refuses while the overlay is dirty (the engine streams the
  // base store only).
  VectorSink sink;
  QuerySpec list_spec;
  list_spec.graph = "g";
  list_spec.kind = QueryKind::kList;
  list_spec.list_sink = &sink;
  const QueryResult dirty_list = service.scheduler->Run(list_spec);
  EXPECT_EQ(dirty_list.status.code(), StatusCode::kNotSupported)
      << dirty_list.status.ToString();

  // Metamorphic restoration: removing the same batch lands back on the
  // exact prior count, an empty overlay, and a working LIST.
  const MutationResult removed =
      service.scheduler->ApplyDelta("g", DeltaKind::kRemove, batch);
  ASSERT_TRUE(removed.status.ok()) << removed.status.ToString();
  EXPECT_EQ(removed.total_triangle_delta, 0);
  EXPECT_EQ(removed.batch_triangle_delta, -added.batch_triangle_delta);
  EXPECT_GT(removed.epoch, added.epoch);
  EXPECT_EQ(service.Count(), base_count);

  auto snap = service.registry->DeltaState("g");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->triangle_delta, 0);
  EXPECT_EQ(snap->edges_added, 0u);
  EXPECT_EQ(snap->edges_removed, 0u);

  VectorSink restored_sink;
  list_spec.list_sink = &restored_sink;
  const QueryResult restored_list = service.scheduler->Run(list_spec);
  ASSERT_TRUE(restored_list.status.ok())
      << restored_list.status.ToString();
  EXPECT_EQ(restored_sink.Sorted(), OracleTriangles(g));
}

TEST(StreamingService, RejectedBatchesLeaveStateUntouched) {
  Env* env = Env::Default();
  const CSRGraph g = DiamondGraph();
  ServiceFixture service(env, g, "reject");
  const uint64_t count0 = service.Count();

  auto handle0 = service.registry->Acquire("g");
  ASSERT_TRUE(handle0.ok());
  const uint64_t epoch0 = handle0->epoch;

  // Self-loop, duplicate, already-present, not-present: all typed
  // InvalidArgument, none of them bump the epoch or the count — even
  // when the bad edge comes after valid ones in the batch (atomicity).
  const std::vector<std::pair<DeltaKind, std::vector<Edge>>> bad_batches = {
      {DeltaKind::kAdd, {{1, 1}}},
      {DeltaKind::kAdd, {{2, 3}, {3, 2}}},
      {DeltaKind::kAdd, {{2, 3}, {0, 1}}},
      {DeltaKind::kRemove, {{0, 1}, {2, 3}}},
      {DeltaKind::kAdd, {{0, 77}}},
  };
  for (const auto& [kind, batch] : bad_batches) {
    const MutationResult result =
        service.scheduler->ApplyDelta("g", kind, batch);
    EXPECT_TRUE(result.status.IsInvalidArgument())
        << result.status.ToString();
    EXPECT_FALSE(result.degraded);
  }
  auto handle1 = service.registry->Acquire("g");
  ASSERT_TRUE(handle1.ok());
  EXPECT_EQ(handle1->epoch, epoch0);
  EXPECT_TRUE(handle1->overlay == nullptr || handle1->overlay->empty());
  EXPECT_EQ(service.Count(), count0);

  auto missing =
      service.scheduler->ApplyDelta("missing", DeltaKind::kAdd,
                                    std::vector<Edge>{{0, 1}});
  EXPECT_TRUE(missing.status.IsNotFound());
}

TEST(StreamingService, SubscribeLongPollWakesOnMutation) {
  Env* env = Env::Default();
  const CSRGraph g = DiamondGraph();
  ServiceFixture service(env, g, "subscribe");
  const uint64_t base_count = service.Count();
  ASSERT_EQ(base_count, 2u);

  auto now = service.registry->WaitForEpoch(
      "g", 0, std::chrono::milliseconds(0));
  ASSERT_TRUE(now.ok());
  EXPECT_FALSE(now->timed_out);
  EXPECT_TRUE(now->base_known);
  const uint64_t epoch0 = now->epoch;

  // No mutation: the wait times out and says so.
  auto timed_out = service.registry->WaitForEpoch(
      "g", epoch0, std::chrono::milliseconds(30));
  ASSERT_TRUE(timed_out.ok());
  EXPECT_TRUE(timed_out->timed_out);
  EXPECT_EQ(timed_out->epoch, epoch0);

  // A mutation from another thread wakes the poll before its deadline.
  std::thread mutator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const MutationResult result = service.scheduler->ApplyDelta(
        "g", DeltaKind::kAdd, std::vector<Edge>{{2, 3}});
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  });
  auto woken = service.registry->WaitForEpoch(
      "g", epoch0, std::chrono::milliseconds(10000));
  mutator.join();
  ASSERT_TRUE(woken.ok());
  EXPECT_FALSE(woken->timed_out);
  EXPECT_GT(woken->epoch, epoch0);
  EXPECT_EQ(woken->triangle_delta, 2);
  ASSERT_TRUE(woken->base_known);
  EXPECT_EQ(woken->base_triangles + woken->triangle_delta, 4);
}

TEST(StreamingService, WaitForEpochClampsHugeTimeouts) {
  // A u64 timeout straight off the wire can be absurdly large; naively
  // adding it to steady_clock::now() overflows the deadline and the
  // poll returns timed_out immediately. With the clamp the waiter
  // long-polls normally and a concurrent mutation wakes it.
  Env* env = Env::Default();
  const CSRGraph g = DiamondGraph();
  ServiceFixture service(env, g, "clamp");
  auto now = service.registry->WaitForEpoch(
      "g", 0, std::chrono::milliseconds(0));
  ASSERT_TRUE(now.ok());
  const uint64_t epoch0 = now->epoch;

  std::thread mutator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const MutationResult result = service.scheduler->ApplyDelta(
        "g", DeltaKind::kAdd, std::vector<Edge>{{2, 3}});
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  });
  auto woken = service.registry->WaitForEpoch(
      "g", epoch0, std::chrono::milliseconds::max());
  mutator.join();
  ASSERT_TRUE(woken.ok());
  EXPECT_FALSE(woken->timed_out);
  EXPECT_GT(woken->epoch, epoch0);
}

TEST(StreamingService, ConcurrentBatchesOnOneGraphAllSurvive) {
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  // Pure read latency (no faults): each apply's base-adjacency fetches
  // hold the per-graph mutation lock for hundreds of microseconds, so
  // the two writers contend on essentially every batch. A one-frame
  // pool and an oracle base count keep those reads real: a warm pool
  // would serve them without latency and the writers would barely
  // contend.
  auto plan = FaultPlan::Parse("seed=" + std::to_string(seed) +
                               ",latency_p=1.0,latency_us=200,"
                               "path_filter=.pages");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjectingEnv fenv(Env::Default(), *plan);
  fenv.set_enabled(false);  // clean store build
  const CSRGraph g = GenerateErdosRenyi(80, 400, seed);
  ServiceFixture service(&fenv, g, "concurrent", {.min_pool_frames = 1});
  const uint64_t base_count = OracleCount(g);

  // Two writers race disjoint absent edges at the same graph. Every
  // batch must build on its predecessor's published overlay — an apply
  // that snapshots the overlay before waiting on the per-graph mutation
  // lock validates against a stale view and its commit silently drops
  // the other writer's edges and triangle delta. Single-edge batches
  // behind a start barrier maximize lock contention so a stale-snapshot
  // regression loses updates with overwhelming probability.
  constexpr size_t kEdgesPerWriter = 60;
  std::set<EdgePair> mirror = EdgeSetOf(g);
  std::vector<std::vector<Edge>> lanes(2);
  for (VertexId u = 0; u + 1 < g.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      if (mirror.count({u, v}) != 0) continue;
      auto& lane = lanes[(u + v) % 2];
      if (lane.size() < kEdgesPerWriter) lane.push_back({u, v});
    }
  }
  ASSERT_EQ(lanes[0].size(), kEdgesPerWriter);
  ASSERT_EQ(lanes[1].size(), kEdgesPerWriter);

  fenv.set_enabled(true);
  std::atomic<int> at_gate{0};
  std::vector<std::thread> writers;
  for (const auto& lane : lanes) {
    writers.emplace_back([&service, &lane, &at_gate] {
      at_gate.fetch_add(1);
      while (at_gate.load() < 2) std::this_thread::yield();
      for (const Edge& e : lane) {
        const MutationResult result = service.scheduler->ApplyDelta(
            "g", DeltaKind::kAdd, std::vector<Edge>{e});
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      }
    });
  }
  for (auto& writer : writers) writer.join();
  fenv.set_enabled(false);

  for (const auto& lane : lanes) {
    for (const Edge& e : lane) mirror.insert(Canonical(e.first, e.second));
  }
  auto snap = service.registry->DeltaState("g");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->edges_added, 2 * kEdgesPerWriter);
  EXPECT_EQ(snap->batches_applied, 2 * kEdgesPerWriter);
  EXPECT_EQ(service.Count(), MirrorTriangles(mirror));
  EXPECT_EQ(static_cast<int64_t>(MirrorTriangles(mirror)),
            static_cast<int64_t>(base_count) + snap->triangle_delta);
}

TEST(StreamingService, MutationReadsUsePagesQueriesCached) {
  // A batch's base-adjacency reads go through the shared pool under the
  // graph's owner tag, so the pages a COUNT just loaded serve the
  // mutation without another device read.
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  ThrottledEnv counting(Env::Default(), 0);
  const CSRGraph g = GenerateErdosRenyi(80, 400, seed);
  ServiceFixture service(&counting, g, "pool_reads");
  ASSERT_EQ(service.Count(), OracleCount(g));

  std::set<EdgePair> mirror = EdgeSetOf(g);
  std::vector<Edge> batch;
  for (VertexId v = 1; v < g.num_vertices() && batch.size() < 8; ++v) {
    if (mirror.count({0, v}) == 0) batch.push_back({0, v});
  }
  ASSERT_EQ(batch.size(), 8u);
  for (const Edge& e : batch) mirror.insert(Canonical(e.first, e.second));

  BufferPool* pool = service.registry->pool();
  const uint64_t reads_before = counting.stats().reads.load();
  const uint64_t lookups_before = pool->stats().lookups.load();
  const MutationResult result =
      service.scheduler->ApplyDelta("g", DeltaKind::kAdd, batch);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(counting.stats().reads.load(), reads_before);
  EXPECT_GT(pool->stats().lookups.load(), lookups_before);
  EXPECT_EQ(result.batch_triangle_delta,
            static_cast<int64_t>(MirrorTriangles(mirror)) -
                static_cast<int64_t>(OracleCount(g)));
}

TEST(StreamingService, BatchAppliesWhenEveryPoolFrameIsPinned) {
  // The registry reserves its own frames for each batch, so queries
  // pinning the whole pool cannot make a mutation's Fetch fail with
  // ResourceExhausted.
  const CSRGraph g = DiamondGraph();
  ServiceFixture service(Env::Default(), g, "pinned",
                         {.min_pool_frames = 1});
  BufferPool* pool = service.registry->pool();
  ASSERT_NE(pool, nullptr);
  FrameReservation hog(pool, 4);
  constexpr uint32_t kOtherOwner = 0xFFFF;  // no registered graph's tag
  std::vector<Frame*> pinned;
  for (uint32_t pid = 0; pid < pool->num_frames(); ++pid) {
    auto fetched = pool->Fetch(MakePageKey(kOtherOwner, pid));
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    pool->MarkValid(fetched->frame);
    pinned.push_back(fetched->frame);
  }
  ASSERT_EQ(pool->Fetch(MakePageKey(kOtherOwner, pool->num_frames()))
                .status()
                .code(),
            StatusCode::kResourceExhausted);

  const MutationResult result = service.scheduler->ApplyDelta(
      "g", DeltaKind::kAdd, std::vector<Edge>{{2, 3}});
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.batch_triangle_delta, 2);
  for (Frame* frame : pinned) pool->Unpin(frame);
}

// ---------------------------------------------------------------------
// Differential mutation-soak.
// ---------------------------------------------------------------------

struct SoakShape {
  const char* name;
  CSRGraph graph;
};

std::vector<SoakShape> SoakShapes(uint64_t seed) {
  std::vector<SoakShape> shapes;
  shapes.push_back({"er", GenerateErdosRenyi(220, 1400, seed)});
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edge_factor = 8;
  rmat.seed = seed + 1;
  shapes.push_back({"rmat", GenerateRmat(rmat)});
  HolmeKimOptions hk;
  hk.num_vertices = 240;
  hk.edges_per_vertex = 5;
  hk.triad_probability = 0.6;
  hk.seed = seed + 2;
  shapes.push_back({"hk", GenerateHolmeKim(hk)});
  return shapes;
}

/// Runs `num_deltas` seeded edge deltas against one graph shape through
/// the full registry/scheduler path, checking the incremental count
/// against a from-scratch mirror recompute at every checkpoint.
void RunMutationSoak(Env* env, const SoakShape& shape, uint64_t seed,
                     uint64_t num_deltas, uint64_t batch_edges,
                     uint64_t checkpoint_every_batches) {
  SCOPED_TRACE(ReproLine(seed));
  SCOPED_TRACE(std::string("shape: ") + shape.name);
  const CSRGraph& g = shape.graph;
  const VertexId n = g.num_vertices();
  ServiceFixture service(env, g, std::string("soak_") + shape.name);

  std::set<EdgePair> mirror = EdgeSetOf(g);
  const uint64_t base_count = OracleCount(g);
  ASSERT_EQ(service.Count(), base_count);

  Random64 rng(seed ^ 0xD1F7A);
  uint64_t applied = 0;
  uint64_t batches = 0;
  int64_t expected_delta_sum = 0;
  while (applied < num_deltas) {
    // Removal pressure scales with how far the mirror has grown past
    // the base edge count, keeping the graph near its original size.
    const bool remove =
        !mirror.empty() && rng.Uniform(100) < (mirror.size() > g.num_edges()
                                                   ? 55u
                                                   : 35u);
    std::vector<Edge> batch;
    std::set<EdgePair> batch_seen;
    const uint64_t want =
        std::min<uint64_t>(batch_edges, num_deltas - applied);
    if (remove) {
      while (batch.size() < want && batch_seen.size() < mirror.size()) {
        auto it = mirror.begin();
        std::advance(it, rng.Uniform(mirror.size()));
        if (!batch_seen.insert(*it).second) continue;
        batch.push_back({it->first, it->second});
      }
    } else {
      uint64_t attempts = 0;
      while (batch.size() < want && ++attempts < 10000) {
        const VertexId u = static_cast<VertexId>(rng.Uniform(n));
        const VertexId v = static_cast<VertexId>(rng.Uniform(n));
        if (u == v) continue;
        const EdgePair e = Canonical(u, v);
        if (mirror.count(e) != 0 || !batch_seen.insert(e).second) continue;
        batch.push_back({u, v});
      }
    }
    if (batch.empty()) continue;

    const MutationResult result = service.scheduler->ApplyDelta(
        "g", remove ? DeltaKind::kRemove : DeltaKind::kAdd, batch);
    ASSERT_TRUE(result.status.ok())
        << "batch " << batches << " (" << (remove ? "remove" : "add")
        << " " << batch.size() << " edges): " << result.status.ToString();
    ASSERT_EQ(result.edges_applied, batch.size());
    for (const Edge& e : batch) {
      if (remove) {
        mirror.erase(Canonical(e.first, e.second));
      } else {
        mirror.insert(Canonical(e.first, e.second));
      }
    }
    expected_delta_sum += result.batch_triangle_delta;
    EXPECT_EQ(result.total_triangle_delta, expected_delta_sum);
    applied += batch.size();
    ++batches;

    if (batches % checkpoint_every_batches == 0) {
      const uint64_t expected = MirrorTriangles(mirror);
      ASSERT_EQ(service.Count(), expected)
          << "incremental count diverged from recompute after " << applied
          << " deltas (" << batches << " batches)";
      ASSERT_EQ(static_cast<int64_t>(expected),
                static_cast<int64_t>(base_count) + expected_delta_sum);
    }
  }
  // Final checkpoint regardless of batch alignment.
  ASSERT_EQ(service.Count(), MirrorTriangles(mirror));
  auto snap = service.registry->DeltaState("g");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->batches_applied, batches);
}

TEST(MutationSoak, DifferentialAcrossGraphShapes) {
  Env* env = Env::Default();
  const uint64_t seed = SoakSeed();
  const auto started = std::chrono::steady_clock::now();
  const uint64_t deltas_before = Metrics()
                                     .GetHistogram("delta.apply_us")
                                     ->Snapshot()
                                     .count;
  // ≥10k deltas total across three shapes.
  for (const SoakShape& shape : SoakShapes(seed)) {
    RunMutationSoak(env, shape, seed, /*num_deltas=*/3400,
                    /*batch_edges=*/16, /*checkpoint_every_batches=*/25);
  }
  // Nightly extension: re-soak all shapes with fresh derived seeds
  // until the OPT_SOAK_SECONDS budget elapses (no-op when unset). Each
  // round's seed is printed by the per-run SCOPED_TRACE repro line.
  const int budget = SoakBudgetSeconds();
  for (uint64_t round = 1;
       budget > 0 && std::chrono::steady_clock::now() - started <
                         std::chrono::seconds(budget);
       ++round) {
    const uint64_t round_seed = seed + 1000 * round;
    for (const SoakShape& shape : SoakShapes(round_seed)) {
      RunMutationSoak(env, shape, round_seed, /*num_deltas=*/3400,
                      /*batch_edges=*/16, /*checkpoint_every_batches=*/25);
    }
  }
  // The apply-latency histogram observed every batch (STATS percentiles
  // have data to report).
  EXPECT_GT(Metrics().GetHistogram("delta.apply_us")->Snapshot().count,
            deltas_before);
}

TEST(MutationSoak, DifferentialUnderTransientFaultInjection) {
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  auto plan = FaultPlan::Parse(
      "seed=" + std::to_string(seed) +
      ",read_error_p=0.05,transient=1,latency_p=0.02,latency_us=100,"
      "path_filter=.pages");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  SCOPED_TRACE("repro: --fault-plan \"" + plan->ToString() + "\"");
  FaultInjectingEnv fenv(Env::Default(), *plan);

  fenv.set_enabled(false);  // clean store build
  const CSRGraph g = GenerateErdosRenyi(160, 900, seed + 7);
  SoakShape shape{"er_faults", g};
  fenv.set_enabled(true);
  // Transient faults heal within the bounded reread budget, so the soak
  // must stay exact — no delta is ever silently dropped or double
  // applied under I/O churn.
  RunMutationSoak(&fenv, shape, seed, /*num_deltas=*/900,
                  /*batch_edges=*/12, /*checkpoint_every_batches=*/20);
}

TEST(MutationSoak, PersistentFaultsDegradeToUnavailableWithoutApplying) {
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  auto plan = FaultPlan::Parse("seed=" + std::to_string(seed) +
                               ",read_error_p=1.0,transient=0,"
                               "path_filter=.pages");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjectingEnv fenv(Env::Default(), *plan);

  fenv.set_enabled(false);
  const CSRGraph g = DiamondGraph();
  ServiceFixture service(&fenv, g, "degrade");
  // The base count comes from the oracle: a COUNT here would warm the
  // shared pool, and the apply would then never touch the faulty device.
  const uint64_t count0 = OracleCount(g);
  auto handle0 = service.registry->Acquire("g");
  ASSERT_TRUE(handle0.ok());

  fenv.set_enabled(true);
  const std::vector<Edge> batch = {{2, 3}};
  const MutationResult degraded =
      service.scheduler->ApplyDelta("g", DeltaKind::kAdd, batch);
  ASSERT_TRUE(degraded.status.IsUnavailable())
      << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded);

  // Nothing committed: same epoch, clean overlay.
  auto handle1 = service.registry->Acquire("g");
  ASSERT_TRUE(handle1.ok());
  EXPECT_EQ(handle1->epoch, handle0->epoch);
  EXPECT_TRUE(handle1->overlay == nullptr || handle1->overlay->empty());

  // The same batch retried after the device heals applies cleanly —
  // degraded mutations are rejected loudly, never half-applied.
  fenv.set_enabled(false);
  const MutationResult retried =
      service.scheduler->ApplyDelta("g", DeltaKind::kAdd, batch);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_EQ(service.Count(), count0 + 2);
}

TEST(StreamingService, ApproxEstimatorTracksInsertStream) {
  Env* env = Env::Default();
  const uint64_t seed = SoakSeed();
  SCOPED_TRACE(ReproLine(seed));
  // Base graph with no edges worth of overlap: feed fresh edges and the
  // estimator (scoped to streamed edges) stays exact while they fit.
  const CSRGraph g = GenerateErdosRenyi(60, 150, seed);
  ServiceFixture service(env, g, "approx",
                         {.approx_reservoir_edges = 4096});

  std::set<EdgePair> present = EdgeSetOf(g);
  std::set<EdgePair> streamed;
  Random64 rng(seed + 3);
  std::vector<Edge> batch;
  while (batch.size() < 40) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(60));
    const VertexId v = static_cast<VertexId>(rng.Uniform(60));
    if (u == v || !present.insert(Canonical(u, v)).second) continue;
    batch.push_back({u, v});
    streamed.insert(Canonical(u, v));
  }
  const MutationResult added =
      service.scheduler->ApplyDelta("g", DeltaKind::kAdd, batch);
  ASSERT_TRUE(added.status.ok());
  EXPECT_TRUE(added.approx_valid);
  EXPECT_DOUBLE_EQ(added.approx_triangles,
                   static_cast<double>(MirrorTriangles(streamed)));

  // A removal taints the sampling estimator; the exact path carries on.
  const MutationResult removed = service.scheduler->ApplyDelta(
      "g", DeltaKind::kRemove, std::vector<Edge>{batch[0]});
  ASSERT_TRUE(removed.status.ok());
  EXPECT_FALSE(removed.approx_valid);
  auto snap = service.registry->DeltaState("g");
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap->approx_valid);
}

TEST(StreamingService, ReloadDiscardsOverlayAndResetsEpochState) {
  Env* env = Env::Default();
  const CSRGraph g = DiamondGraph();
  ServiceFixture service(env, g, "reload");
  const uint64_t count0 = service.Count();

  const MutationResult added = service.scheduler->ApplyDelta(
      "g", DeltaKind::kAdd, std::vector<Edge>{{2, 3}});
  ASSERT_TRUE(added.status.ok());
  EXPECT_EQ(service.Count(), count0 + 2);

  // Reload from disk: the overlay is gone, the base is the truth again.
  ASSERT_TRUE(service.scheduler->LoadGraph("g", service.base_path).ok());
  auto snap = service.registry->DeltaState("g");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->triangle_delta, 0);
  EXPECT_EQ(snap->edges_added, 0u);
  EXPECT_FALSE(snap->base_known);  // new incarnation, no COUNT run yet
  EXPECT_EQ(service.Count(), count0);
  snap = service.registry->DeltaState("g");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->base_known);  // the post-reload COUNT re-recorded it
}

}  // namespace
}  // namespace opt
