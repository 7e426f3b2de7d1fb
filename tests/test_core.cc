// Tests for the OPT core: sinks, page-range views, iterator models, the
// ideal method, and the OPT runner in all its configurations, verified
// against the in-memory edge-iterator oracle.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/ideal.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/page_range_view.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "test_helpers.h"
#include "util/stopwatch.h"

namespace opt {
namespace {

CSRGraph PaperGraph() {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(2, 5);
  b.AddEdge(2, 6);
  b.AddEdge(2, 7);
  b.AddEdge(3, 4);
  b.AddEdge(3, 5);
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  return std::move(b).Build();
}

TEST(CountingSinkTest, CountsAcrossEmits) {
  CountingSink sink;
  const VertexId ws1[] = {3, 4};
  const VertexId ws2[] = {9};
  sink.Emit(0, 1, ws1);
  sink.Emit(2, 5, ws2);
  EXPECT_EQ(sink.count(), 3u);
  sink.Reset();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(VectorSinkTest, SortedOutput) {
  VectorSink sink;
  const VertexId ws1[] = {7};
  const VertexId ws2[] = {3, 5};
  sink.Emit(2, 4, ws1);
  sink.Emit(0, 1, ws2);
  auto out = sink.Sorted();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Triangle{0, 1, 3}));
  EXPECT_EQ(out[1], (Triangle{0, 1, 5}));
  EXPECT_EQ(out[2], (Triangle{2, 4, 7}));
}

TEST(PerVertexCountSinkTest, AttributesToAllThreeVertices) {
  PerVertexCountSink sink(6);
  const VertexId ws[] = {4, 5};
  sink.Emit(1, 2, ws);  // triangles (1,2,4) and (1,2,5)
  auto counts = sink.Counts();
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(counts[5], 1u);
  EXPECT_EQ(sink.total(), 2u);
}

TEST(ListingSinkTest, WritesNestedRepresentation) {
  const std::string path = testutil::ProcessTempDir() + "/listing_sink.bin";
  {
    ListingSink sink(Env::Default(), path, /*flush_threshold=*/32);
    const VertexId ws[] = {2, 3};
    sink.Emit(0, 1, ws);
    const VertexId ws2[] = {9};
    sink.Emit(5, 7, ws2);
    ASSERT_TRUE(sink.Finish().ok());
    EXPECT_EQ(sink.triangles_written(), 3u);
    // 2 records: (12 + 8) + (12 + 4) bytes.
    EXPECT_EQ(sink.bytes_written(), 36u);
  }
  auto size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 36u);
  std::remove(path.c_str());
}

TEST(TeeSinkTest, FansOut) {
  CountingSink a;
  VectorSink b;
  TeeSink tee({&a, &b});
  const VertexId ws[] = {5};
  tee.Emit(1, 2, ws);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(PageRangeViewTest, FullGraphView) {
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "view_full");
  std::vector<std::vector<char>> pages(store->num_pages());
  std::vector<const char*> data;
  for (uint32_t pid = 0; pid < store->num_pages(); ++pid) {
    pages[pid].resize(store->page_size());
    ASSERT_TRUE(store->file()->ReadPage(pid, pages[pid].data()).ok());
    data.push_back(pages[pid].data());
  }
  PageRangeView view;
  ASSERT_TRUE(view.Build(*store, 0, data).ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(view.HasFull(v));
    AdjacencyRef ref = view.Get(v);
    auto expected = g.Neighbors(v);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           ref.all.begin(), ref.all.end()));
    auto expected_succ = g.Successors(v);
    EXPECT_TRUE(std::equal(expected_succ.begin(), expected_succ.end(),
                           ref.succ().begin(), ref.succ().end()));
  }
}

TEST(PageRangeViewTest, PartialViewExcludesBoundaryRecords) {
  CSRGraph g = GenerateErdosRenyi(120, 900, 5);
  auto store = testutil::MakeStore(g, Env::Default(), "view_partial");
  ASSERT_GT(store->num_pages(), 3u);
  // Middle pages only.
  const uint32_t lo = 1, hi = store->num_pages() - 2;
  std::vector<std::vector<char>> pages;
  std::vector<const char*> data;
  for (uint32_t pid = lo; pid <= hi; ++pid) {
    pages.emplace_back(store->page_size());
    ASSERT_TRUE(store->file()->ReadPage(pid, pages.back().data()).ok());
  }
  for (auto& p : pages) data.push_back(p.data());
  PageRangeView view;
  ASSERT_TRUE(view.Build(*store, lo, data).ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const bool fully_inside = store->FirstPageOfVertex(v) >= lo &&
                              store->LastPageOfVertex(v) <= hi;
    EXPECT_EQ(view.HasFull(v), fully_inside) << "vertex " << v;
    if (fully_inside) {
      auto expected = g.Neighbors(v);
      AdjacencyRef ref = view.Get(v);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             ref.all.begin(), ref.all.end()));
    }
  }
}

TEST(IdealTest, MatchesOracleOnPaperGraph) {
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "ideal_paper");
  EdgeIteratorModel model;
  VectorSink sink;
  IdealStats stats;
  ASSERT_TRUE(RunIdeal(store.get(), model, &sink, 1, &stats).ok());
  EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(g));
  EXPECT_GT(stats.elapsed_seconds, 0.0);
}

TEST(IdealTest, VertexIteratorModelAgrees) {
  CSRGraph g = GenerateErdosRenyi(200, 2000, 77);
  auto store = testutil::MakeStore(g, Env::Default(), "ideal_vi");
  VertexIteratorModel model;
  VectorSink sink;
  ASSERT_TRUE(RunIdeal(store.get(), model, &sink, 1, nullptr).ok());
  EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(g));
}

struct OptConfig {
  const char* name;
  bool macro_overlap;
  bool morphing;
  uint32_t threads;
  bool vertex_iterator;
};

// Without this gtest prints the raw struct bytes, so the listed test names
// (and the CTest names discovered from them) would carry the address of
// `name` and change with every rebuild.
void PrintTo(const OptConfig& config, std::ostream* os) { *os << config.name; }

class OptRunnerTest : public ::testing::TestWithParam<OptConfig> {};

TEST_P(OptRunnerTest, MatchesOracleOnPaperGraph) {
  const OptConfig& config = GetParam();
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_paper", 64);
  EXPECT_GT(store->num_pages(), 1u);  // forces multiple iterations

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), 2u);
  options.m_ex = 2;
  options.macro_overlap = config.macro_overlap;
  options.thread_morphing = config.morphing;
  options.num_threads = config.threads;

  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  const IteratorModel* model =
      config.vertex_iterator ? static_cast<IteratorModel*>(&vi)
                             : static_cast<IteratorModel*>(&ei);
  OptRunner runner(store.get(), model, options);
  VectorSink sink;
  OptRunStats stats;
  Status s = runner.Run(&sink, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(g));
  EXPECT_GE(stats.iterations, 1u);
}

TEST_P(OptRunnerTest, MatchesOracleOnRandomGraph) {
  const OptConfig& config = GetParam();
  CSRGraph g = GenerateErdosRenyi(400, 4000, 1234);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_random");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = options.m_in;
  options.macro_overlap = config.macro_overlap;
  options.thread_morphing = config.morphing;
  options.num_threads = config.threads;

  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  const IteratorModel* model =
      config.vertex_iterator ? static_cast<IteratorModel*>(&vi)
                             : static_cast<IteratorModel*>(&ei);
  OptRunner runner(store.get(), model, options);
  CountingSink sink;
  OptRunStats stats;
  Status s = runner.Run(&sink, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
  EXPECT_GT(stats.iterations, 1u);  // buffer forces several iterations
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OptRunnerTest,
    ::testing::Values(
        OptConfig{"serial_ei", false, false, 1, false},
        OptConfig{"overlap_ei", true, false, 2, false},
        OptConfig{"overlap_morph_ei", true, true, 2, false},
        OptConfig{"overlap_morph4_ei", true, true, 4, false},
        OptConfig{"serial_vi", false, false, 1, true},
        OptConfig{"overlap_vi", true, false, 2, true},
        OptConfig{"overlap_morph_vi", true, true, 2, true},
        OptConfig{"overlap_morph4_vi", true, true, 4, true}),
    [](const ::testing::TestParamInfo<OptConfig>& info) {
      return std::string(info.param.name);
    });

TEST(OptRunnerTest, SpanningAdjacencyLists) {
  // Hub vertices whose lists span multiple 256-byte pages.
  GraphBuilder b;
  for (VertexId leaf = 2; leaf < 300; ++leaf) {
    b.AddEdge(0, leaf);
    b.AddEdge(1, leaf);
  }
  b.AddEdge(0, 1);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_spanning");
  ASSERT_GT(store->MaxRecordPages(), 1u);

  OptOptions options;
  options.m_in = store->MaxRecordPages() + 1;
  options.m_ex = store->MaxRecordPages() + 1;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  // Triangles: (0, 1, leaf) for each of the 298 leaves.
  EXPECT_EQ(sink.count(), 298u);
}

TEST(OptRunnerTest, RejectsTooSmallInternalArea) {
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 500; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_smallbuf");
  OptOptions options;
  options.m_in = 1;
  options.m_ex = 1;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  EXPECT_EQ(runner.Run(&sink, nullptr).code(),
            StatusCode::kResourceExhausted);
}

TEST(OptRunnerTest, RejectsZeroBuffers) {
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_zero");
  OptOptions options;
  options.m_in = 0;
  options.m_ex = 0;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  EXPECT_TRUE(runner.Run(&sink, nullptr).IsInvalidArgument());
}

TEST(OptRunnerTest, EmptyGraph) {
  CSRGraph g = GraphBuilder::FromEdges({});
  auto store = testutil::MakeStore(g, Env::Default(), "opt_empty");
  OptOptions options;
  options.m_in = 2;
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, TriangleFreeGraph) {
  // A path has no triangles.
  GraphBuilder b;
  for (VertexId v = 0; v + 1 < 200; ++v) b.AddEdge(v, v + 1);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_path");
  OptOptions options;
  options.m_in = 2;
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, PropagatesInjectedIoErrors) {
  FaultInjectionEnv fenv(Env::Default());
  CSRGraph g = GenerateErdosRenyi(300, 3000, 55);
  auto store = testutil::MakeStore(g, &fenv, "opt_fault");
  fenv.FailReadsAfter(static_cast<int64_t>(fenv.read_count()) + 10);

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 10);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  // Unrecoverable device faults surface as the typed Unavailable (the
  // degraded-query contract), not a raw IOError.
  EXPECT_TRUE(runner.Run(&sink, nullptr).IsUnavailable());
}

TEST(OptRunnerTest, CacheSavingsReported) {
  // With a tight buffer, the backward external-load order should make
  // some internal loads of iteration i+1 hit pages buffered at i.
  CSRGraph g = GenerateErdosRenyi(600, 9000, 99);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_cache");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
  EXPECT_GT(stats.internal_cache_hits + stats.external_cache_hits, 0u);
}

TEST(OptRunnerTest, BackwardLoadOrderSavesMoreReads) {
  // Algorithm 4's backward external order must yield at least as many
  // buffer-pool savings as ascending order, with identical results.
  CSRGraph g = GenerateErdosRenyi(600, 9000, 77);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_order");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  options.macro_overlap = false;
  options.thread_morphing = false;
  EdgeIteratorModel model;

  auto run = [&](bool backward) {
    options.backward_external_order = backward;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    OptRunStats stats;
    EXPECT_TRUE(runner.Run(&sink, &stats).ok());
    EXPECT_EQ(sink.count(), testutil::OracleCount(g));
    return stats.internal_cache_hits;
  };
  const uint64_t backward_hits = run(true);
  const uint64_t ascending_hits = run(false);
  EXPECT_GT(backward_hits, ascending_hits);
}

TEST(OptRunnerTest, StatsAccounting) {
  CSRGraph g = GenerateErdosRenyi(300, 3000, 42);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_stats");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  EXPECT_EQ(stats.per_iteration.size(), stats.iterations);
  // Internal loads cover every page at least once across iterations.
  EXPECT_GE(stats.internal_pages_read + stats.internal_cache_hits,
            store->num_pages());
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  EXPECT_GE(stats.ParallelFraction(), 0.0);
  EXPECT_LE(stats.ParallelFraction(), 1.0);
}

TEST(OptRunnerTest, MinimalExternalAreaStressesChaining) {
  // m_ex = 1 forces every external chunk through the L_later chain one
  // page at a time (maximum Algorithm 9 pressure).
  CSRGraph g = GenerateErdosRenyi(300, 3000, 13);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_mex1");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = 1;
  options.num_threads = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
}

TEST(OptRunnerTest, StarGraphHeavyCandidates) {
  // A star: hub connected to everyone, no triangles, but the hub's
  // record floods the candidate sets.
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 600; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_star");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), 2u);
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, IsolatedVerticesOnly) {
  // Vertices 0..9 exist because vertex 10-11 share the only edge.
  CSRGraph g = GraphBuilder::FromEdges({{10, 11}});
  auto store = testutil::MakeStore(g, Env::Default(), "opt_isolated");
  OptOptions options;
  options.m_in = 2;
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, VertexIteratorWithTinyExternalArea) {
  CSRGraph g = GenerateErdosRenyi(250, 2200, 19);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_vi_mex1");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = 1;
  options.num_threads = 3;
  VertexIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
}

TEST(OptRunnerTest, ThrottledEnvOverlapBeatsSyncAtDepth) {
  // With injected latency, OPT_serial at queue depth 8 must finish the
  // same work in less time than at depth 1 — the micro-level overlap.
  ThrottledEnv env(Env::Default(), 50);
  CSRGraph g = GenerateErdosRenyi(600, 9000, 23);
  auto store = testutil::MakeStore(g, &env, "opt_throttle");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = options.m_in;
  options.macro_overlap = false;
  options.thread_morphing = false;
  EdgeIteratorModel model;

  auto run_with_depth = [&](uint32_t depth) {
    options.io_queue_depth = depth;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    Stopwatch watch;
    EXPECT_TRUE(runner.Run(&sink, nullptr).ok());
    EXPECT_EQ(sink.count(), testutil::OracleCount(g));
    return watch.ElapsedSeconds();
  };
  const double slow = run_with_depth(1);
  const double fast = run_with_depth(8);
  EXPECT_LT(fast, slow);  // deep queue hides injected latency
}

TEST(OptRunnerTest, ListingSinkIntegration) {
  CSRGraph g = GenerateErdosRenyi(200, 1500, 7);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_listing");
  const std::string out_path = testutil::ProcessTempDir() + "/opt_listing_out.bin";
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink counter;
  {
    ListingSink listing(Env::Default(), out_path);
    TeeSink tee({&counter, &listing});
    ASSERT_TRUE(runner.Run(&tee, nullptr).ok());
    EXPECT_EQ(listing.triangles_written(), counter.count());
    EXPECT_GT(listing.bytes_written(), 0u);
  }
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace opt
