// Unit tests of the three framework plug points (InternalTriangles,
// CollectCandidates, ExternalTriangles) for both iterator models,
// replaying the paper's worked example of §3.2/Figure 2: the internal
// area holds n(a)..n(d); {e,f,g,h} become external candidates; the
// internal triangles are {abc, cdf} and the external ones {def, cfg,
// cgh}.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/page_range_view.h"
#include "core/triangle_sink.h"
#include "graph/builder.h"
#include "graph/intersect.h"
#include "storage/graph_store.h"
#include "test_helpers.h"

namespace opt {
namespace {

constexpr VertexId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6, H = 7;

CSRGraph PaperGraph() {
  GraphBuilder b;
  b.AddEdge(A, B);
  b.AddEdge(A, C);
  b.AddEdge(B, C);
  b.AddEdge(C, D);
  b.AddEdge(C, F);
  b.AddEdge(C, G);
  b.AddEdge(C, H);
  b.AddEdge(D, E);
  b.AddEdge(D, F);
  b.AddEdge(E, F);
  b.AddEdge(F, G);
  b.AddEdge(G, H);
  return std::move(b).Build();
}

/// Builds a PageRangeView over the full graph so both "internal" and
/// "external" adjacency can be pulled from it; the iteration plan
/// restricts residency to [v_lo, v_hi].
class ModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = PaperGraph();
    store_ = testutil::MakeStore(graph_, Env::Default(), "model_fixture",
                                 4096);
    pages_.resize(store_->num_pages());
    for (uint32_t pid = 0; pid < store_->num_pages(); ++pid) {
      pages_[pid].resize(store_->page_size());
      ASSERT_TRUE(store_->file()->ReadPage(pid, pages_[pid].data()).ok());
      data_.push_back(pages_[pid].data());
    }
    ASSERT_TRUE(view_.Build(*store_, 0, data_).ok());
    // The paper's iteration: n(a)..n(d) resident.
    plan_.v_lo = A;
    plan_.v_hi = D;
    plan_.pid_lo = 0;
    plan_.pid_hi = store_->num_pages() - 1;
  }

  Segment SegmentOf(VertexId v) {
    // Single page at 4096B: find v's segment in page 0.
    PageView page(data_[0], store_->page_size());
    for (uint32_t s = 0; s < page.num_slots(); ++s) {
      if (page.GetSegment(s).vertex == v) return page.GetSegment(s);
    }
    ADD_FAILURE() << "segment for vertex " << v << " not found";
    return {};
  }

  CSRGraph graph_;
  std::unique_ptr<GraphStore> store_;
  std::vector<std::vector<char>> pages_;
  std::vector<const char*> data_;
  PageRangeView view_;
  IterationPlan plan_;
};

TEST_F(ModelFixture, EdgeIteratorInternalTrianglesMatchPaper) {
  EdgeIteratorModel model;
  VectorSink sink;
  ModelScratch scratch;
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.InternalTriangles(view_, plan_, u, &sink, &scratch);
  }
  auto triangles = sink.Sorted();
  ASSERT_EQ(triangles.size(), 2u);
  EXPECT_EQ(triangles[0], (Triangle{A, B, C}));
  EXPECT_EQ(triangles[1], (Triangle{C, D, F}));
}

TEST_F(ModelFixture, EdgeIteratorCandidatesMatchPaper) {
  EdgeIteratorModel model;
  std::vector<VertexId> candidates;
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.CollectCandidates(plan_, SegmentOf(u), &candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // §3.2: "{e, f, g, h} is identified as V_ex".
  EXPECT_EQ(candidates, (std::vector<VertexId>{E, F, G, H}));
}

TEST_F(ModelFixture, EdgeIteratorExternalTrianglesMatchPaper) {
  EdgeIteratorModel model;
  VectorSink sink;
  ModelScratch scratch;
  for (VertexId v : {E, F, G, H}) {
    AdjacencyRef adj = view_.Get(v);
    model.ExternalTriangles(view_, plan_, v, adj, &sink, &scratch);
  }
  auto triangles = sink.Sorted();
  ASSERT_EQ(triangles.size(), 3u);
  EXPECT_EQ(triangles[0], (Triangle{C, F, G}));  // cfg
  EXPECT_EQ(triangles[1], (Triangle{C, G, H}));  // cgh
  EXPECT_EQ(triangles[2], (Triangle{D, E, F}));  // def
}

TEST_F(ModelFixture, VertexIteratorSplitsTheSameFiveTriangles) {
  // VI partitions triangles differently (by the residency of the two
  // lowest vertices), but internal + external must still total the
  // paper's five.
  VertexIteratorModel model;
  VectorSink internal, external;
  ModelScratch scratch;
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.InternalTriangles(view_, plan_, u, &internal, &scratch);
  }
  std::vector<VertexId> candidates;
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.CollectCandidates(plan_, SegmentOf(u), &candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (VertexId v : candidates) {
    model.ExternalTriangles(view_, plan_, v, view_.Get(v), &external,
                            &scratch);
  }
  std::vector<Triangle> all = internal.Sorted();
  auto ext = external.Sorted();
  all.insert(all.end(), ext.begin(), ext.end());
  std::sort(all.begin(), all.end());
  // With v_lo = 0 there are no lower-id candidates, so in this single
  // first iteration VI finds the triangles whose two lowest vertices
  // are resident.
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "no duplicates between internal and external paths";
  for (const Triangle& t : all) {
    EXPECT_LE(t.u, static_cast<VertexId>(D));  // anchored in residency
  }
}

TEST_F(ModelFixture, FullResidencyFindsEverythingInternally) {
  // When the whole graph is resident (plan covers all ids), the
  // internal path alone must produce all five triangles for both
  // models and the candidate sets must be empty.
  IterationPlan full;
  full.v_lo = 0;
  full.v_hi = graph_.num_vertices() - 1;
  full.pid_lo = 0;
  full.pid_hi = store_->num_pages() - 1;

  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  for (const IteratorModel* model :
       {static_cast<const IteratorModel*>(&ei),
        static_cast<const IteratorModel*>(&vi)}) {
    VectorSink sink;
    ModelScratch scratch;
    std::vector<VertexId> candidates;
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      model->InternalTriangles(view_, full, u, &sink, &scratch);
      model->CollectCandidates(full, SegmentOf(u), &candidates);
    }
    EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(graph_))
        << model->name();
    EXPECT_TRUE(candidates.empty()) << model->name();
  }
}

TEST(EdgeIteratorWedge, CliqueConsumesOnlyMatchingElements) {
  // On K_n every w in n_succ(v) is also in n_succ(u) past v, so a wedge
  // trimmed to n_succ(u)[past v] intersects two equal lists: each
  // element consumed is a match, and the run consumes exactly two per
  // triangle, 2 * C(n, 3). Untrimmed, n_succ(u) also brings the ids up
  // to v, which cannot match.
  constexpr VertexId kN = 40;
  GraphBuilder b;
  for (VertexId u = 0; u < kN; ++u) {
    for (VertexId v = u + 1; v < kN; ++v) b.AddEdge(u, v);
  }
  const CSRGraph g = std::move(b).Build();
  const uint64_t triangles = uint64_t{kN} * (kN - 1) * (kN - 2) / 6;
  auto store = testutil::MakeStore(g, Env::Default(), "clique", 256);
  const uint32_t mrp = store->MaxRecordPages();
  EdgeIteratorModel model;
  // A buffer that holds the whole graph (one iteration, all internal)
  // and one that forces several iterations (most wedges external).
  for (uint32_t m_in : {store->num_pages(), std::max(mrp, 2u)}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("m_in=" + std::to_string(m_in) +
                   " threads=" + std::to_string(threads));
      OptOptions options;
      options.m_in = m_in;
      options.m_ex = std::max(mrp, 2u);
      options.num_threads = threads;
      OptRunner runner(store.get(), &model, options);
      CountingSink sink;
      OptRunStats stats;
      ASSERT_TRUE(runner.Run(&sink, &stats).ok());
      EXPECT_EQ(sink.count(), triangles);
      if (m_in < store->num_pages()) {
        EXPECT_GT(stats.iterations, 1u);
      }
      EXPECT_EQ(stats.intersect.TotalElements(), 2 * triangles);
    }
  }
}

}  // namespace
}  // namespace opt
