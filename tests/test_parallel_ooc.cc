// Tests for the parallel out-of-core path: how phase B cuts external
// chunks against the buffer, how their shared boundary pages are
// accounted, and the striped ListingSink and CountingSink under
// concurrent emitters. The suite carries the sanitize label, so the
// sanitize and tsan presets run the concurrent paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "core/iterator_model.h"
#include "core/listing_reader.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/rmat.h"
#include "graph/reorder.h"
#include "storage/buffer_pool.h"
#include "util/random.h"
#include "test_helpers.h"

namespace opt {
namespace {

constexpr uint32_t kThreads = 4;

/// A skewed R-MAT relabelled by ascending degree: the hubs sit at the
/// top of the id range, so their multi-page records chain across page
/// boundaries at the tail of the store.
CSRGraph HubTailGraph() {
  RmatOptions o;
  o.scale = 11;
  o.edge_factor = 16;
  o.a = 0.57;
  o.b = 0.19;
  o.c = 0.19;
  o.d = 0.05;
  o.seed = 5;
  return DegreeOrder(GenerateRmat(o)).graph;
}

/// The distinct pages the edge-iterator model's external candidates of
/// [v_lo, v_hi] cover: every neighbour above v_hi of a resident vertex.
uint64_t DistinctExternalPages(const CSRGraph& g, const GraphStore& store,
                               VertexId v_lo, VertexId v_hi) {
  std::set<uint32_t> pages;
  for (VertexId u = v_lo; u <= v_hi; ++u) {
    for (VertexId w : g.Neighbors(u)) {
      if (w <= v_hi) continue;
      for (uint32_t p = store.FirstPageOfVertex(w);
           p <= store.LastPageOfVertex(w); ++p) {
        pages.insert(p);
      }
    }
  }
  return pages.size();
}

OptOptions TightOptions(const GraphStore& store) {
  OptOptions options;
  options.m_in = std::max(store.MaxRecordPages(), store.num_pages() / 6);
  // m_ex / threads stays below the longest record, so the chunk cap is
  // MaxRecordPages.
  options.m_ex = 2 * store.MaxRecordPages();
  options.num_threads = kThreads;
  return options;
}

TEST(ExternalChunks, SharedPoolStaysWithinBufferAndTailSplitsAcrossWorkers) {
  const CSRGraph g = HubTailGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "hub_tail", 1024);
  const uint32_t mrp = store->MaxRecordPages();
  ASSERT_GT(mrp, 2u);
  BufferPool pool(store->page_size(), 1);
  OptOptions options = TightOptions(*store);
  options.shared_pool = &pool;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));

  EXPECT_LE(pool.num_frames(), options.m_in + options.m_ex + mrp + 2);
  bool saw_wide_iteration = false;
  for (const IterationStats& iter : stats.per_iteration) {
    const uint64_t pages =
        DistinctExternalPages(g, *store, iter.v_lo, iter.v_hi);
    if (pages < uint64_t{kThreads} * mrp) continue;
    saw_wide_iteration = true;
    EXPECT_GE(iter.chunks, kThreads)
        << "iteration [" << iter.v_lo << ", " << iter.v_hi << "] covers "
        << pages << " external pages";
  }
  EXPECT_TRUE(saw_wide_iteration);
}

TEST(ExternalChunks, SharedBoundaryPageCountsOncePerIteration) {
  const CSRGraph g = HubTailGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "hub_tail_dex", 1024);
  EdgeIteratorModel model;
  for (bool backward : {true, false}) {
    SCOPED_TRACE(backward ? "backward" : "ascending");
    // A pool holding every page evicts nothing, so no page is read twice
    // and each distinct page is either read or found once.
    BufferPool pool(store->page_size(), store->num_pages());
    OptOptions options = TightOptions(*store);
    options.shared_pool = &pool;
    options.backward_external_order = backward;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    OptRunStats stats;
    ASSERT_TRUE(runner.Run(&sink, &stats).ok());
    EXPECT_EQ(sink.count(), testutil::OracleCount(g));
    for (const IterationStats& iter : stats.per_iteration) {
      EXPECT_EQ(iter.external_pages + iter.external_cache_hits,
                DistinctExternalPages(g, *store, iter.v_lo, iter.v_hi))
          << "iteration [" << iter.v_lo << ", " << iter.v_hi << "] with "
          << iter.chunks << " chunks";
    }
  }
}

class ListingSinkConcurrency : public ::testing::TestWithParam<bool> {};

TEST_P(ListingSinkConcurrency, ConcurrentEmitsReadBackAsTheSameMultiset) {
  constexpr int kEmitters = 6;
  constexpr int kRecordsPerEmitter = 3000;
  const bool asynchronous = GetParam();
  const std::string path = testutil::ProcessTempDir() + "/concurrent_" +
                           (asynchronous ? "async" : "sync") + ".bin";
  VectorSink expected;
  uint64_t expected_bytes = 0;
  for (int r = 0; r < kRecordsPerEmitter; ++r) {
    expected_bytes += 12 + 4 * (1 + r % 5);
  }
  expected_bytes *= kEmitters;
  {
    // A threshold of a few records makes every emitter flush, and wait
    // for spare blocks, thousands of times.
    ListingSink sink(Env::Default(), path, /*flush_threshold=*/96,
                     asynchronous);
    std::vector<std::thread> emitters;
    for (int t = 0; t < kEmitters; ++t) {
      emitters.emplace_back([&, t] {
        std::vector<VertexId> ws;
        for (int r = 0; r < kRecordsPerEmitter; ++r) {
          // Emitters pair up on the same records, so the listing holds
          // duplicates that a set comparison would hide.
          const VertexId u = static_cast<VertexId>(r);
          const VertexId v = static_cast<VertexId>(100000 + (t / 2) * 10000);
          ws.clear();
          for (int k = 0; k <= r % 5; ++k) {
            ws.push_back(v + 1 + static_cast<VertexId>(k));
          }
          sink.Emit(u, v, ws);
          expected.Emit(u, v, ws);
        }
      });
    }
    for (auto& e : emitters) e.join();
    ASSERT_TRUE(sink.Finish().ok());
    EXPECT_EQ(sink.triangles_written(), expected.size());
    EXPECT_EQ(sink.bytes_written(), expected_bytes);
  }
  auto size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, expected_bytes);
  auto loaded = ReadListingTriangles(Env::Default(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, expected.Sorted());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Modes, ListingSinkConcurrency, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Asynchronous"
                                                         : "Synchronous");
                         });

TEST(CountingSinkConcurrency, StripedCountIsExactAndResets) {
  constexpr int kEmitters = 8;
  constexpr int kSpansPerEmitter = 4000;
  const std::vector<VertexId> ws(64, 1);
  CountingSink sink;
  // Two rounds: the second round's threads take over the stripe slots
  // the first round's threads released on exit.
  for (int round = 0; round < 2; ++round) {
    std::atomic<uint64_t> expected{0};
    std::vector<std::thread> emitters;
    for (int t = 0; t < kEmitters; ++t) {
      emitters.emplace_back([&, t] {
        Random64 rng(static_cast<uint64_t>(round * kEmitters + t + 1));
        uint64_t emitted = 0;
        for (int r = 0; r < kSpansPerEmitter; ++r) {
          const size_t len = rng.Uniform(ws.size() + 1);
          sink.Emit(0, 1, std::span<const VertexId>(ws.data(), len));
          emitted += len;
        }
        expected.fetch_add(emitted);
      });
    }
    for (auto& e : emitters) e.join();
    EXPECT_EQ(sink.count(), expected.load()) << "round " << round;
    sink.Reset();
    EXPECT_EQ(sink.count(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace opt
