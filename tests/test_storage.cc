// Unit tests for the storage engine: page codec, page file, buffer pool,
// async I/O engine, graph store, record scanner, fault injection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/record_scanner.h"
#include "test_helpers.h"
#include "util/stopwatch.h"

namespace opt {
namespace {

TEST(PageCodecTest, RoundtripSegments) {
  std::vector<char> buf(512);
  PageBuilder builder(buf.data(), 512, 7);
  const std::vector<VertexId> n0{1, 2, 3};
  const std::vector<VertexId> n1{0, 2};
  builder.AddSegment(10, 3, 0, n0);
  builder.AddSegment(11, 2, 0, n1);
  builder.Finish();

  PageView view(buf.data(), 512);
  ASSERT_TRUE(view.Validate(7).ok());
  EXPECT_EQ(view.page_id(), 7u);
  EXPECT_EQ(view.num_slots(), 2u);
  EXPECT_FALSE(view.first_segment_is_continuation());

  Segment s0 = view.GetSegment(0);
  EXPECT_EQ(s0.vertex, 10u);
  EXPECT_EQ(s0.total_degree, 3u);
  EXPECT_TRUE(std::equal(s0.neighbors.begin(), s0.neighbors.end(),
                         n0.begin(), n0.end()));
  Segment s1 = view.GetSegment(1);
  EXPECT_EQ(s1.vertex, 11u);
  EXPECT_EQ(s1.neighbors.size(), 2u);
}

TEST(PageCodecTest, ContinuationFlag) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 3);
  const std::vector<VertexId> tail{5, 6};
  builder.AddSegment(4, 10, 8, tail);  // offset 8 > 0: continuation
  builder.Finish();
  PageView view(buf.data(), 256);
  EXPECT_TRUE(view.first_segment_is_continuation());
  Segment seg = view.GetSegment(0);
  EXPECT_FALSE(seg.IsFirstSegment());
  EXPECT_TRUE(seg.IsLastSegment());
}

TEST(PageCodecTest, CrcDetectsCorruption) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 0);
  const std::vector<VertexId> n{1};
  builder.AddSegment(0, 1, 0, n);
  builder.Finish();
  ASSERT_TRUE(PageView(buf.data(), 256).Validate(0).ok());
  buf[100] ^= 0x40;
  EXPECT_TRUE(PageView(buf.data(), 256).Validate(0).IsCorruption());
}

TEST(PageCodecTest, ValidateChecksPageId) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 5);
  builder.Finish();
  EXPECT_TRUE(PageView(buf.data(), 256).Validate(6).IsCorruption());
}

TEST(PageCodecTest, CapacityShrinksAsSegmentsAdded) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 0);
  const uint32_t before = builder.FreeNeighborCapacity();
  std::vector<VertexId> n(10);
  builder.AddSegment(1, 10, 0, n);
  EXPECT_LT(builder.FreeNeighborCapacity(), before);
}

TEST(PageFileTest, WriteThenRead) {
  Env* env = Env::Default();
  const std::string path = testutil::ProcessTempDir() + "/pagefile_test.pages";
  auto writer = PageFileWriter::Create(env, path, 128);
  ASSERT_TRUE(writer.ok());
  std::vector<char> page(128);
  for (int i = 0; i < 5; ++i) {
    std::memset(page.data(), 'a' + i, page.size());
    ASSERT_TRUE((*writer)->Append(page.data()).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  auto file = PageFile::Open(env, path, 128);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->num_pages(), 5u);
  std::vector<char> out(128);
  ASSERT_TRUE((*file)->ReadPage(3, out.data()).ok());
  EXPECT_EQ(out[0], 'd');
  EXPECT_TRUE((*file)->ReadPage(5, out.data()).code() ==
              StatusCode::kOutOfRange);
  (void)env->DeleteFile(path);
}

TEST(PageFileTest, RejectsMisalignedFile) {
  Env* env = Env::Default();
  const std::string path = testutil::ProcessTempDir() + "/misaligned.pages";
  auto file = env->OpenWritable(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(Slice("short")).ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(PageFile::Open(env, path, 128).status().IsCorruption());
  (void)env->DeleteFile(path);
}

using FetchOutcome = BufferPool::FetchOutcome;

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(128, 4);
  auto miss = pool.Fetch(7);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->outcome, FetchOutcome::kMiss);
  // Not yet valid: a second fetch must not see a hit.
  auto inflight = pool.Fetch(7);
  ASSERT_TRUE(inflight.ok());
  EXPECT_EQ(inflight->outcome, FetchOutcome::kInFlight);
  EXPECT_EQ(inflight->frame, miss->frame);
  pool.Unpin(inflight->frame);
  pool.MarkValid(miss->frame);
  auto hit = pool.Fetch(7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->outcome, FetchOutcome::kHit);
  EXPECT_EQ(hit->frame, miss->frame);
  // Both later fetches saved a read: the in-flight one joins the
  // owner's I/O instead of issuing its own.
  EXPECT_EQ(pool.stats().hits.load(), 2u);
}

TEST(BufferPoolTest, EvictsColdestUnpinned) {
  BufferPool pool(128, 2);
  for (PageKey key : {PageKey{0}, PageKey{1}}) {
    auto f = pool.Fetch(key);
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(f->outcome, FetchOutcome::kMiss);
    pool.MarkValid(f->frame);
    pool.Unpin(f->frame);
  }
  // Touch page 0 so page 1 is coldest.
  auto touch = pool.Fetch(0);
  ASSERT_TRUE(touch.ok());
  EXPECT_EQ(touch->outcome, FetchOutcome::kHit);
  pool.Unpin(touch->frame);
  auto f2 = pool.Fetch(2);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2->outcome, FetchOutcome::kMiss);
  pool.MarkValid(f2->frame);
  pool.Unpin(f2->frame);
  auto survived = pool.Fetch(0);
  ASSERT_TRUE(survived.ok());
  EXPECT_EQ(survived->outcome, FetchOutcome::kHit);
  pool.Unpin(survived->frame);
  auto evicted = pool.Fetch(1);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->outcome, FetchOutcome::kMiss);
}

TEST(BufferPoolTest, FailsWhenAllPinned) {
  BufferPool pool(128, 2);
  auto f0 = pool.Fetch(0);
  auto f1 = pool.Fetch(1);
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(f1.ok());
  auto f2 = pool.Fetch(2);
  EXPECT_EQ(f2.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, ClearDropsUnpinnedOnly) {
  BufferPool pool(128, 4);
  auto pinned = pool.Fetch(1);
  auto unpinned = pool.Fetch(2);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(unpinned.ok());
  pool.MarkValid(pinned->frame);
  pool.MarkValid(unpinned->frame);
  pool.Unpin(unpinned->frame);
  pool.Clear();
  auto dropped = pool.Fetch(2);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->outcome, FetchOutcome::kMiss);
  auto kept = pool.Fetch(1);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->outcome, FetchOutcome::kHit);
}

class AsyncIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    path_ = testutil::ProcessTempDir() + "/async_io_test.pages";
    auto writer = PageFileWriter::Create(env_, path_, 128);
    ASSERT_TRUE(writer.ok());
    std::vector<char> page(128);
    for (int i = 0; i < 16; ++i) {
      std::memset(page.data(), i, page.size());
      ASSERT_TRUE((*writer)->Append(page.data()).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
    auto file = PageFile::Open(env_, path_, 128);
    ASSERT_TRUE(file.ok());
    file_ = std::move(file.value());
  }
  void TearDown() override { (void)env_->DeleteFile(path_); }

  Env* env_;
  std::string path_;
  std::unique_ptr<PageFile> file_;
};

TEST_F(AsyncIoTest, CompletionCallbackRunsOnDrainer) {
  AsyncIoEngine engine(2);
  BufferPool pool(128, 16);
  CompletionQueue queue;
  CompletionGroup group;
  std::atomic<int> verified{0};
  for (uint32_t pid = 0; pid < 16; ++pid) {
    auto fetched = pool.Fetch(pid);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->outcome, FetchOutcome::kMiss);
    Frame* f = fetched->frame;
    group.Add();
    ReadRequest req;
    req.file = file_.get();
    req.first_pid = pid;
    req.page_count = 1;
    req.frames = {f};
    req.completion_queue = &queue;
    req.callback = [&, pid, f](const Status& s) {
      // EXPECT (not ASSERT): an early return here would skip Done() and
      // hang the drain loop below instead of failing the test.
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (s.ok()) {
        EXPECT_EQ(static_cast<unsigned char>(f->data[0]), pid);
        verified.fetch_add(1);
      }
      group.Done();
    };
    engine.Submit(std::move(req));
  }
  while (!group.Finished()) {
    if (auto task = queue.PopFor(1000)) (*task)();
  }
  EXPECT_EQ(verified.load(), 16);
  EXPECT_EQ(engine.stats().pages_read.load(), 16u);
}

TEST_F(AsyncIoTest, CallbackCanChainSubmissions) {
  // Mirrors Algorithm 9: each completion submits the next request.
  AsyncIoEngine engine(1);
  BufferPool pool(128, 4);
  CompletionQueue queue;
  CompletionGroup group;
  std::atomic<uint32_t> next{1};
  std::atomic<int> completed{0};

  std::function<void(uint32_t)> submit = [&](uint32_t pid) {
    auto fetched = pool.Fetch(pid);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->outcome, FetchOutcome::kMiss);
    Frame* f = fetched->frame;
    ReadRequest req;
    req.file = file_.get();
    req.first_pid = pid;
    req.page_count = 1;
    req.frames = {f};
    req.completion_queue = &queue;
    req.callback = [&, f](const Status& s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      pool.Unpin(f);
      completed.fetch_add(1);
      const uint32_t n = next.fetch_add(1);
      if (n < 8) {
        group.Add();
        submit(n);
      }
      group.Done();
    };
    engine.Submit(std::move(req));
  };
  group.Add();
  submit(0);
  while (!group.Finished()) {
    if (auto task = queue.PopFor(1000)) (*task)();
  }
  EXPECT_EQ(completed.load(), 8);
}

TEST_F(AsyncIoTest, ReportsReadErrors) {
  FaultInjectionEnv fenv(env_);
  auto file = PageFile::Open(&fenv, path_, 128);
  ASSERT_TRUE(file.ok());
  fenv.FailReadsAfter(0);  // every read fails
  AsyncIoEngine engine(1);
  BufferPool pool(128, 2);
  CompletionQueue queue;
  CompletionGroup group;
  Status seen;
  auto fetched = pool.Fetch(0);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->outcome, FetchOutcome::kMiss);
  group.Add();
  ReadRequest req;
  req.file = file->get();
  req.first_pid = 0;
  req.page_count = 1;
  req.frames = {fetched->frame};
  req.completion_queue = &queue;
  req.callback = [&](const Status& s) {
    seen = s;
    group.Done();
  };
  engine.Submit(std::move(req));
  while (!group.Finished()) {
    if (auto task = queue.PopFor(1000)) (*task)();
  }
  EXPECT_TRUE(seen.IsIOError());
  EXPECT_EQ(engine.stats().read_errors.load(), 1u);
}

TEST(GraphStoreWriterTest, GapsBecomeEmptyRecords) {
  const std::string base = testutil::ProcessTempDir() + "/writer_gaps";
  GraphStoreOptions options;
  options.page_size = 256;
  auto writer = GraphStoreWriter::Create(Env::Default(), base, options);
  ASSERT_TRUE(writer.ok());
  const VertexId n2[] = {0, 7};
  ASSERT_TRUE((*writer)->AddRecord(2, std::span<const VertexId>(n2)).ok());
  const VertexId n7[] = {2};
  ASSERT_TRUE((*writer)->AddRecord(7, std::span<const VertexId>(n7)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto store = GraphStore::Open(Env::Default(), base);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_vertices(), 8u);
  std::vector<size_t> degrees(8, 99);
  ASSERT_TRUE(ScanRecords(**store, 0, (*store)->num_pages() - 1,
                          [&](VertexId v, std::span<const VertexId> nb) {
                            degrees[v] = nb.size();
                          })
                  .ok());
  EXPECT_EQ(degrees, (std::vector<size_t>{0, 0, 2, 0, 0, 0, 0, 1}));
}

TEST(GraphStoreWriterTest, RejectsOutOfOrderRecords) {
  const std::string base = testutil::ProcessTempDir() + "/writer_order";
  auto writer = GraphStoreWriter::Create(Env::Default(), base, {});
  ASSERT_TRUE(writer.ok());
  const VertexId nbrs[] = {1};
  ASSERT_TRUE(
      (*writer)->AddRecord(5, std::span<const VertexId>(nbrs)).ok());
  EXPECT_TRUE((*writer)
                  ->AddRecord(3, std::span<const VertexId>(nbrs))
                  .IsInvalidArgument());
  ASSERT_TRUE((*writer)->Finish().ok());
}

TEST(GraphStoreWriterTest, FinishIsIdempotentAndSealsWriter) {
  const std::string base = testutil::ProcessTempDir() + "/writer_finish";
  auto writer = GraphStoreWriter::Create(Env::Default(), base, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_TRUE((*writer)->Finish().ok());  // idempotent
  const VertexId nbrs[] = {1};
  EXPECT_TRUE((*writer)
                  ->AddRecord(0, std::span<const VertexId>(nbrs))
                  .IsInvalidArgument());
}

TEST(GraphStoreWriterTest, RejectsTinyPageSize) {
  GraphStoreOptions options;
  options.page_size = 8;
  EXPECT_FALSE(GraphStoreWriter::Create(Env::Default(),
                                        testutil::ProcessTempDir() + "/writer_tiny",
                                        options)
                   .ok());
}

TEST(GraphStoreTest, RoundtripSmallGraph) {
  CSRGraph g = GraphBuilder::FromEdges(
      {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  auto store = testutil::MakeStore(g, Env::Default(), "roundtrip");
  EXPECT_EQ(store->num_vertices(), 5u);
  EXPECT_EQ(store->num_directed_edges(), 10u);

  // Scan back and compare adjacency lists.
  std::vector<std::vector<VertexId>> lists(5);
  ASSERT_TRUE(ScanRecords(*store, 0, store->num_pages() - 1,
                          [&](VertexId v, std::span<const VertexId> n) {
                            lists[v].assign(n.begin(), n.end());
                          })
                  .ok());
  for (VertexId v = 0; v < 5; ++v) {
    auto expected = g.Neighbors(v);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           lists[v].begin(), lists[v].end()))
        << "vertex " << v;
  }
}

TEST(GraphStoreTest, SpanningRecords) {
  // One hub with 200 neighbors on 256-byte pages: must span pages.
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 200; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "spanning");
  EXPECT_GT(store->MaxRecordPages(), 1u);
  EXPECT_GT(store->LastPageOfVertex(0), store->FirstPageOfVertex(0));

  std::vector<VertexId> hub_list;
  ASSERT_TRUE(ScanRecords(*store, 0, store->num_pages() - 1,
                          [&](VertexId v, std::span<const VertexId> n) {
                            if (v == 0) hub_list.assign(n.begin(), n.end());
                          })
                  .ok());
  ASSERT_EQ(hub_list.size(), 200u);
  for (VertexId i = 0; i < 200; ++i) EXPECT_EQ(hub_list[i], i + 1);
}

TEST(GraphStoreTest, PlanIterationCoversAllVertices) {
  CSRGraph g = GenerateErdosRenyi(300, 2000, 17);
  auto store = testutil::MakeStore(g, Env::Default(), "plan");
  const uint32_t m_in = std::max(2u, store->num_pages() / 5);
  VertexId v_start = 0;
  VertexId covered = 0;
  while (v_start < store->num_vertices()) {
    auto plan = store->PlanIteration(v_start, m_in);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->v_lo, v_start);
    EXPECT_GE(plan->v_hi, plan->v_lo);
    EXPECT_LE(plan->num_pages(), m_in);
    covered += plan->v_hi - plan->v_lo + 1;
    v_start = plan->v_hi + 1;
  }
  EXPECT_EQ(covered, store->num_vertices());
}

TEST(GraphStoreTest, PlanFailsWhenRecordTooLarge) {
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 500; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "too_large");
  ASSERT_GT(store->MaxRecordPages(), 1u);
  auto plan = store->PlanIteration(0, 1);
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(GraphStoreTest, OpenRejectsMissingMeta) {
  auto result = GraphStore::Open(Env::Default(),
                                 testutil::ProcessTempDir() + "/nonexistent_store");
  EXPECT_FALSE(result.ok());
}

TEST(GraphStoreTest, VertexPageDirectoryConsistent) {
  CSRGraph g = GenerateErdosRenyi(200, 1500, 23);
  auto store = testutil::MakeStore(g, Env::Default(), "directory");
  for (VertexId v = 0; v + 1 < store->num_vertices(); ++v) {
    EXPECT_LE(store->FirstPageOfVertex(v), store->LastPageOfVertex(v));
    EXPECT_LE(store->LastPageOfVertex(v), store->FirstPageOfVertex(v + 1) +
                                              0u);
    EXPECT_GE(store->FirstPageOfVertex(v + 1), store->LastPageOfVertex(v));
  }
}

TEST(RecordScannerTest, PartialRangeSkipsBoundaryRecords) {
  CSRGraph g = GenerateErdosRenyi(100, 800, 31);
  auto store = testutil::MakeStore(g, Env::Default(), "partial_scan");
  ASSERT_GT(store->num_pages(), 2u);
  const uint32_t mid = store->num_pages() / 2;
  std::set<VertexId> seen;
  ASSERT_TRUE(ScanRecords(*store, mid, store->num_pages() - 1,
                          [&](VertexId v, std::span<const VertexId>) {
                            EXPECT_TRUE(seen.insert(v).second);
                          })
                  .ok());
  // Every seen vertex must start at or after page `mid`.
  for (VertexId v : seen) EXPECT_GE(store->FirstPageOfVertex(v), mid);
}

TEST(ThrottledEnvTest, CountsAndDelays) {
  ThrottledEnv env(Env::Default(), 100);
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}});
  auto store = testutil::MakeStore(g, &env, "throttled");
  std::vector<char> page(store->page_size());
  Stopwatch watch;
  ASSERT_TRUE(store->file()->ReadPage(0, page.data()).ok());
  EXPECT_GE(watch.ElapsedMicros(), 90);
  EXPECT_GE(env.stats().reads.load(), 1u);
  EXPECT_GT(env.stats().write_bytes.load(), 0u);  // store creation
}

TEST(FaultInjectionEnvTest, FailsAfterThreshold) {
  FaultInjectionEnv env(Env::Default());
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}});
  auto store = testutil::MakeStore(g, &env, "faulty");
  env.FailReadsAfter(static_cast<int64_t>(env.read_count()) + 1);
  std::vector<char> page(store->page_size());
  EXPECT_TRUE(store->file()->ReadPage(0, page.data()).ok());
  EXPECT_TRUE(store->file()->ReadPage(0, page.data()).IsIOError());
}

}  // namespace
}  // namespace opt
