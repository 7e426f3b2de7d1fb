// Tests of the benchmark's own code: the oracle, the Env probe, the
// phase split of a run's wall time, the open-loop schedule and the
// tracer. Build with -DPERFBENCH_TESTS=ON and run perfbench_tests from
// the build directory; scratch files go under the working directory.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/inmemory.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "env_probe.h"
#include "gen/holme_kim.h"
#include "graph/reorder.h"
#include "oracle.h"
#include "schedule.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string ScratchDir() {
  static const std::string dir = [] {
    std::string d = "perfbench_test_" + std::to_string(::getpid());
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

opt::CSRGraph SmallGraph(uint64_t seed = 7) {
  opt::HolmeKimOptions o;
  o.num_vertices = 600;
  o.edges_per_vertex = 4;
  o.triad_probability = 0.6;
  o.seed = seed;
  return opt::DegreeOrder(opt::GenerateHolmeKim(o)).graph;
}

std::unique_ptr<opt::GraphStore> MakeStore(const opt::CSRGraph& g,
                                           opt::Env* env,
                                           const std::string& name) {
  const std::string base = ScratchDir() + "/" + name;
  opt::GraphStoreOptions options;
  options.page_size = 256;  // many pages, so the runs iterate
  EXPECT_TRUE(opt::GraphStore::Create(g, env, base, options).ok());
  auto store = opt::GraphStore::Open(env, base);
  EXPECT_TRUE(store.ok());
  return std::move(store.value());
}

opt::OptOptions SmallBuffer(const opt::GraphStore& store) {
  opt::OptOptions options;
  options.m_in = std::max(4u, store.MaxRecordPages());
  options.m_ex = 4;
  options.num_threads = 2;
  return options;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Oracle, AgreesWithBruteForce) {
  const opt::CSRGraph g = SmallGraph();
  const Truth truth = ComputeTruth(g, 3);
  EXPECT_EQ(truth.triangles, opt::BruteForceTriangleCount(g));
  EXPECT_GT(truth.triangles, 0u);
  EXPECT_EQ(ComputeTruth(g, 1).checksum, truth.checksum);
}

TEST(Oracle, RejectsDoctoredCount) {
  const Truth truth = ComputeTruth(SmallGraph(), 2);
  EXPECT_TRUE(CheckCount(truth, truth.triangles).ok());
  EXPECT_FALSE(CheckCount(truth, truth.triangles + 1).ok());
  EXPECT_FALSE(CheckCount(truth, truth.triangles - 1).ok());
}

TEST(Oracle, RejectsDoctoredListing) {
  const opt::CSRGraph g = SmallGraph();
  const Truth truth = ComputeTruth(g, 2);
  opt::Env* env = opt::Env::Default();
  const std::string path = ScratchDir() + "/listing.bin";
  {
    opt::ListingSink sink(env, path);
    opt::EdgeIteratorInMemory(g, &sink);
    ASSERT_TRUE(sink.Finish().ok());
  }
  ASSERT_TRUE(CheckListing(env, path, truth).ok());
  const std::string good = ReadFile(path);
  ASSERT_GE(good.size(), 16u);

  // Same count, one triangle changed: the last w of the file moves to
  // another vertex, which only the checksum can notice.
  std::string changed = good;
  uint32_t w = 0;
  std::memcpy(&w, changed.data() + changed.size() - 4, 4);
  w += 1;
  std::memcpy(changed.data() + changed.size() - 4, &w, 4);
  WriteFile(path, changed);
  EXPECT_FALSE(CheckListing(env, path, truth).ok());

  // A whole record dropped: the file is cut at the start of its last
  // record, so framing holds and the count comes up short.
  size_t offset = 0;
  size_t last_record = 0;
  while (offset + 12 <= good.size()) {
    uint32_t k = 0;
    std::memcpy(&k, good.data() + offset + 8, 4);
    last_record = offset;
    offset += 12 + 4 * static_cast<size_t>(k);
  }
  WriteFile(path, good.substr(0, last_record));
  EXPECT_FALSE(CheckListing(env, path, truth).ok());

  WriteFile(path, good);
  EXPECT_TRUE(CheckListing(env, path, truth).ok());
}

TEST(Oracle, ToggleStatesAndDeltas) {
  const opt::CSRGraph g = SmallGraph();
  const ToggleTruth truth = ComputeToggle(g, 8, 3, 2);
  ASSERT_EQ(truth.batch.size(), 8u);
  EXPECT_GT(truth.delta, 0);
  for (const opt::Edge& e : truth.batch) EXPECT_FALSE(g.HasEdge(e.first, e.second));
  EXPECT_TRUE(CheckToggleCount(truth, truth.t0).ok());
  EXPECT_TRUE(CheckToggleCount(truth, truth.t0 + truth.delta).ok());
  EXPECT_FALSE(CheckToggleCount(truth, truth.t0 + 1).ok());
  EXPECT_TRUE(CheckToggleDelta(truth, true, truth.delta).ok());
  EXPECT_TRUE(CheckToggleDelta(truth, false, -truth.delta).ok());
  EXPECT_FALSE(CheckToggleDelta(truth, true, -truth.delta).ok());
}

TEST(EnvProbe, CountsEqualThrottledEnvStats) {
  const opt::CSRGraph g = SmallGraph();
  opt::ThrottledEnv device(opt::Env::Default(), 0, 0);
  ProbeEnv probe(&device);
  auto store = MakeStore(g, &probe, "probe");
  opt::EdgeIteratorModel model;
  opt::OptRunner runner(store.get(), &model, SmallBuffer(*store));
  const std::string path = ScratchDir() + "/probe_listing.bin";
  {
    opt::ListingSink sink(&probe, path, 4096);
    ASSERT_TRUE(runner.Run(&sink).ok());
    ASSERT_TRUE(sink.Finish().ok());
  }
  const ProbeCounts counts = probe.Snapshot();
  EXPECT_GT(counts.read_calls, 0u);
  EXPECT_GT(counts.write_calls, 0u);
  EXPECT_EQ(counts.read_calls, device.stats().reads.load());
  EXPECT_EQ(counts.read_bytes, device.stats().read_bytes.load());
  EXPECT_EQ(counts.write_calls, device.stats().writes.load());
  EXPECT_EQ(counts.write_bytes, device.stats().write_bytes.load());
}

TEST(PhaseSplit, AgreesWithRunnerElapsed) {
  const opt::CSRGraph g = SmallGraph();
  auto store = MakeStore(g, opt::Env::Default(), "split");
  opt::EdgeIteratorModel model;
  opt::OptRunner runner(store.get(), &model, SmallBuffer(*store));
  opt::CountingSink sink;
  opt::OptRunStats stats;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_GT(stats.iterations, 1u);
  const PhaseSplit split = SplitRunWall(stats, wall);
  EXPECT_GT(split.phase_a_s, 0);
  EXPECT_GT(split.phase_c_s, 0);
  // Phases A and C fit inside the runner's own elapsed time, and the
  // rest of the benchmark's wall is the runner's rest plus the call.
  EXPECT_LE(split.phase_a_s + split.phase_c_s, stats.elapsed_seconds);
  EXPECT_GE(wall, stats.elapsed_seconds);
  EXPECT_NEAR(split.other_s,
              stats.elapsed_seconds - split.phase_a_s - split.phase_c_s,
              0.005);
}

TEST(Schedule, SameSeedSameSchedule) {
  MixSpec mix;
  mix.rate_per_s = 200;
  const auto a = MakeSchedule(mix, 5.0, 42);
  const auto b = MakeSchedule(mix, 5.0, 42);
  const auto c = MakeSchedule(mix, 5.0, 43);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].op, b[i].op);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_s != c[i].due_s || a[i].op != c[i].op;
  }
  EXPECT_TRUE(differs);
  // ~1000 arrivals: the mix shares hold to a few percent.
  size_t mutations = 0;
  for (const Arrival& x : a) mutations += x.op == Op::kMutate;
  EXPECT_NEAR(static_cast<double>(mutations) / a.size(), 0.3, 0.05);
  EXPECT_LT(a.back().due_s, 5.0);
}

TEST(Tracer, SelfTimeExcludesSameThreadChildren) {
  Tracer tracer;
  Tracer::SetActive(&tracer);
  {
    Span outer("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::thread([] { Span other("other"); }).join();
  Tracer::SetActive(nullptr);
  auto totals = tracer.Totals();
  ASSERT_EQ(totals["outer"].count, 1u);
  EXPECT_NEAR(totals["outer"].self_s,
              totals["outer"].busy_s - totals["inner"].busy_s, 1e-9);
  EXPECT_GE(totals["inner"].busy_s, 0.02);
  EXPECT_EQ(totals["other"].count, 1u);
  const std::string path = ScratchDir() + "/trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  auto parsed = opt::JsonValue::Parse(ReadFile(path));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("traceEvents").items().size(), 3u);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9);
  EXPECT_EQ(Percentile({}, 0.5), 0);
}

}  // namespace
}  // namespace perfbench
