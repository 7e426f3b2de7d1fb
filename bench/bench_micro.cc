// Micro-benchmarks (google-benchmark): intersection kernels (one
// benchmark per kernel variant, with elements/sec and bytes/sec from
// the per-kernel dispatch counters), whole-graph triangle counts on
// skewed graphs (BM_HybridTriangles — run with
// --benchmark_filter=BM_Hybrid --benchmark_format=json for the CI
// artifact), page codec, CRC, buffer pool, async engine — the substrate
// costs behind the macro experiments.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/intersect.h"
#include "obs/perf_counters.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/crc32.h"
#include "util/random.h"

namespace opt {
namespace {

std::vector<VertexId> MakeSorted(size_t n, uint64_t seed) {
  Random64 rng(seed);
  std::vector<VertexId> out;
  out.reserve(n);
  VertexId v = 0;
  for (size_t i = 0; i < n; ++i) {
    v += 1 + static_cast<VertexId>(rng.Uniform(8));
    out.push_back(v);
  }
  return out;
}

/// Sets elements/sec and bytes/sec on `state` from the per-kernel
/// dispatch counters (not wall-clock math), so `--benchmark_format=json`
/// output (BENCH_*.json) carries directly comparable kernel throughput.
/// The PMU delta adds the per-element hardware view (cycles, LLC misses)
/// that tells a memory-bound kernel from a compute-bound one — columns
/// appear only when the backend delivers the event, so a missing
/// llc_miss_per_elem means "no PMU", not "no misses".
void ReportFromCounters(benchmark::State& state,
                        const IntersectCounters& before,
                        const PerfReading& perf_before) {
  const IntersectCounters delta =
      IntersectCounters::Delta(SnapshotIntersectCounters(), before);
  const PerfReading perf =
      PerfReading::Delta(ReadThreadPerfCounters(), perf_before);
  state.SetItemsProcessed(static_cast<int64_t>(delta.TotalElements()));
  state.SetBytesProcessed(
      static_cast<int64_t>(delta.TotalElements() * sizeof(VertexId)));
  state.counters["intersect_calls"] = benchmark::Counter(
      static_cast<double>(delta.TotalCalls()), benchmark::Counter::kIsRate);
  const double elems = static_cast<double>(delta.TotalElements());
  if (perf.task_clock_ns > 0) {
    state.counters["task_clock_ms"] =
        benchmark::Counter(static_cast<double>(perf.task_clock_ns) * 1e-6);
  }
  if (perf.cycles > 0 && elems > 0) {
    state.counters["cycles_per_elem"] =
        benchmark::Counter(static_cast<double>(perf.cycles) / elems);
    state.counters["ipc"] = benchmark::Counter(perf.Ipc());
  }
  if (perf.llc_loads > 0 && elems > 0) {
    state.counters["llc_miss_per_elem"] =
        benchmark::Counter(static_cast<double>(perf.llc_misses) / elems);
    state.counters["llc_miss_rate"] = benchmark::Counter(perf.LlcMissRate());
  }
  if (perf.time_enabled_ns > 0) {
    state.counters["perf_mux"] = benchmark::Counter(perf.MultiplexRatio());
  }
}

void BM_IntersectMergeKernel(benchmark::State& state, IntersectKernel kernel,
                             size_t len_a, size_t len_b) {
  auto a = MakeSorted(len_a, 1);
  auto b = MakeSorted(len_b, 2);
  const IntersectCounters before = SnapshotIntersectCounters();
  const PerfReading perf_before = ReadThreadPerfCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectCountMergeWith(kernel, a, b));
  }
  ReportFromCounters(state, before, perf_before);
}

void BM_IntersectGallopingKernel(benchmark::State& state,
                                 IntersectKernel kernel, size_t len_a,
                                 size_t len_b) {
  auto a = MakeSorted(len_a, 1);
  auto b = MakeSorted(len_b, 2);
  const IntersectCounters before = SnapshotIntersectCounters();
  const PerfReading perf_before = ReadThreadPerfCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectCountGallopingWith(kernel, a, b));
  }
  ReportFromCounters(state, before, perf_before);
}

void BM_IntersectHash(benchmark::State& state) {
  auto a = MakeSorted(static_cast<size_t>(state.range(0)), 1);
  auto b = MakeSorted(static_cast<size_t>(state.range(1)), 2);
  const IntersectCounters before = SnapshotIntersectCounters();
  const PerfReading perf_before = ReadThreadPerfCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectCountHash(a, b));
  }
  ReportFromCounters(state, before, perf_before);
}
BENCHMARK(BM_IntersectHash)->Args({64, 64})->Args({64, 4096})
    ->Args({1024, 1024});

void BM_IntersectAdaptive(benchmark::State& state) {
  auto a = MakeSorted(static_cast<size_t>(state.range(0)), 1);
  auto b = MakeSorted(static_cast<size_t>(state.range(1)), 2);
  const IntersectCounters before = SnapshotIntersectCounters();
  const PerfReading perf_before = ReadThreadPerfCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectCount(a, b));
  }
  ReportFromCounters(state, before, perf_before);
}
BENCHMARK(BM_IntersectAdaptive)->Args({64, 64})->Args({64, 4096})
    ->Args({1024, 1024});

/// Registers merge/galloping benchmarks for every kernel the host CPU
/// supports — unsupported kernels are omitted rather than silently
/// falling back, so each reported row really measured its kernel.
void RegisterIntersectKernelBenchmarks() {
  static const std::pair<size_t, size_t> kSizes[] = {
      {64, 64}, {64, 4096}, {1024, 1024}};
  for (IntersectKernel kernel :
       {IntersectKernel::kScalar, IntersectKernel::kSse,
        IntersectKernel::kAvx2}) {
    if (!IntersectKernelSupported(kernel)) continue;
    for (const auto& [len_a, len_b] : kSizes) {
      const std::string suffix = std::string("<") +
                                 IntersectKernelName(kernel) + ">/" +
                                 std::to_string(len_a) + "x" +
                                 std::to_string(len_b);
      benchmark::RegisterBenchmark(
          ("BM_IntersectMerge" + suffix).c_str(),
          [kernel, la = len_a, lb = len_b](benchmark::State& state) {
            BM_IntersectMergeKernel(state, kernel, la, lb);
          });
      benchmark::RegisterBenchmark(
          ("BM_IntersectGalloping" + suffix).c_str(),
          [kernel, la = len_a, lb = len_b](benchmark::State& state) {
            BM_IntersectGallopingKernel(state, kernel, la, lb);
          });
    }
  }
}

/// Whole-graph edge-iterator triangle count on a skewed synthetic graph
/// through the adaptive Intersect entry point. The equal-count check
/// against the scalar merge oracle runs every iteration — a mismatch
/// fails the row. The rows keep their historical `/merge` names so the
/// committed baseline (BENCH_micro.json) still keys them.
void BM_HybridTriangles(benchmark::State& state, const CSRGraph* g,
                        uint64_t expected) {
  const IntersectCounters before = SnapshotIntersectCounters();
  const PerfReading perf_before = ReadThreadPerfCounters();
  for (auto _ : state) {
    uint64_t triangles = 0;
    for (VertexId u = 0; u < g->num_vertices(); ++u) {
      const auto succ_u = g->Successors(u);
      for (VertexId v : succ_u) {
        triangles += IntersectCount(succ_u, g->Successors(v));
      }
    }
    if (triangles != expected) {
      state.SkipWithError("triangle count mismatch vs merge oracle");
      break;
    }
    benchmark::DoNotOptimize(triangles);
  }
  ReportFromCounters(state, before, perf_before);
}

void RegisterHybridTriangleBenchmarks() {
  struct SweepGraph {
    std::string name;
    CSRGraph graph;
    uint64_t expected = 0;
  };
  // Leaked: registered lambdas reference these for the process lifetime.
  auto* graphs = new std::vector<SweepGraph>();
  {
    RmatOptions rmat;
    rmat.scale = 12;
    rmat.edge_factor = 16;
    rmat.seed = 7;
    graphs->push_back({"rmat12", GenerateRmat(rmat), 0});
    HolmeKimOptions hk;
    hk.num_vertices = 1u << 12;
    hk.edges_per_vertex = 8;
    hk.seed = 7;
    graphs->push_back({"holme_kim12", GenerateHolmeKim(hk), 0});
  }
  for (auto& sweep : *graphs) {
    const CSRGraph& g = sweep.graph;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto succ_u = g.Successors(u);
      for (VertexId v : succ_u) {
        sweep.expected +=
            IntersectCountMergeWith(IntersectKernel::kScalar, succ_u,
                                    g.Successors(v));
      }
    }
  }
  for (const auto& sweep : *graphs) {
    const CSRGraph* g = &sweep.graph;
    const uint64_t expected = sweep.expected;
    benchmark::RegisterBenchmark(
        ("BM_HybridTriangles<" + sweep.name + ">/merge").c_str(),
        [g, expected](benchmark::State& state) {
          BM_HybridTriangles(state, g, expected);
        });
  }
}

void BM_Crc32c(benchmark::State& state) {
  std::vector<char> data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

void BM_PageBuild(benchmark::State& state) {
  std::vector<char> buffer(4096);
  std::vector<VertexId> neighbors(64);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    neighbors[i] = static_cast<VertexId>(i * 3);
  }
  for (auto _ : state) {
    PageBuilder builder(buffer.data(), 4096, 1);
    while (builder.FreeNeighborCapacity() >= neighbors.size()) {
      builder.AddSegment(7, 64, 0, neighbors);
    }
    builder.Finish();
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_PageBuild);

void BM_PageParse(benchmark::State& state) {
  std::vector<char> buffer(4096);
  std::vector<VertexId> neighbors(64);
  PageBuilder builder(buffer.data(), 4096, 1);
  while (builder.FreeNeighborCapacity() >= neighbors.size()) {
    builder.AddSegment(7, 64, 0, neighbors);
  }
  builder.Finish();
  for (auto _ : state) {
    PageView view(buffer.data(), 4096);
    uint64_t total = 0;
    for (uint32_t s = 0; s < view.num_slots(); ++s) {
      total += view.GetSegment(s).neighbors.size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PageParse);

void BM_BufferPoolLookup(benchmark::State& state) {
  BufferPool pool(4096, 256);
  for (uint32_t pid = 0; pid < 128; ++pid) {
    auto fetched = pool.Fetch(pid);
    pool.MarkValid(fetched->frame);
    pool.Unpin(fetched->frame);
  }
  uint32_t pid = 0;
  for (auto _ : state) {
    auto fetched = pool.Fetch(pid % 128);
    pool.Unpin(fetched->frame);
    ++pid;
  }
}
BENCHMARK(BM_BufferPoolLookup);

void BM_DegreeOrderedEdgeIteratorWork(benchmark::State& state) {
  CSRGraph g = GenerateErdosRenyi(1u << 12, 1u << 16, 3);
  for (auto _ : state) {
    uint64_t triangles = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto succ_u = g.Successors(u);
      for (VertexId v : succ_u) {
        triangles += IntersectCount(succ_u, g.Successors(v));
      }
    }
    benchmark::DoNotOptimize(triangles);
  }
}
BENCHMARK(BM_DegreeOrderedEdgeIteratorWork);

}  // namespace
}  // namespace opt

int main(int argc, char** argv) {
  opt::RegisterIntersectKernelBenchmarks();
  opt::RegisterHybridTriangleBenchmarks();
  benchmark::Initialize(&argc, argv);
  // Which rung produced the PMU columns (the JSON context block carries
  // it, so baselines record whether cycles/LLC data was real hardware).
  benchmark::AddCustomContext("perf_backend",
                              opt::PerfBackendName(opt::ActivePerfBackend()));
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
