#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/iterator_model.h"
#include "core/triangle_sink.h"
#include "env_probe.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/intersect.h"
#include "graph/reorder.h"
#include "oracle.h"
#include "schedule.h"
#include "service/client.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "service/server.h"
#include "storage/graph_store.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using opt::CommandLine;
using opt::Status;
using Clock = std::chrono::steady_clock;

// The I/O queue depth of every OPT run, batch and served. A deep queue
// of sleeping reader threads made run time depend on host contention
// more than on the code under test.
constexpr uint32_t kIoQueueDepth = 4;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Fail(RunReport* report, const std::string& what) {
  report->correct = false;
  report->failed += 1;
  if (report->first_error.empty()) report->first_error = what;
}

// Resident-set high-water mark of the timed phase, sampled from
// /proc/self/statm so set-up allocations that were freed do not count.
// Only the traced run samples it: peak_rss_mb is a per-layer metric,
// because on ooc-list glibc's arenas keep a varying share of
// ListingSink's freed 1 MiB blocks, so the high-water mark differs by
// 20-40% between processes running the same input.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double StopAndPeakMb() {
    Stop();
    return peak_bytes_.load() / 1e6;
  }

 private:
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void Sample() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return;
    unsigned long long size = 0;
    unsigned long long resident = 0;
    if (std::fscanf(f, "%llu %llu", &size, &resident) == 2) {
      const uint64_t bytes = resident * static_cast<uint64_t>(page_size_);
      if (bytes > peak_bytes_.load()) peak_bytes_.store(bytes);
    }
    std::fclose(f);
  }
  void Loop() {
    while (!stop_.load()) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Sample();
  }

  const long page_size_ = ::sysconf(_SC_PAGESIZE);
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;  // last: starts after the fields it uses
};

opt::CSRGraph GenerateGraph(const CommandLine& p, const std::string& prefix,
                            uint64_t seed) {
  const std::string gen = p.GetString(prefix + "gen", "rmat");
  if (gen == "holme_kim") {
    opt::HolmeKimOptions o;
    o.num_vertices =
        static_cast<opt::VertexId>(p.GetInt(prefix + "vertices", 1 << 14));
    o.edges_per_vertex =
        static_cast<uint32_t>(p.GetInt(prefix + "edges_per_vertex", 5));
    o.triad_probability = p.GetDouble(prefix + "triad_probability", 0.5);
    o.seed = seed;
    return opt::DegreeOrder(opt::GenerateHolmeKim(o)).graph;
  }
  opt::RmatOptions o;
  o.scale = static_cast<uint32_t>(p.GetInt(prefix + "scale", 14));
  o.edge_factor = static_cast<uint32_t>(p.GetInt(prefix + "edge_factor", 16));
  o.a = p.GetDouble(prefix + "rmat_a", 0.45);
  o.b = p.GetDouble(prefix + "rmat_b", 0.15);
  o.c = p.GetDouble(prefix + "rmat_c", 0.15);
  o.d = 1.0 - o.a - o.b - o.c;
  o.seed = seed;
  return opt::DegreeOrder(opt::GenerateRmat(o)).graph;
}

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> generate_s;
  std::vector<double> create_s;
  std::vector<double> open_s;

  void AddTo(std::map<std::string, double>* values) const {
    (*values)["setup_s"] = Median(total_s);
    (*values)["gen.generate_s"] = Median(generate_s);
    (*values)["storage.create_s"] = Median(create_s);
    (*values)["storage.open_s"] = Median(open_s);
  }
};

// Generates and writes one store, timing each layer.
Status BuildStore(const CommandLine& p, const std::string& prefix,
                  uint64_t seed, const std::string& base,
                  opt::CSRGraph* graph, double* gen_s, double* create_s) {
  opt::Stopwatch watch;
  {
    Span span("gen.generate");
    *graph = GenerateGraph(p, prefix, seed);
  }
  *gen_s += watch.ElapsedSeconds();
  watch.Restart();
  {
    Span span("storage.create");
    OPT_RETURN_IF_ERROR(
        opt::GraphStore::Create(*graph, opt::Env::Default(), base));
  }
  *create_s += watch.ElapsedSeconds();
  return Status::OK();
}

// Wraps the listing sink in the traced run.
class TracingSink : public opt::TriangleSink {
 public:
  explicit TracingSink(opt::TriangleSink* base) : base_(base) {}
  void Emit(opt::VertexId u, opt::VertexId v,
            std::span<const opt::VertexId> ws) override {
    Span span("core.sink.emit");
    base_->Emit(u, v, ws);
  }
  Status Finish() override {
    Span span("core.sink.finish");
    return base_->Finish();
  }

 private:
  opt::TriangleSink* base_;
};

// ---------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------

struct BatchRun {
  Status status;
  double wall_s = 0;
  uint64_t triangles = 0;
  uint64_t sink_bytes = 0;
  opt::OptRunStats stats;
  opt::IntersectCounters intersect;
  ProbeCounts io;
};

BatchRun RunOnce(opt::GraphStore* store, const opt::OptOptions& options,
                 bool list, opt::Env* env, const std::string& listing_path,
                 Tracer* tracer, ProbeEnv* probe) {
  BatchRun run;
  opt::EdgeIteratorModel model;
  opt::OptRunner runner(store, &model, options);
  Tracer::SetActive(tracer);
  const ProbeCounts io_before = probe->Snapshot();
  const opt::IntersectCounters before = opt::SnapshotIntersectCounters();
  const Clock::time_point start = Clock::now();
  {
    Span span("core.run");
    if (tracer != nullptr) tracer->SetRoot(tracer->CurrentSpan());
    if (list) {
      opt::ListingSink listing(env, listing_path);
      TracingSink traced(&listing);
      opt::TriangleSink* sink =
          tracer != nullptr ? static_cast<opt::TriangleSink*>(&traced)
                            : &listing;
      run.status = runner.Run(sink, &run.stats);
      if (run.status.ok()) run.status = sink->Finish();
      run.triangles = listing.triangles_written();
      run.sink_bytes = listing.bytes_written();
    } else {
      opt::CountingSink counter;
      run.status = runner.Run(&counter, &run.stats);
      run.triangles = counter.count();
    }
  }
  run.wall_s = Seconds(start, Clock::now());
  const opt::IntersectCounters after = opt::SnapshotIntersectCounters();
  for (int k = 0; k < opt::kNumIntersectKernels; ++k) {
    run.intersect.calls[k] = after.calls[k] - before.calls[k];
    run.intersect.elements[k] = after.elements[k] - before.elements[k];
  }
  run.io = probe->Snapshot().Minus(io_before);
  if (tracer != nullptr) tracer->SetRoot(0);
  Tracer::SetActive(nullptr);
  return run;
}

Status RunBatch(const RunArgs& a, RunReport* report) {
  const CommandLine& p = *a.params;
  const bool list = p.GetString("mode", "count") == "list";
  const int reps = std::max<int64_t>(1, p.GetInt("setup_reps", 3));
  const std::string base = a.work_dir + "/graph";
  const std::string listing_path = a.work_dir + "/listing.bin";
  opt::ThrottledEnv device(
      opt::Env::Default(), static_cast<uint32_t>(p.GetInt("read_us", 0)),
      static_cast<uint32_t>(p.GetInt("write_us", 0)));
  ProbeEnv probe(&device);
  // An untraced run goes straight to the device. The traced run routes
  // every call through the probe, which records spans only while a
  // traced repetition has the tracer active.
  opt::Env* env = a.trace ? static_cast<opt::Env*>(&probe) : &device;
  Tracer tracer;

  SetupTimes setup;
  opt::CSRGraph graph;
  std::unique_ptr<opt::GraphStore> store;
  Tracer::SetActive(a.trace ? &tracer : nullptr);
  for (int r = 0; r < reps; ++r) {
    store.reset();
    opt::Stopwatch total;
    double gen_s = 0;
    double create_s = 0;
    OPT_RETURN_IF_ERROR(
        BuildStore(p, "", a.seed, base, &graph, &gen_s, &create_s));
    opt::Stopwatch open_watch;
    {
      Span span("storage.open");
      OPT_ASSIGN_OR_RETURN(store, opt::GraphStore::Open(env, base));
    }
    setup.open_s.push_back(open_watch.ElapsedSeconds());
    setup.total_s.push_back(total.ElapsedSeconds());
    setup.generate_s.push_back(gen_s);
    setup.create_s.push_back(create_s);
  }
  Tracer::SetActive(nullptr);
  const std::map<std::string, SpanTotals> setup_spans = tracer.Totals();

  const Truth truth = ComputeTruth(graph, a.nproc);
  graph = opt::CSRGraph();

  const uint32_t threads = a.nproc;
  const uint32_t pages = store->num_pages();
  const uint32_t buffer = std::max<uint32_t>(
      2, static_cast<uint32_t>(std::lround(p.GetDouble("buffer_frac", 0.1) *
                                           pages)));
  opt::OptOptions options;
  options.m_in = std::max(buffer / 2, store->MaxRecordPages());
  options.m_ex = std::max(1u, buffer - buffer / 2);
  options.num_threads = threads;
  options.io_queue_depth = kIoQueueDepth;
  std::fprintf(stderr,
               "perfbench: %s graph_pages=%u buffer_pages=%u m_in=%u m_ex=%u "
               "threads=%u triangles=%llu\n",
               a.workload.c_str(), pages, buffer, options.m_in, options.m_ex,
               threads, static_cast<unsigned long long>(truth.triangles));

  // Every run counts as attempted and is checked against the oracle; a
  // listing is read back and deleted.
  auto verify = [&](const BatchRun& run) {
    report->attempted += 1;
    Status verdict = run.status;
    if (verdict.ok()) {
      verdict = list ? CheckListing(opt::Env::Default(), listing_path, truth)
                     : CheckCount(truth, run.triangles);
    }
    if (list) opt::Env::Default()->DeleteFile(listing_path);
    if (!verdict.ok()) Fail(report, verdict.ToString());
    return verdict.ok();
  };
  // An untimed warm-up run: the freshly written store is still being
  // flushed and the page cache filled; users of a built store never pay
  // that, so it stays out of the timed phase.
  verify(RunOnce(store.get(), options, list, env, listing_path, nullptr,
                 &probe));

  const double limit_s = p.GetDouble("run_limit_s", 1e9);
  // The median needs a few runs even when one run outlasts --seconds.
  constexpr size_t kMinRuns = 5;
  std::vector<double> plain_walls;
  std::vector<BatchRun> traced;
  uint64_t within_limit = 0;
  std::optional<RssSampler> rss;
  if (a.trace) rss.emplace();
  const Clock::time_point start = Clock::now();
  for (int i = 0; Seconds(start, Clock::now()) < a.seconds ||
                  plain_walls.size() < kMinRuns;
       ++i) {
    // The traced run alternates plain and traced runs so the two see
    // the same conditions; their difference is the tracing overhead.
    const bool traced_run = a.trace && i % 2 == 1;
    BatchRun run = RunOnce(store.get(), options, list, env, listing_path,
                           traced_run ? &tracer : nullptr, &probe);
    if (verify(run) && run.wall_s <= limit_s) ++within_limit;
    if (traced_run) {
      traced.push_back(std::move(run));
    } else {
      plain_walls.push_back(run.wall_s);
    }
  }
  std::fprintf(stderr, "perfbench: run walls (s):");
  for (double w : plain_walls) std::fprintf(stderr, " %.4f", w);
  std::fprintf(stderr, "\n");

  std::map<std::string, double> v;
  setup.AddTo(&v);
  v["run_s_p50"] = Median(plain_walls);
  v["slo_met_frac"] =
      Ratio(within_limit, plain_walls.size() + traced.size());
  v["error_rate"] = Ratio(report->failed, report->attempted);
  std::vector<double> plain_ms;
  for (double w : plain_walls) plain_ms.push_back(w * 1e3);
  v[list ? "list_ms_p50" : "count_ms_p50"] = Percentile(plain_ms, 0.5);
  if (list) {
    v["list_ms_p90"] = Percentile(plain_ms, 0.9);
  } else {
    v["count_ms_p95"] = Percentile(plain_ms, 0.95);
  }
  if (!a.trace) {
    report->metrics = std::move(v);
    return Status::OK();
  }
  v["peak_rss_mb"] = rss->StopAndPeakMb();

  // One single-threaded plain run gives the thread speed-up.
  opt::OptOptions single = options;
  single.num_threads = 1;
  const BatchRun one = RunOnce(store.get(), single, list, env, listing_path,
                               nullptr, &probe);
  verify(one);
  v["core.thread_speedup"] = Ratio(one.wall_s, Median(plain_walls));
  v["error_rate"] = Ratio(report->failed, report->attempted);

  const double n = static_cast<double>(std::max<size_t>(1, traced.size()));
  double internal_reads = 0, internal_hits = 0, external_reads = 0;
  double iterations = 0, phase_a = 0, phase_c = 0, other = 0;
  double internal_cpu = 0, external_cpu = 0, phase_c_thread_s = 0;
  double parallel_fraction = 0, sink_bytes = 0, triangles = 0;
  double calls = 0, elements = 0, hub_bitmaps = 0, hub_peak = 0;
  ProbeCounts io;
  std::vector<double> traced_walls;
  for (const BatchRun& run : traced) {
    const opt::OptRunStats& s = run.stats;
    internal_reads += s.internal_pages_read;
    internal_hits += s.internal_cache_hits;
    external_reads += s.external_pages_read;
    iterations += s.iterations;
    const PhaseSplit split = SplitRunWall(s, run.wall_s);
    phase_a += split.phase_a_s;
    phase_c += split.phase_c_s;
    other += split.other_s;
    for (const opt::IterationStats& it : s.per_iteration) {
      internal_cpu += it.internal_cpu_seconds;
      external_cpu += it.external_cpu_seconds;
    }
    phase_c_thread_s += split.phase_c_s * threads;
    parallel_fraction += s.ParallelFraction();
    sink_bytes += run.sink_bytes;
    triangles += run.triangles;
    calls += run.intersect.TotalCalls();
    elements += run.intersect.TotalElements();
    hub_bitmaps += s.hub_bitmaps_built;
    hub_peak = std::max(hub_peak, static_cast<double>(s.hub_bitmap_peak_bytes));
    io.read_calls += run.io.read_calls;
    io.read_bytes += run.io.read_bytes;
    io.write_calls += run.io.write_calls;
    io.write_bytes += run.io.write_bytes;
    traced_walls.push_back(run.wall_s);
  }
  std::map<std::string, SpanTotals> spans = tracer.Totals();
  auto busy = [&](const char* name) {
    const double before =
        setup_spans.count(name) ? setup_spans.at(name).busy_s : 0.0;
    return spans.count(name) ? spans[name].busy_s - before : 0.0;
  };
  v["storage.pages_read"] = (internal_reads + external_reads) / n;
  v["storage.internal_hit_ratio"] =
      Ratio(internal_hits, internal_hits + internal_reads);
  v["storage.read_calls"] = io.read_calls / n;
  v["storage.read_mb"] = io.read_bytes / 1e6 / n;
  v["storage.read_busy_s"] = busy("storage.read") / n;
  v["storage.write_calls"] = io.write_calls / n;
  v["storage.write_mb"] = io.write_bytes / 1e6 / n;
  v["storage.write_busy_s"] = busy("storage.write") / n;
  v["core.iterations"] = iterations / n;
  v["core.phase_a_s"] = phase_a / n;
  v["core.phase_c_s"] = phase_c / n;
  v["core.other_s"] = other / n;
  v["core.internal_cpu_s"] = internal_cpu / n;
  v["core.external_cpu_s"] = external_cpu / n;
  v["core.cpu_util"] = Ratio(internal_cpu + external_cpu, phase_c_thread_s);
  v["core.parallel_fraction"] = parallel_fraction / n;
  v["core.sink_emits"] =
      spans.count("core.sink.emit") ? spans["core.sink.emit"].count / n : 0;
  v["core.sink_busy_s"] = busy("core.sink.emit") / n;
  v["core.sink_finish_s"] = busy("core.sink.finish") / n;
  v["core.sink_mb"] = sink_bytes / 1e6 / n;
  v["graph.intersect_calls"] = calls / n;
  v["graph.intersect_elements"] = elements / n;
  v["graph.elements_per_cpu_s"] = Ratio(elements, internal_cpu + external_cpu);
  v["graph.triangles_per_element"] = Ratio(triangles, elements);
  v["graph.hub_bitmaps_built"] = hub_bitmaps / n;
  v["graph.hub_bitmap_peak_mb"] = hub_peak / 1e6;
  v["trace_overhead_pct"] =
      (Median(traced_walls) / Median(plain_walls) - 1.0) * 100.0;
  if (!a.trace_path.empty()) tracer.WriteChromeTrace(a.trace_path);
  report->metrics = std::move(v);
  return Status::OK();
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

// Members are declared so that destruction stops the server before the
// scheduler it calls and the scheduler before the registry; Reset()
// tears down in the same order.
struct ServeStack {
  std::unique_ptr<opt::GraphRegistry> registry;
  std::unique_ptr<opt::QueryScheduler> scheduler;
  std::unique_ptr<opt::OptServer> server;

  void Reset() {
    server.reset();
    scheduler.reset();
    registry.reset();
  }
};

struct ServeTruth {
  Truth static_truth;
  ToggleTruth live;
};

struct Sample {
  Op op = Op::kCountStatic;
  double due_s = 0;
  double send_s = 0;
  double done_s = 0;
  bool ok = false;
  uint8_t source = 0;
  uint64_t list_bytes = 0;
  double latency_s() const { return done_s - due_s; }
};

// The kinds of request behind slo_met_frac, each with its own latency
// limit (param <name>_limit_ms): COUNTs answered from the result cache,
// COUNTs that ran OPT (fresh or coalesced onto a running one), LISTs and
// mutations. A COUNT's kind follows its source because the two differ
// by two orders of magnitude, while a live COUNT may be either.
enum SloKind { kCountCached, kCountRun, kListKind, kMutateKind };
constexpr int kNumSloKinds = 4;
const char* const kSloKindNames[kNumSloKinds] = {"count_cached", "count_run",
                                                 "list", "mutate"};
SloKind SloKindOf(Op op) { return op == Op::kList ? kListKind : kMutateKind; }

uint32_t PagesFor(double frac, uint32_t pages) {
  return std::max<uint32_t>(2, static_cast<uint32_t>(std::lround(frac * pages)));
}

// Sends the schedule over one lane per operation kind: COUNTs share
// `count_connections` connections in due order, LISTs use one and
// mutations one. Separate lanes keep a long LIST from delaying a COUNT
// on the client side; the two still contend in the server. Mutations
// need their single lane: the batch toggles in order.
class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, const ServeTruth& truth,
                const opt::ClientQueryOptions& static_query,
                const opt::ClientQueryOptions& live_query,
                int count_connections)
      : port_(port),
        truth_(truth),
        static_query_(static_query),
        live_query_(live_query),
        count_connections_(std::max(1, count_connections)) {}

  /// Sends every arrival at its due time and returns one sample each.
  std::vector<Sample> Run(const std::vector<Arrival>& schedule,
                          RunReport* report) {
    struct Lane {
      std::vector<size_t> items;
      int connections = 1;
      std::atomic<size_t> next{0};
    };
    Lane counts, lists, mutations;
    counts.connections = count_connections_;
    std::vector<Sample> samples(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      samples[i].op = schedule[i].op;
      samples[i].due_s = schedule[i].due_s;
      Lane& lane = schedule[i].op == Op::kMutate ? mutations
                   : schedule[i].op == Op::kList ? lists
                                                 : counts;
      lane.items.push_back(i);
    }
    std::vector<opt::OptClient> clients(count_connections_ + 2);
    for (opt::OptClient& c : clients) {
      if (Status s = c.ConnectTcp("127.0.0.1", port_); !s.ok()) {
        Fail(report, "connect: " + s.ToString());
        return {};
      }
    }
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    size_t client = 0;
    for (Lane* lane : {&counts, &lists, &mutations}) {
      for (int c = 0; c < lane->connections; ++c) {
        threads.emplace_back([&, lane, conn = &clients[client++]] {
          for (size_t k; (k = lane->next.fetch_add(1)) < lane->items.size();) {
            Send(conn, start, &samples[lane->items[k]]);
          }
        });
      }
    }
    for (auto& t : threads) t.join();
    for (const Sample& s : samples) {
      report->attempted += 1;
      if (!s.ok) {
        report->failed += 1;
        report->correct = false;
      }
    }
    if (!first_error_.empty() && report->first_error.empty()) {
      report->first_error = first_error_;
    }
    return samples;
  }

 private:
  void Send(opt::OptClient* client, Clock::time_point start, Sample* s) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s->due_s)));
    s->send_s = Seconds(start, Clock::now());
    Status verdict;
    switch (s->op) {
      case Op::kCountStatic:
      case Op::kCountLive: {
        const bool live = s->op == Op::kCountLive;
        Span span("service.count");
        auto r = client->Count(live ? "live" : "static",
                               live ? live_query_ : static_query_);
        if (!r.ok()) {
          verdict = r.status();
        } else {
          s->source = r->source;
          verdict = live ? CheckToggleCount(truth_.live, r->triangles)
                         : CheckCount(truth_.static_truth, r->triangles);
        }
        break;
      }
      case Op::kList: {
        Span span("service.list");
        Truth seen;
        uint64_t bytes = 0;
        auto r = client->List(
            "static",
            [&](const opt::ListBatch& batch) {
              for (const auto& rec : batch.records) {
                bytes += (3 + rec.ws.size()) * sizeof(opt::VertexId);
                for (opt::VertexId w : rec.ws) {
                  ++seen.triangles;
                  seen.checksum += TriangleHash(rec.u, rec.v, w);
                }
              }
            },
            static_query_);
        s->list_bytes = bytes;
        if (!r.ok()) {
          verdict = r.status();
        } else if (r->triangles != seen.triangles ||
                   seen.checksum != truth_.static_truth.checksum) {
          verdict = Status::Corruption("streamed listing differs from truth");
        } else {
          verdict = CheckCount(truth_.static_truth, r->triangles);
        }
        break;
      }
      case Op::kMutate: {
        Span span("service.mutate");
        // One connection sends every mutation, in order, so the batch
        // toggles deterministically: add when absent, remove when present.
        auto r = batch_present_ ? client->RemoveEdges("live", truth_.live.batch)
                                : client->AddEdges("live", truth_.live.batch);
        if (!r.ok()) {
          verdict = r.status();
        } else {
          verdict = CheckToggleDelta(truth_.live, !batch_present_,
                                     r->batch_triangle_delta);
          batch_present_ = !batch_present_;
        }
        break;
      }
    }
    s->done_s = Seconds(start, Clock::now());
    s->ok = verdict.ok();
    if (!s->ok) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (first_error_.empty()) {
        first_error_ = std::string(OpName(s->op)) + ": " + verdict.ToString();
      }
    }
  }

  const uint16_t port_;
  const ServeTruth& truth_;
  const opt::ClientQueryOptions static_query_;
  const opt::ClientQueryOptions live_query_;
  const int count_connections_;
  bool batch_present_ = false;  // touched only by the mutation thread
  std::mutex error_mutex_;
  std::string first_error_;
};

std::map<std::string, uint64_t> ParseStatsText(const std::string& text) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
  }
  return out;
}

double HistogramP50Ms(const opt::StatsResult& stats, const std::string& name) {
  for (const auto& h : stats.histograms) {
    if (h.name == name) return h.p50 / 1e3;
  }
  return 0;
}

Status StartStack(const CommandLine& p, opt::Env* env, uint32_t pool_frames,
                  ServeStack* stack) {
  opt::RegistryOptions registry_options;
  registry_options.min_pool_frames = pool_frames;
  stack->registry = std::make_unique<opt::GraphRegistry>(env, registry_options);
  opt::SchedulerOptions sched;
  sched.workers = static_cast<uint32_t>(p.GetInt("workers", 2));
  sched.max_queue = static_cast<uint32_t>(p.GetInt("max_queue", 64));
  sched.default_threads = static_cast<uint32_t>(p.GetInt("query_threads", 2));
  sched.io_queue_depth = kIoQueueDepth;
  stack->scheduler =
      std::make_unique<opt::QueryScheduler>(stack->registry.get(), sched);
  stack->server = std::make_unique<opt::OptServer>(stack->scheduler.get());
  OPT_RETURN_IF_ERROR(stack->server->ListenTcp(0));
  return stack->server->Start();
}

Status RunServe(const RunArgs& a, RunReport* report) {
  const CommandLine& p = *a.params;
  const int reps = std::max<int64_t>(1, p.GetInt("setup_reps", 3));
  const std::string static_base = a.work_dir + "/static";
  const std::string live_base = a.work_dir + "/live";
  opt::ThrottledEnv device(opt::Env::Default(),
                           static_cast<uint32_t>(p.GetInt("read_us", 0)));
  ProbeEnv probe(&device);
  opt::Env* env = a.trace ? static_cast<opt::Env*>(&probe) : &device;
  Tracer tracer;

  SetupTimes setup;
  opt::CSRGraph static_graph;
  opt::CSRGraph live_graph;
  ServeStack stack;
  uint32_t static_pages = 0;
  uint32_t live_pages = 0;
  uint32_t pool_frames = 0;
  Tracer::SetActive(a.trace ? &tracer : nullptr);
  for (int r = 0; r < reps; ++r) {
    stack.Reset();
    opt::Stopwatch total;
    double gen_s = 0;
    double create_s = 0;
    OPT_RETURN_IF_ERROR(BuildStore(p, "static_", a.seed, static_base,
                                   &static_graph, &gen_s, &create_s));
    OPT_RETURN_IF_ERROR(BuildStore(p, "live_", a.seed + 0x51CE, live_base,
                                   &live_graph, &gen_s, &create_s));
    opt::Stopwatch open_watch;
    {
      Span span("storage.open");
      // Page counts size the shared pool; the registry opens its own
      // handles when the graphs are loaded over the wire below.
      OPT_ASSIGN_OR_RETURN(auto s, opt::GraphStore::Open(env, static_base));
      OPT_ASSIGN_OR_RETURN(auto l, opt::GraphStore::Open(env, live_base));
      static_pages = s->num_pages();
      live_pages = l->num_pages();
      pool_frames = PagesFor(p.GetDouble("pool_frac", 0.5),
                             static_pages + live_pages);
      OPT_RETURN_IF_ERROR(StartStack(p, env, pool_frames, &stack));
      opt::OptClient loader;
      OPT_RETURN_IF_ERROR(
          loader.ConnectTcp("127.0.0.1", stack.server->bound_port()));
      Span load_span("service.loadgraph");
      OPT_RETURN_IF_ERROR(loader.LoadGraph("static", static_base));
      OPT_RETURN_IF_ERROR(loader.LoadGraph("live", live_base));
    }
    setup.open_s.push_back(open_watch.ElapsedSeconds());
    setup.total_s.push_back(total.ElapsedSeconds());
    setup.generate_s.push_back(gen_s);
    setup.create_s.push_back(create_s);
  }
  Tracer::SetActive(nullptr);

  ServeTruth truth;
  truth.static_truth = ComputeTruth(static_graph, a.nproc);
  truth.live = ComputeToggle(
      live_graph, static_cast<size_t>(p.GetInt("batch_edges", 32)), a.seed,
      a.nproc);
  static_graph = opt::CSRGraph();
  live_graph = opt::CSRGraph();
  if (truth.live.batch.size() !=
      static_cast<size_t>(p.GetInt("batch_edges", 32))) {
    return Status::InvalidArgument("live graph has too few open wedges");
  }

  opt::ClientQueryOptions static_query;
  static_query.memory_pages =
      PagesFor(p.GetDouble("query_buffer_frac", 0.2), static_pages);
  opt::ClientQueryOptions live_query;
  live_query.memory_pages =
      PagesFor(p.GetDouble("query_buffer_frac", 0.2), live_pages);
  // At most nproc - 1 connections, and at least one per lane.
  const int count_connections = std::max<int>(
      1, std::min<int64_t>(p.GetInt("connections", 3), a.nproc - 1) - 2);
  std::fprintf(stderr,
               "perfbench: serve-mix static_pages=%u live_pages=%u "
               "pool_frames=%u query_pages=%u/%u connections=%d "
               "static_triangles=%llu live_t0=%llu live_delta=%lld\n",
               static_pages, live_pages, pool_frames,
               static_query.memory_pages, live_query.memory_pages,
               count_connections + 2,
               static_cast<unsigned long long>(truth.static_truth.triangles),
               static_cast<unsigned long long>(truth.live.t0),
               static_cast<long long>(truth.live.delta));

  const uint16_t port = stack.server->bound_port();
  opt::OptClient control;
  OPT_RETURN_IF_ERROR(control.ConnectTcp("127.0.0.1", port));
  // Warm-up: the first static COUNT fills the result cache and the
  // first live COUNT records the base count, as in steady service.
  for (const bool live : {false, true}) {
    auto r = control.Count(live ? "live" : "static",
                           live ? live_query : static_query);
    report->attempted += 1;
    const Status verdict =
        !r.ok() ? r.status()
        : live  ? CheckToggleCount(truth.live, r->triangles)
                : CheckCount(truth.static_truth, r->triangles);
    if (!verdict.ok()) Fail(report, verdict.ToString());
  }

  MixSpec mix;
  mix.rate_per_s = p.GetDouble("rate_per_s", 50);
  mix.count_share = p.GetDouble("count_share", 0.6);
  mix.list_share = p.GetDouble("list_share", 0.1);
  mix.mutate_share = p.GetDouble("mutate_share", 0.3);
  const double phase_s = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<Arrival> schedule = MakeSchedule(mix, phase_s, a.seed);
  double limits_ms[kNumSloKinds];
  for (int k = 0; k < kNumSloKinds; ++k) {
    limits_ms[k] =
        p.GetDouble(std::string(kSloKindNames[k]) + "_limit_ms", 1e9);
  }
  LoadGenerator loadgen(port, truth, static_query, live_query,
                        count_connections);

  opt::Metrics().ResetAll();
  OPT_ASSIGN_OR_RETURN(const opt::StatsResult stats_before, control.StatsFull());
  std::optional<RssSampler> rss;
  if (a.trace) rss.emplace();
  const std::vector<Sample> samples = loadgen.Run(schedule, report);
  const double peak_rss_mb = a.trace ? rss->StopAndPeakMb() : 0.0;
  opt::StatsResult stats_after;
  {
    Span span("service.stats");
    OPT_ASSIGN_OR_RETURN(stats_after, control.StatsFull());
  }

  std::map<std::string, double> v;
  setup.AddTo(&v);
  std::vector<double> runs_s, count_ms, list_ms, mutate_ms, late_ms, all_s;
  std::vector<double> kind_ms[kNumSloKinds];
  uint64_t within[kNumSloKinds] = {};
  uint64_t counts = 0, cached = 0, coalesced = 0, fresh = 0;
  uint64_t list_bytes = 0;
  for (const Sample& s : samples) {
    const double ms = s.latency_s() * 1e3;
    all_s.push_back(s.latency_s());
    late_ms.push_back((s.send_s - s.due_s) * 1e3);
    const bool is_count = s.op == Op::kCountStatic || s.op == Op::kCountLive;
    const auto source = static_cast<opt::ResultSource>(s.source);
    const SloKind kind = !is_count                           ? SloKindOf(s.op)
                         : source == opt::ResultSource::kCache ? kCountCached
                                                               : kCountRun;
    kind_ms[kind].push_back(ms);
    if (s.ok && ms <= limits_ms[kind]) ++within[kind];
    if (is_count) {
      ++counts;
      count_ms.push_back(ms);
      if (source == opt::ResultSource::kCache) ++cached;
      if (source == opt::ResultSource::kCoalesced) ++coalesced;
      if (source == opt::ResultSource::kExecuted) {
        ++fresh;
        runs_s.push_back(s.latency_s());
      }
    } else if (s.op == Op::kList) {
      list_ms.push_back(ms);
      list_bytes += s.list_bytes;
    } else {
      mutate_ms.push_back(ms);
    }
  }
  // Each kind weighs the same, so the seeded mix does not move the
  // metric, and one kind slowing past its limit costs up to a quarter.
  double slo = 0;
  for (int k = 0; k < kNumSloKinds; ++k) {
    const double met = Ratio(within[k], kind_ms[k].size());
    slo += met / kNumSloKinds;
    std::fprintf(stderr,
                 "perfbench: %-12s n=%zu p25=%.3f p50=%.3f p75=%.3f "
                 "p90=%.3f ms, %.3f within %.3g ms\n",
                 kSloKindNames[k], kind_ms[k].size(),
                 Percentile(kind_ms[k], 0.25), Percentile(kind_ms[k], 0.5),
                 Percentile(kind_ms[k], 0.75), Percentile(kind_ms[k], 0.9),
                 met, limits_ms[k]);
  }
  // Only fresh COUNT runs: LIST latency is a second, slower mode, and a
  // median taken across both modes jumps between them from seed to seed.
  v["run_s_p50"] = Median(runs_s);
  std::fprintf(stderr,
               "perfbench: %zu requests, %zu fresh COUNT runs, %zu LISTs\n",
               samples.size(), runs_s.size(), list_ms.size());
  v["slo_met_frac"] = slo;
  v["error_rate"] = Ratio(report->failed, report->attempted);
  if (!a.trace) {
    report->metrics = std::move(v);
    return Status::OK();
  }

  v["peak_rss_mb"] = peak_rss_mb;
  v["count_ms_p50"] = Percentile(count_ms, 0.5);
  v["count_ms_p95"] = Percentile(count_ms, 0.95);
  v["list_ms_p50"] = Percentile(list_ms, 0.5);
  v["list_ms_p90"] = Percentile(list_ms, 0.9);
  v["mutate_ms_p50"] = Percentile(mutate_ms, 0.5);
  v["mutate_ms_p95"] = Percentile(mutate_ms, 0.95);
  v["loadgen.late_ms_p95"] = Percentile(late_ms, 0.95);
  v["service.cache_hit_ratio"] = Ratio(cached, counts);
  v["service.coalesced_ratio"] = Ratio(coalesced, counts);
  v["service.fresh_runs"] = static_cast<double>(fresh);
  v["service.list_mb"] = Ratio(list_bytes / 1e6, list_ms.size());
  v["service.queue_wait_ms_p50"] =
      HistogramP50Ms(stats_after, "query.queue_wait_us");
  v["service.exec_ms_p50"] = HistogramP50Ms(stats_after, "query.exec_us");
  v["service.delta_apply_ms_p50"] =
      HistogramP50Ms(stats_after, "delta.apply_us");
  const auto before = ParseStatsText(stats_before.text);
  auto after = ParseStatsText(stats_after.text);
  auto delta = [&](const std::string& key) {
    const auto it = before.find(key);
    return static_cast<double>(after[key] -
                               (it == before.end() ? 0 : it->second));
  };
  v["service.pool_hit_ratio"] =
      Ratio(delta("pool.hits"), delta("pool.lookups"));
  v["service.pool_evictions"] = delta("pool.evictions");
  v["service.rejected"] = delta("scheduler.rejected");
  v["storage.pages_read"] = delta("pool.lookups") - delta("pool.hits");

  // Second half: the same schedule again with every layer traced.
  const ProbeCounts io_before = probe.Snapshot();
  Tracer::SetActive(&tracer);
  const std::map<std::string, SpanTotals> spans_before = tracer.Totals();
  const std::vector<Sample> traced = loadgen.Run(schedule, report);
  Tracer::SetActive(nullptr);
  const ProbeCounts io = probe.Snapshot().Minus(io_before);
  std::map<std::string, SpanTotals> spans = tracer.Totals();
  auto busy = [&](const char* name) {
    const double b = spans_before.count(name) ? spans_before.at(name).busy_s : 0;
    return spans.count(name) ? spans[name].busy_s - b : 0.0;
  };
  v["storage.read_calls"] = static_cast<double>(io.read_calls);
  v["storage.read_mb"] = io.read_bytes / 1e6;
  v["storage.read_busy_s"] = busy("storage.read");
  v["storage.write_calls"] = static_cast<double>(io.write_calls);
  v["storage.write_mb"] = io.write_bytes / 1e6;
  v["storage.write_busy_s"] = busy("storage.write");
  std::vector<double> traced_s;
  for (const Sample& s : traced) traced_s.push_back(s.latency_s());
  v["trace_overhead_pct"] = (Median(traced_s) / Median(all_s) - 1.0) * 100.0;
  v["error_rate"] = Ratio(report->failed, report->attempted);
  if (!a.trace_path.empty()) tracer.WriteChromeTrace(a.trace_path);
  report->metrics = std::move(v);
  return Status::OK();
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

PhaseSplit SplitRunWall(const opt::OptRunStats& stats, double wall_s) {
  PhaseSplit split;
  for (const opt::IterationStats& it : stats.per_iteration) {
    split.phase_a_s += it.load_seconds;
    split.phase_c_s += it.overlap_seconds;
  }
  split.other_s = wall_s - split.phase_a_s - split.phase_c_s;
  return split;
}

Status RunWorkload(const RunArgs& args, RunReport* report) {
  const std::string kind = args.params->GetString("kind", "batch");
  if (kind == "batch") return RunBatch(args, report);
  if (kind == "serve") return RunServe(args, report);
  return Status::InvalidArgument("unknown workload kind '" + kind + "'");
}

}  // namespace perfbench
