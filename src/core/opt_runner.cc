#include "core/opt_runner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <thread>

#include "core/page_range_view.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace opt {

namespace {

/// Registry counters fed once per Run() from OptRunStats. The cache-hit
/// counters are the paper's Δin / Δex: pages the buffer pool saved the
/// run from re-reading (§3.3's cost identity, exposed live via STATS).
struct RunCounters {
  Counter* runs = Metrics().GetCounter("opt.runs");
  Counter* iterations = Metrics().GetCounter("opt.iterations");
  Counter* internal_pages_read =
      Metrics().GetCounter("opt.internal.pages_read");
  Counter* internal_cache_hits =
      Metrics().GetCounter("opt.internal.cache_hits");
  Counter* external_pages_read =
      Metrics().GetCounter("opt.external.pages_read");
  Counter* external_cache_hits =
      Metrics().GetCounter("opt.external.cache_hits");
  /// Per-kernel intersection activity (opt.intersect.<kernel>.calls /
  /// .elements).
  Counter* intersect_calls[kNumIntersectKernels];
  Counter* intersect_elements[kNumIntersectKernels];
  /// PMU deltas (DESIGN.md §13). Totals plus a per-phase breakdown so
  /// STATS can answer "where do the cycles go" without a trace. The
  /// populated subset depends on perf.backend — cycles/LLC columns stay
  /// zero under the sw/rusage rungs, and that absence is the signal.
  Counter* perf_cycles = Metrics().GetCounter("opt.perf.cycles");
  Counter* perf_instructions = Metrics().GetCounter("opt.perf.instructions");
  Counter* perf_llc_loads = Metrics().GetCounter("opt.perf.llc_loads");
  Counter* perf_llc_misses = Metrics().GetCounter("opt.perf.llc_misses");
  Counter* perf_branch_misses =
      Metrics().GetCounter("opt.perf.branch_misses");
  Counter* perf_task_clock_ns =
      Metrics().GetCounter("opt.perf.task_clock_ns");
  Counter* perf_page_faults = Metrics().GetCounter("opt.perf.page_faults");
  Counter* perf_context_switches =
      Metrics().GetCounter("opt.perf.context_switches");
  Counter* phase_cycles[3];
  Counter* phase_instructions[3];
  Counter* phase_llc_misses[3];
  Counter* phase_task_clock_ns[3];
  /// Multiplexing honesty: time_running/time_enabled of the last run,
  /// in ppm. Below 1e6 the PMU was time-shared and counts undercount.
  Gauge* perf_multiplex_ppm = Metrics().GetGauge("perf.multiplex_ppm");

  RunCounters() {
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      const std::string base =
          std::string("opt.intersect.") +
          IntersectKernelName(static_cast<IntersectKernel>(k));
      intersect_calls[k] = Metrics().GetCounter(base + ".calls");
      intersect_elements[k] = Metrics().GetCounter(base + ".elements");
    }
    static const char* kPhases[3] = {"phaseA", "phaseB", "phaseC"};
    for (int p = 0; p < 3; ++p) {
      const std::string base = std::string("opt.perf.") + kPhases[p];
      phase_cycles[p] = Metrics().GetCounter(base + ".cycles");
      phase_instructions[p] = Metrics().GetCounter(base + ".instructions");
      phase_llc_misses[p] = Metrics().GetCounter(base + ".llc_misses");
      phase_task_clock_ns[p] = Metrics().GetCounter(base + ".task_clock_ns");
    }
    PublishPerfBackendMetrics();
  }
};

RunCounters& GlobalRunCounters() {
  static RunCounters counters;
  return counters;
}

void PublishRunStats(const OptRunStats& stats) {
  RunCounters& counters = GlobalRunCounters();
  counters.runs->Increment();
  counters.iterations->Increment(stats.iterations);
  counters.internal_pages_read->Increment(stats.internal_pages_read);
  counters.internal_cache_hits->Increment(stats.internal_cache_hits);
  counters.external_pages_read->Increment(stats.external_pages_read);
  counters.external_cache_hits->Increment(stats.external_cache_hits);
  for (int k = 0; k < kNumIntersectKernels; ++k) {
    counters.intersect_calls[k]->Increment(stats.intersect.calls[k]);
    counters.intersect_elements[k]->Increment(stats.intersect.elements[k]);
  }
  const PerfReading total = stats.PerfTotal();
  counters.perf_cycles->Increment(total.cycles);
  counters.perf_instructions->Increment(total.instructions);
  counters.perf_llc_loads->Increment(total.llc_loads);
  counters.perf_llc_misses->Increment(total.llc_misses);
  counters.perf_branch_misses->Increment(total.branch_misses);
  counters.perf_task_clock_ns->Increment(total.task_clock_ns);
  counters.perf_page_faults->Increment(total.page_faults);
  counters.perf_context_switches->Increment(total.context_switches);
  const PerfReading* phases[3] = {&stats.perf_phase_a, &stats.perf_phase_b,
                                  &stats.perf_phase_c};
  for (int p = 0; p < 3; ++p) {
    counters.phase_cycles[p]->Increment(phases[p]->cycles);
    counters.phase_instructions[p]->Increment(phases[p]->instructions);
    counters.phase_llc_misses[p]->Increment(phases[p]->llc_misses);
    counters.phase_task_clock_ns[p]->Increment(phases[p]->task_clock_ns);
  }
  if (total.time_enabled_ns > 0) {
    counters.perf_multiplex_ppm->Set(
        static_cast<int64_t>(total.MultiplexRatio() * 1e6));
  }
}

/// One external read unit: a run of consecutive pages covering every
/// candidate assigned to it (Algorithm 4 groups candidates by page;
/// adjacency lists spanning pages widen the run). Runs sharing a
/// boundary page merge up to the chunk cap; past it, two neighbouring
/// chunks share that one page through the pool's Fetch/WaitValid
/// protocol.
struct Chunk {
  uint32_t first_pid = 0;
  uint32_t page_count = 0;
  std::vector<VertexId> candidates;
};

/// Phase B (Algorithm 4): cuts the sorted, unique candidates into chunks
/// in one pass. Page ids are monotone in vertex id, so a candidate starts
/// at or after the last page of the chunk before it: it either widens
/// that chunk, while the run stays within `cap` pages, or starts the next
/// one, sharing at most that last page. Adds the distinct pages covered
/// to `*pages`.
std::vector<Chunk> PlanChunks(const GraphStore& store,
                              const std::vector<VertexId>& candidates,
                              uint32_t cap, uint64_t* pages) {
  std::vector<Chunk> chunks;
  for (VertexId v : candidates) {
    const uint32_t first = store.FirstPageOfVertex(v);
    const uint32_t end = store.LastPageOfVertex(v) + 1;
    Chunk* prev = chunks.empty() ? nullptr : &chunks.back();
    const bool shares =
        prev != nullptr && first < prev->first_pid + prev->page_count;
    if (shares) {
      const uint32_t merged =
          std::max(prev->first_pid + prev->page_count, end) - prev->first_pid;
      if (merged <= cap) {
        *pages += merged - prev->page_count;
        prev->page_count = merged;
        prev->candidates.push_back(v);
        continue;
      }
    }
    *pages += end - first - (shares ? 1 : 0);
    chunks.push_back(Chunk{first, end - first, {v}});
  }
  return chunks;
}

/// All mutable state of one Run(); shared by the worker roles.
struct RunContext {
  // Immutable during an iteration.
  GraphStore* store = nullptr;
  const IteratorModel* model = nullptr;
  OptOptions options;
  TriangleSink* sink = nullptr;

  BufferPool* pool = nullptr;
  uint32_t owner = 0;  // page-key namespace within the pool
  AsyncIoEngine* engine = nullptr;
  CompletionQueue completions;

  // Observability hooks (both optional; null → no-ops).
  OverlapProfiler* profiler = nullptr;
  FlightRecorder* flight = nullptr;

  // Per-iteration state.
  IterationPlan plan;
  std::vector<Frame*> internal_frames;
  std::vector<const char*> internal_page_data;
  PageRangeView internal_view;

  std::mutex candidate_mutex;
  std::vector<VertexId> candidates;

  std::mutex later_mutex;              // Algorithm 9's atomic block
  std::deque<Chunk> later;
  uint32_t ext_capacity = 0;  // in-flight external page budget (m_ex)
  uint32_t ext_used = 0;      // guarded by later_mutex

  CompletionGroup group_in;
  CompletionGroup group_ex;

  std::atomic<uint32_t> internal_cursor{0};
  std::atomic<uint32_t> internal_pages_done{0};
  uint32_t internal_page_count = 0;

  // Error propagation: first error wins; workers drain without working.
  std::mutex error_mutex;
  Status first_error;
  std::atomic<bool> abort{false};

  // Instrumentation (micros, summed across threads).
  std::atomic<uint64_t> internal_cpu_micros{0};
  std::atomic<uint64_t> external_cpu_micros{0};
  std::atomic<uint64_t> external_pages{0};

  // PMU deltas per phase, folded across iterations and (phase C) across
  // worker threads. Null when collect_perf is off — PerfScope treats a
  // null accumulator as inert.
  PerfAccumulator perf_a, perf_b, perf_c;
  PerfAccumulator* PerfSink(PerfAccumulator* acc) {
    return options.collect_perf ? acc : nullptr;
  }

  PageKey Key(uint32_t pid) const { return MakePageKey(owner, pid); }

  void RecordError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error.ok()) first_error = status;
    abort.store(true, std::memory_order_release);
  }

  bool aborted() const { return abort.load(std::memory_order_acquire); }

  /// Polls the external cancellation flag (deadline watchdogs); turns it
  /// into the run-wide abort. Returns the combined abort state.
  bool CheckCancel() {
    if (!aborted() && options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      if (flight != nullptr) flight->Record(FlightEventType::kCancel);
      RecordError(Status::Aborted("query cancelled"));
    }
    return aborted();
  }

  void RecordFetch(BufferPool::FetchOutcome outcome, uint32_t pid) {
    if (flight == nullptr) return;
    switch (outcome) {
      case BufferPool::FetchOutcome::kHit:
        flight->Record(FlightEventType::kFetchHit, pid);
        break;
      case BufferPool::FetchOutcome::kInFlight:
        flight->Record(FlightEventType::kFetchInFlight, pid);
        break;
      case BufferPool::FetchOutcome::kMiss:
        flight->Record(FlightEventType::kFetchMiss, pid);
        break;
    }
  }

  bool InternalDone() const {
    return internal_pages_done.load(std::memory_order_acquire) >=
           internal_page_count;
  }
};

/// Parses one internal page and appends the model's external candidates
/// (Algorithm 7: IdentifyExternalCandidateVertex).
void CollectCandidatesFromPage(RunContext* ctx, const char* data) {
  PageView page(data, ctx->store->page_size());
  std::vector<VertexId> local;
  const uint32_t slots = page.num_slots();
  for (uint32_t s = 0; s < slots; ++s) {
    const Segment seg = page.GetSegment(s);
    if (seg.vertex < ctx->plan.v_lo || seg.vertex > ctx->plan.v_hi) continue;
    ctx->model->CollectCandidates(ctx->plan, seg, &local);
  }
  if (!local.empty()) {
    std::lock_guard<std::mutex> lock(ctx->candidate_mutex);
    ctx->candidates.insert(ctx->candidates.end(), local.begin(),
                           local.end());
  }
}

/// Runs the internal triangulation for one page of the internal area
/// (the page-granular parallel loop of Algorithm 5).
void ProcessInternalPage(RunContext* ctx, uint32_t page_index,
                         ModelScratch* scratch) {
  Stopwatch watch;
  OverlapProfiler::SetWork(/*internal_work=*/true);
  if (!ctx->CheckCancel()) {
    PageView page(ctx->internal_page_data[page_index],
                  ctx->store->page_size());
    const uint32_t slots = page.num_slots();
    for (uint32_t s = 0; s < slots; ++s) {
      const Segment seg = page.GetSegment(s);
      // A record is processed once, by the page holding its first segment.
      if (!seg.IsFirstSegment()) continue;
      if (seg.vertex < ctx->plan.v_lo || seg.vertex > ctx->plan.v_hi) {
        continue;
      }
      ctx->model->InternalTriangles(ctx->internal_view, ctx->plan,
                                    seg.vertex, ctx->sink, scratch);
    }
  }
  ctx->internal_cpu_micros.fetch_add(
      static_cast<uint64_t>(watch.ElapsedMicros()),
      std::memory_order_relaxed);
  ctx->internal_pages_done.fetch_add(1, std::memory_order_acq_rel);
}

/// Claims and runs one internal page. Returns false when none remain.
bool RunOneInternalUnit(RunContext* ctx, ModelScratch* scratch) {
  const uint32_t i =
      ctx->internal_cursor.fetch_add(1, std::memory_order_relaxed);
  if (i >= ctx->internal_page_count) return false;
  ProcessInternalPage(ctx, i, scratch);
  return true;
}

void SubmitChunk(RunContext* ctx, Chunk chunk);

/// The L_now/L_later regulator of Algorithm 4: submits queued chunks
/// while the in-flight external page budget (m_ex) allows. Completions
/// return budget and pump again, which realizes Algorithm 9's chained
/// asynchronous reads. On abort the remaining queue is dropped instead
/// of read — cancellation should not pay for I/O it will ignore.
void PumpExternal(RunContext* ctx) {
  std::vector<Chunk> to_submit;
  uint32_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(ctx->later_mutex);
    if (ctx->aborted()) {
      dropped = static_cast<uint32_t>(ctx->later.size());
      ctx->later.clear();
    } else {
      while (!ctx->later.empty() &&
             ctx->ext_used + ctx->later.front().page_count <=
                 ctx->ext_capacity) {
        ctx->ext_used += ctx->later.front().page_count;
        to_submit.push_back(std::move(ctx->later.front()));
        ctx->later.pop_front();
      }
    }
  }
  for (auto& chunk : to_submit) SubmitChunk(ctx, std::move(chunk));
  for (uint32_t i = 0; i < dropped; ++i) ctx->group_ex.Done();
}

/// Algorithm 9: ExternalTriangle for one loaded chunk, then chain the
/// next read from L_later.
void ProcessChunk(RunContext* ctx, Chunk chunk,
                  std::vector<Frame*> frames) {
  Stopwatch watch;
  TraceSpan chunk_span(
      "opt", "external.chunk",
      CurrentTraceRecorder() != nullptr
          ? "\"first_pid\":" + std::to_string(chunk.first_pid) +
                ",\"pages\":" + std::to_string(chunk.page_count) +
                ",\"candidates\":" + std::to_string(chunk.candidates.size())
          : std::string());
  // Frames fetched as in-flight are being loaded by a concurrent query
  // sharing the pool, or by this run's neighbouring chunk when the two
  // share a boundary page. Either way the reading I/O worker publishes
  // their validity, never our completion drain, so this wait always
  // makes progress.
  OverlapProfiler::SetRole(ThreadRole::kIoWait);
  Status frames_ready;
  for (size_t i = 0; i < frames.size(); ++i) {
    frames_ready =
        ctx->pool->WaitValid(frames[i], kPoolWaitTimeoutMillis);
    if (!frames_ready.ok()) {
      if (ctx->flight != nullptr && frames_ready.IsUnavailable()) {
        ctx->flight->Record(FlightEventType::kWaitTimeout,
                            chunk.first_pid + static_cast<uint32_t>(i));
      }
      ctx->RecordError(frames_ready);
      break;
    }
  }
  OverlapProfiler::SetWork(/*internal_work=*/false);
  if (frames_ready.ok() && !ctx->CheckCancel()) {
    std::vector<const char*> data;
    data.reserve(frames.size());
    for (Frame* f : frames) data.push_back(f->data);
    PageRangeView view;
    Status s = view.Build(*ctx->store, chunk.first_pid, data);
    if (!s.ok()) {
      ctx->RecordError(s);
    } else {
      ModelScratch scratch;
      for (VertexId v : chunk.candidates) {
        // Refresh the slot each candidate so a long chunk never trips
        // the sampler's stall guard mid-CPU-burst.
        OverlapProfiler::SetWork(/*internal_work=*/false);
        if (!view.HasFull(v)) {
          ctx->RecordError(Status::Corruption(
              "external candidate " + std::to_string(v) +
              " not fully covered by its chunk"));
          break;
        }
        ctx->model->ExternalTriangles(ctx->internal_view, ctx->plan, v,
                                      view.Get(v), ctx->sink, &scratch);
      }
    }
  }
  for (Frame* f : frames) ctx->pool->Unpin(f);
  ctx->external_cpu_micros.fetch_add(
      static_cast<uint64_t>(watch.ElapsedMicros()),
      std::memory_order_relaxed);

  // Return the budget and chain further requests (the paper's atomic
  // block, lines 9-13).
  {
    std::lock_guard<std::mutex> lock(ctx->later_mutex);
    ctx->ext_used -= chunk.page_count;
  }
  PumpExternal(ctx);
  ctx->group_ex.Done();
}

/// Issues the asynchronous reads for one chunk; pages already cached in
/// the buffer pool — by this run's earlier iterations or by concurrent
/// queries on a shared pool — are reused without I/O (the Δ-I/O savings
/// of §3.3).
void SubmitChunk(RunContext* ctx, Chunk chunk) {
  struct ChunkState {
    RunContext* ctx;
    Chunk chunk;
    std::vector<Frame*> frames;
    std::atomic<uint32_t> pending{0};
  };
  auto state = std::make_shared<ChunkState>();
  state->ctx = ctx;
  state->frames.resize(chunk.page_count, nullptr);

  // Fetch in the queue's page order: under the backward order the page
  // this chunk shares with the one submitted just before is its last
  // page, so it is pinned first, before this chunk's misses can evict it.
  const bool backward = ctx->options.backward_external_order;
  std::vector<uint32_t> missing;
  for (uint32_t n = 0; n < chunk.page_count; ++n) {
    const uint32_t i = backward ? chunk.page_count - 1 - n : n;
    const uint32_t pid = chunk.first_pid + i;
    auto fetch = ctx->pool->Fetch(ctx->Key(pid));
    if (!fetch.ok()) {
      ctx->RecordError(fetch.status());
      // Roll back: owned misses must be published as failed before the
      // pin drops, or concurrent waiters would hang on them forever.
      for (uint32_t j : missing) ctx->pool->MarkFailed(state->frames[j]);
      for (Frame* f : state->frames) {
        if (f != nullptr) ctx->pool->Unpin(f);
      }
      {
        std::lock_guard<std::mutex> lock(ctx->later_mutex);
        ctx->ext_used -= chunk.page_count;
      }
      ctx->group_ex.Done();
      return;
    }
    state->frames[i] = fetch->frame;
    ctx->RecordFetch(fetch->outcome, pid);
    if (fetch->outcome == BufferPool::FetchOutcome::kMiss) {
      missing.push_back(i);
    }
  }
  ctx->external_pages.fetch_add(missing.size(), std::memory_order_relaxed);
  state->chunk = std::move(chunk);

  if (missing.empty()) {
    // Fully cached: skip the device, go straight to the callback queue.
    ctx->completions.Push([state] {
      ProcessChunk(state->ctx, std::move(state->chunk),
                   std::move(state->frames));
    });
    return;
  }
  state->pending.store(static_cast<uint32_t>(missing.size()),
                       std::memory_order_release);
  for (uint32_t index : missing) {
    const uint32_t pid = state->chunk.first_pid + index;
    Frame* frame = state->frames[index];
    ReadRequest request;
    request.file = ctx->store->file();
    request.first_pid = pid;
    request.page_count = 1;
    request.frames = {frame};
    request.completion_queue = &ctx->completions;
    // The I/O worker validates and publishes the frame (MarkValid /
    // MarkFailed) before this callback is queued.
    request.pool = ctx->pool;
    request.validate = ctx->options.validate_pages;
    request.flight = ctx->flight;
    request.callback = [state](const Status& status) {
      RunContext* ctx = state->ctx;
      if (!status.ok()) ctx->RecordError(status);
      if (state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ProcessChunk(ctx, std::move(state->chunk),
                     std::move(state->frames));
      }
    };
    ctx->engine->Submit(std::move(request));
  }
}

/// True when the iteration's external triangulation has fully finished.
bool ExternalDone(RunContext* ctx) { return ctx->group_ex.Finished(); }

/// Drains completion tasks until the external side is finished; with
/// morphing, steals internal pages while the queue is empty.
void DrainExternal(RunContext* ctx, bool allow_morph,
                   ModelScratch* scratch) {
  bool morph_traced = false;
  while (!ExternalDone(ctx)) {
    if (auto task = ctx->completions.TryPop()) {
      (*task)();
      continue;
    }
    if (allow_morph && RunOneInternalUnit(ctx, scratch)) {
      if (!morph_traced) {
        // First steal only: one marker per morph transition, not one
        // per stolen page.
        TraceInstant("morph", "morph.steal_internal");
        if (ctx->profiler != nullptr) ctx->profiler->RecordMorph();
        if (ctx->flight != nullptr) {
          ctx->flight->Record(FlightEventType::kMorphStealInternal);
        }
        morph_traced = true;
      }
      continue;
    }
    OverlapProfiler::SetRole(ThreadRole::kIoWait);
    if (auto task = ctx->completions.PopFor(200)) (*task)();
  }
}

/// The callback-thread role for one iteration's overlapped phase:
/// external triangulation first, then (if morphing) internal stealing.
void CallbackRole(RunContext* ctx) {
  TraceSpan role_span("opt", "external.callback_role");
  OverlapProfiler::ThreadScope profile_scope(ctx->profiler,
                                             ThreadRole::kExternal);
  PerfScope perf_scope(ctx->PerfSink(&ctx->perf_c));
  ModelScratch scratch;
  DrainExternal(ctx, ctx->options.thread_morphing, &scratch);
  if (ctx->options.thread_morphing) {
    while (RunOneInternalUnit(ctx, &scratch)) {
    }
  }
}

/// Extra workers prefer internal pages, then morph into callbacks.
void FlexRole(RunContext* ctx) {
  TraceSpan role_span("opt", "internal.flex_role");
  OverlapProfiler::ThreadScope profile_scope(ctx->profiler,
                                             ThreadRole::kInternal);
  PerfScope perf_scope(ctx->PerfSink(&ctx->perf_c));
  ModelScratch scratch;
  while (RunOneInternalUnit(ctx, &scratch)) {
  }
  if (ctx->options.thread_morphing) {
    if (!ExternalDone(ctx)) {
      TraceInstant("morph", "morph.to_external");
      if (ctx->profiler != nullptr) ctx->profiler->RecordMorph();
      if (ctx->flight != nullptr) {
        ctx->flight->Record(FlightEventType::kMorphToExternal);
      }
    }
    DrainExternal(ctx, /*allow_morph=*/true, &scratch);
  }
}

}  // namespace

OptRunner::OptRunner(GraphStore* store, const IteratorModel* model,
                     const OptOptions& options)
    : store_(store), model_(model), options_(options) {}

Status OptRunner::Run(TriangleSink* sink, OptRunStats* stats) {
  if (options_.m_in == 0 || options_.m_ex == 0) {
    return Status::InvalidArgument("m_in and m_ex must be positive");
  }
  if (options_.kernel.has_value()) {
    OPT_RETURN_IF_ERROR(SetIntersectKernel(*options_.kernel));
  }
  if (options_.m_in < store_->MaxRecordPages()) {
    return Status::ResourceExhausted(
        "internal area (" + std::to_string(options_.m_in) +
        " pages) smaller than the largest adjacency list (" +
        std::to_string(store_->MaxRecordPages()) + " pages)");
  }
  if (options_.shared_pool != nullptr &&
      options_.shared_pool->page_size() != store_->page_size()) {
    return Status::InvalidArgument(
        "shared pool page size (" +
        std::to_string(options_.shared_pool->page_size()) +
        ") does not match the store's (" +
        std::to_string(store_->page_size()) + ")");
  }
  if (store_->num_vertices() == 0) {
    if (stats != nullptr) *stats = OptRunStats();
    return sink->Finish();
  }

  Stopwatch total_watch;
  TraceSpan run_span("opt", "opt.run",
                     "\"vertices\":" +
                         std::to_string(store_->num_vertices()) +
                         ",\"m_in\":" + std::to_string(options_.m_in) +
                         ",\"m_ex\":" + std::to_string(options_.m_ex));
  // Declaration order is load-bearing: the context (and its completion
  // queue) and the pool must outlive the engine, whose destructor joins
  // the I/O workers — a worker's completion push or frame publication
  // may otherwise race their destruction at the end of Run(). The
  // profiler outlives every ThreadScope referencing it (helpers join in
  // phase C; the main scope below is destroyed first).
  std::optional<OverlapProfiler> profiler;
  if (options_.profile) {
    OverlapProfiler::Options profile_options;
    profile_options.period_micros =
        options_.profile_period_micros == 0 ? 1000
                                            : options_.profile_period_micros;
    profiler.emplace(profile_options);
  }
  OverlapProfiler::ThreadScope main_profile_scope(
      profiler.has_value() ? &*profiler : nullptr, ThreadRole::kInternal);
  RunContext ctx;
  // Merged chunks are capped so one per worker fits in the in-flight
  // budget (m_ex), which thus only grows for a record longer than m_ex.
  // m_in + m_ex frames as in the paper; a shared pool instead *reserves*
  // that capacity so concurrent queries compose.
  const uint32_t workers =
      options_.macro_overlap ? std::max(1u, options_.num_threads) : 1;
  const uint32_t chunk_cap =
      std::max(store_->MaxRecordPages(), options_.m_ex / workers);
  ctx.ext_capacity = std::max(options_.m_ex, store_->MaxRecordPages());
  std::optional<BufferPool> private_pool;
  BufferPool* pool = options_.shared_pool;
  if (pool == nullptr) {
    private_pool.emplace(store_->page_size(),
                         options_.m_in + ctx.ext_capacity + 2);
    pool = &*private_pool;
  }
  FrameReservation reservation(pool, options_.m_in + ctx.ext_capacity + 2);
  AsyncIoEngine engine(options_.io_queue_depth, options_.io_retry);

  ctx.store = store_;
  ctx.model = model_;
  ctx.options = options_;
  ctx.sink = sink;
  ctx.pool = pool;
  ctx.owner = options_.shared_pool != nullptr ? options_.pool_owner : 0;
  ctx.engine = &engine;
  ctx.profiler = profiler.has_value() ? &*profiler : nullptr;
  ctx.flight = options_.flight;

  OptRunStats run_stats;
  const VertexId n = store_->num_vertices();
  VertexId v_start = 0;
  while (v_start < n && !ctx.CheckCancel()) {
    OPT_ASSIGN_OR_RETURN(ctx.plan,
                         store_->PlanIteration(v_start, options_.m_in));
    IterationStats iter;
    iter.v_lo = ctx.plan.v_lo;
    iter.v_hi = ctx.plan.v_hi;
    const IntersectCounters intersect_start = SnapshotIntersectCounters();
    TraceSpan iter_span("opt", "iteration",
                        "\"v_lo\":" + std::to_string(ctx.plan.v_lo) +
                            ",\"v_hi\":" + std::to_string(ctx.plan.v_hi));

    // ----- Phase A: fill the internal area (Algorithm 3 lines 5-8) -----
    std::optional<TraceSpan> phase_span;
    phase_span.emplace("opt", "phaseA.load");
    // Main-thread PMU scope, re-aimed at each phase boundary (workers
    // fold into perf_c via their own scopes). optional::emplace stops
    // the previous scope before snapshotting the next, so no cycle is
    // counted twice.
    std::optional<PerfScope> perf_scope;
    perf_scope.emplace(ctx.PerfSink(&ctx.perf_a));
    Stopwatch load_watch;
    const uint32_t pages = ctx.plan.num_pages();
    ctx.internal_frames.assign(pages, nullptr);
    ctx.internal_page_data.assign(pages, nullptr);
    ctx.internal_page_count = pages;
    ctx.internal_cursor.store(0);
    ctx.internal_pages_done.store(0);
    ctx.candidates.clear();
    ctx.internal_cpu_micros.store(0);
    ctx.external_cpu_micros.store(0);
    ctx.external_pages.store(0);

    for (uint32_t i = 0; i < pages; ++i) {
      const uint32_t pid = ctx.plan.pid_lo + i;
      auto fetch = pool->Fetch(ctx.Key(pid));
      if (!fetch.ok()) {
        ctx.RecordError(fetch.status());
        break;
      }
      Frame* f = fetch->frame;
      ctx.internal_frames[i] = f;
      ctx.RecordFetch(fetch->outcome, pid);
      if (fetch->outcome == BufferPool::FetchOutcome::kMiss) {
        ctx.group_in.Add();
        ReadRequest request;
        request.file = store_->file();
        request.first_pid = pid;
        request.page_count = 1;
        request.frames = {f};
        request.completion_queue = &ctx.completions;
        // Validation and MarkValid/MarkFailed happen on the I/O worker.
        request.pool = pool;
        request.validate = options_.validate_pages;
        request.flight = ctx.flight;
        RunContext* pctx = &ctx;
        request.callback = [pctx, f](const Status& status) {
          if (!status.ok()) {
            pctx->RecordError(status);
          } else if (!pctx->aborted()) {
            CollectCandidatesFromPage(pctx, f->data);
          }
          pctx->group_in.Done();
        };
        engine.Submit(std::move(request));
        continue;
      }
      // Buffered by a previous iteration's external loads or by a
      // concurrent query — the paper's Δin I/O saving either way.
      iter.internal_cache_hits++;
      if (fetch->outcome == BufferPool::FetchOutcome::kInFlight) {
        OverlapProfiler::SetRole(ThreadRole::kIoWait);
        const Status w = pool->WaitValid(f, kPoolWaitTimeoutMillis);
        if (!w.ok()) {
          if (ctx.flight != nullptr && w.IsUnavailable()) {
            ctx.flight->Record(FlightEventType::kWaitTimeout, pid);
          }
          ctx.RecordError(w);
          break;
        }
      }
      OverlapProfiler::SetWork(/*internal_work=*/true);
      CollectCandidatesFromPage(&ctx, f->data);
    }
    // The main thread drains completion callbacks while remaining reads
    // are in flight (micro-level overlap of load and candidate parsing).
    while (!ctx.group_in.Finished()) {
      OverlapProfiler::SetRole(ThreadRole::kIoWait);
      if (auto task = ctx.completions.PopFor(200)) {
        OverlapProfiler::SetWork(/*internal_work=*/true);
        (*task)();
      }
    }
    OverlapProfiler::SetWork(/*internal_work=*/true);
    if (ctx.aborted()) {
      for (Frame* f : ctx.internal_frames) {
        if (f != nullptr) pool->Unpin(f);
      }
      break;
    }
    iter.internal_pages = pages;
    iter.load_seconds = load_watch.ElapsedSeconds();

    // ----- Phase B: plan the external loads (Algorithm 4) -----
    phase_span.emplace("opt", "phaseB.plan");
    perf_scope.emplace(ctx.PerfSink(&ctx.perf_b));
    Stopwatch plan_watch;
    for (uint32_t i = 0; i < pages; ++i) {
      ctx.internal_page_data[i] = ctx.internal_frames[i]->data;
    }
    Status view_status = ctx.internal_view.Build(
        *store_, ctx.plan.pid_lo, ctx.internal_page_data);
    if (!view_status.ok()) {
      ctx.RecordError(view_status);
      for (Frame* f : ctx.internal_frames) pool->Unpin(f);
      break;
    }

    std::sort(ctx.candidates.begin(), ctx.candidates.end());
    ctx.candidates.erase(
        std::unique(ctx.candidates.begin(), ctx.candidates.end()),
        ctx.candidates.end());
    iter.candidates = ctx.candidates.size();

    // Order by descending page id so the pages nearest the internal area
    // are loaded last and survive in the pool for the next iteration.
    uint64_t planned_pages = 0;
    std::vector<Chunk> chunks =
        PlanChunks(*store_, ctx.candidates, chunk_cap, &planned_pages);
    if (options_.backward_external_order) {
      std::reverse(chunks.begin(), chunks.end());
    }
    iter.chunks = chunks.size();
    {
      std::lock_guard<std::mutex> lock(ctx.later_mutex);
      ctx.later.clear();
      ctx.ext_used = 0;
      for (auto& chunk : chunks) ctx.later.push_back(std::move(chunk));
    }
    ctx.group_ex.Add(static_cast<uint32_t>(chunks.size()));
    run_stats.serial_seconds +=
        iter.load_seconds + plan_watch.ElapsedSeconds();

    // ----- Phase C: overlapped triangulation (Algorithm 3 lines 9-11) --
    phase_span.emplace("opt", "phaseC.overlap");
    perf_scope.emplace(ctx.PerfSink(&ctx.perf_c));
    Stopwatch overlap_watch;
    PumpExternal(&ctx);

    if (options_.macro_overlap) {
      std::vector<std::thread> helpers;
      helpers.emplace_back(CallbackRole, &ctx);
      for (uint32_t t = 2; t < options_.num_threads; ++t) {
        helpers.emplace_back(FlexRole, &ctx);
      }
      // Main thread: internal triangulation, then morph into a callback
      // drainer (or plain wait when morphing is off).
      ModelScratch scratch;
      {
        TraceSpan internal_span("opt", "internal.main");
        while (RunOneInternalUnit(&ctx, &scratch)) {
        }
      }
      if (options_.thread_morphing) {
        if (!ExternalDone(&ctx)) {
          TraceInstant("morph", "morph.to_external");
          if (ctx.profiler != nullptr) ctx.profiler->RecordMorph();
          if (ctx.flight != nullptr) {
            ctx.flight->Record(FlightEventType::kMorphToExternal);
          }
        }
        DrainExternal(&ctx, /*allow_morph=*/true, &scratch);
      }
      OverlapProfiler::SetRole(ThreadRole::kIoWait);
      ctx.group_ex.Wait();
      for (auto& h : helpers) h.join();
    } else {
      // OPT_serial: internal first, then external, one thread. The async
      // reads issued above progress meanwhile (micro-level overlap).
      ModelScratch scratch;
      {
        TraceSpan internal_span("opt", "internal.main");
        while (RunOneInternalUnit(&ctx, &scratch)) {
        }
      }
      DrainExternal(&ctx, /*allow_morph=*/false, &scratch);
      OverlapProfiler::SetRole(ThreadRole::kIoWait);
      ctx.group_ex.Wait();
    }
    phase_span.reset();
    perf_scope.reset();
    if (options_.collect_perf && CurrentTraceRecorder() != nullptr) {
      // Counter tracks next to the PR 5 overlap tracks: cumulative CPU
      // per phase (stacked staircase) plus the run's efficiency ratios.
      const PerfReading pa = ctx.perf_a.Snapshot();
      const PerfReading pb = ctx.perf_b.Snapshot();
      const PerfReading pc = ctx.perf_c.Snapshot();
      TraceCounter(
          "perf", "perf.task_clock_ms",
          "\"phaseA\":" + std::to_string(pa.task_clock_ns / 1000000) +
              ",\"phaseB\":" + std::to_string(pb.task_clock_ns / 1000000) +
              ",\"phaseC\":" + std::to_string(pc.task_clock_ns / 1000000));
      PerfReading sum = pa;
      sum.Accumulate(pb);
      sum.Accumulate(pc);
      if (sum.cycles > 0) {
        TraceCounter("perf", "perf.ipc",
                     "\"ipc\":" + std::to_string(sum.Ipc()));
      }
      if (sum.llc_loads > 0) {
        TraceCounter(
            "perf", "perf.llc_miss_pct",
            "\"pct\":" + std::to_string(sum.LlcMissRate() * 100.0));
      }
    }
    iter.overlap_seconds = overlap_watch.ElapsedSeconds();
    run_stats.parallel_seconds += iter.overlap_seconds;

    // ----- Phase D: unpin the internal area (Algorithm 3 lines 12-13) --
    for (Frame* f : ctx.internal_frames) pool->Unpin(f);

    iter.internal_cpu_seconds =
        static_cast<double>(ctx.internal_cpu_micros.load()) * 1e-6;
    iter.external_cpu_seconds =
        static_cast<double>(ctx.external_cpu_micros.load()) * 1e-6;
    iter.external_pages = ctx.external_pages.load();
    // Δex counts each page once: a boundary page two chunks pin is one
    // page, and an aborted iteration's dropped chunks saved nothing.
    if (!ctx.aborted()) {
      iter.external_cache_hits =
          planned_pages - std::min(planned_pages, iter.external_pages);
    }
    iter.intersect = IntersectCounters::Delta(SnapshotIntersectCounters(),
                                              intersect_start);
    run_stats.intersect.Accumulate(iter.intersect);

    run_stats.iterations++;
    run_stats.internal_pages_read +=
        iter.internal_pages - iter.internal_cache_hits;
    run_stats.internal_cache_hits += iter.internal_cache_hits;
    run_stats.external_pages_read += iter.external_pages;
    run_stats.external_cache_hits += iter.external_cache_hits;
    run_stats.per_iteration.push_back(iter);

    if (ctx.aborted()) break;
    v_start = ctx.plan.v_hi + 1;
  }

  run_stats.perf_backend = ActivePerfBackend();
  run_stats.perf_phase_a = ctx.perf_a.Snapshot();
  run_stats.perf_phase_b = ctx.perf_b.Snapshot();
  run_stats.perf_phase_c = ctx.perf_c.Snapshot();

  // Publish the run's page accounting into the live registry whether the
  // run succeeded or aborted — partial I/O still happened and the Δin/Δex
  // identity must account for it.
  PublishRunStats(run_stats);

  {
    std::lock_guard<std::mutex> lock(ctx.error_mutex);
    if (!ctx.first_error.ok()) {
      // Unrecoverable *device* faults (retry budget exhausted on EIO,
      // waiter timed out) degrade this query, not the process: the
      // typed Unavailable tells the service layer the store is intact
      // and a retry may succeed. Corruption is different — a page whose
      // CRC still fails after every reread is data damage, not device
      // flakiness — so it keeps its code (VerifyAllPages locates it)
      // instead of inviting clients to retry forever against a damaged
      // store. Cancellation, planning errors, and sink failures keep
      // their own codes too.
      if (ctx.first_error.IsIOError() || ctx.first_error.IsUnavailable()) {
        const Status degraded =
            Status::Unavailable("triangulation degraded by I/O fault: " +
                                ctx.first_error.ToString());
        if (ctx.flight != nullptr) {
          ctx.flight->Record(FlightEventType::kDegrade,
                             static_cast<uint64_t>(degraded.code()));
        }
        return degraded;
      }
      return ctx.first_error;
    }
  }
  OPT_RETURN_IF_ERROR(sink->Finish());
  run_stats.elapsed_seconds = total_watch.ElapsedSeconds();
  if (profiler.has_value()) {
    profiler->Stop();
    run_stats.profiled = true;
    run_stats.overlap = profiler->Report();
    // Fit the cost model (§3.3): c is the measured per-page read
    // latency; Cost(ideal) is the run's CPU work plus one sequential
    // pass over the internal areas; the prediction adds c(Δex − Δin)
    // where Δin is pages the pool saved the internal fill and Δex is
    // pages the external loads actually re-read.
    const AsyncIoStats& io = engine.stats();
    const uint64_t pages_read =
        io.pages_read.load(std::memory_order_relaxed);
    const double c =
        pages_read == 0
            ? 0.0
            : static_cast<double>(
                  io.read_micros.load(std::memory_order_relaxed)) *
                  1e-6 / static_cast<double>(pages_read);
    double cpu_seconds = 0;
    for (const IterationStats& iter : run_stats.per_iteration) {
      cpu_seconds += iter.internal_cpu_seconds + iter.external_cpu_seconds;
    }
    const uint64_t one_pass_pages =
        run_stats.internal_pages_read + run_stats.internal_cache_hits;
    OverlapCostModel& cost = run_stats.overlap.cost;
    cost.c_seconds_per_page = c;
    cost.delta_in_pages = run_stats.internal_cache_hits;
    cost.delta_ex_pages = run_stats.external_pages_read;
    cost.ideal_seconds =
        cpu_seconds + c * static_cast<double>(one_pass_pages);
    cost.predicted_seconds =
        cost.ideal_seconds +
        c * (static_cast<double>(cost.delta_ex_pages) -
             static_cast<double>(cost.delta_in_pages));
    cost.measured_seconds = run_stats.elapsed_seconds;
    cost.residual_seconds = cost.measured_seconds - cost.predicted_seconds;
  }
  if (stats != nullptr) *stats = std::move(run_stats);
  return Status::OK();
}

}  // namespace opt
