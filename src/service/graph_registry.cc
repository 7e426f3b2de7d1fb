#include "service/graph_registry.h"

#include <utility>

#include "core/page_range_view.h"
#include "storage/async_io.h"

namespace opt {

GraphRegistry::GraphRegistry(Env* env, const RegistryOptions& options)
    : env_(env), options_(options) {}

Status GraphRegistry::LoadGraph(const std::string& name,
                                const std::string& base_path) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  auto store = GraphStore::Open(env_, base_path);
  if (!store.ok()) return store.status();

  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<BufferPool>(
        (*store)->page_size(),
        std::max(options_.min_pool_frames, 1u));
  } else if (pool_->page_size() != (*store)->page_size()) {
    return Status::NotSupported(
        "graph '" + name + "' has page size " +
        std::to_string((*store)->page_size()) +
        " but the shared pool was sized for " +
        std::to_string(pool_->page_size()));
  }

  Entry entry;
  entry.store = std::shared_ptr<GraphStore>(std::move(store.value()));
  entry.base_path = base_path;
  entry.owner = next_owner_++;
  entry.epoch = next_epoch_++;
  entry.mutate_mutex = std::make_shared<std::mutex>();
  if (options_.approx_reservoir_edges > 0) {
    entry.estimator = std::make_shared<TriestEstimator>(
        options_.approx_reservoir_edges, options_.approx_seed);
  }

  auto it = graphs_.find(name);
  if (it != graphs_.end()) {
    // Reload: stale pages of the old incarnation must never satisfy a
    // lookup again (new owner tag guarantees it); reclaim the unpinned
    // ones eagerly. Pending deltas are discarded too — the store on
    // disk is the new truth, and in-flight ApplyEdgeDelta calls on the
    // old incarnation will fail their commit-time identity check.
    pool_->DropOwner(it->second.owner);
    it->second = std::move(entry);
  } else {
    graphs_.emplace(name, std::move(entry));
  }
  epoch_cv_.notify_all();
  return Status::OK();
}

Result<GraphRegistry::GraphHandle> GraphRegistry::Acquire(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("graph '" + name + "' is not registered");
  }
  GraphHandle handle;
  handle.name = name;
  handle.store = it->second.store;
  handle.overlay = it->second.overlay;
  handle.owner = it->second.owner;
  handle.epoch = it->second.epoch;
  return handle;
}

Result<GraphRegistry::DeltaOutcome> GraphRegistry::ApplyEdgeDelta(
    const std::string& name, DeltaKind kind, std::span<const Edge> edges) {
  // Snapshot the entry's store and its per-graph mutation lock.
  std::shared_ptr<GraphStore> store;
  std::shared_ptr<std::mutex> mutate;
  std::shared_ptr<TriestEstimator> estimator;
  uint32_t owner = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("graph '" + name + "' is not registered");
    }
    store = it->second.store;
    mutate = it->second.mutate_mutex;
    estimator = it->second.estimator;
    owner = it->second.owner;
  }

  // Serialize batches per graph. The registry mutex is NOT held while
  // the batch computes — queries acquire and run freely; they only see
  // the batch once it publishes below.
  std::lock_guard<std::mutex> apply_lock(*mutate);

  // Snapshot the overlay only now, under the mutation lock: a batch
  // that waited here must build on its predecessor's published overlay.
  // Reading it before the wait would validate and apply against a stale
  // view, and the commit below would silently overwrite the
  // predecessor's edges and triangle delta.
  std::shared_ptr<const DeltaOverlay> overlay;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(name);
    if (it == graphs_.end() || it->second.store != store) {
      return Status::Aborted("graph '" + name +
                             "' was reloaded while the delta was waiting; "
                             "batch not applied");
    }
    overlay = it->second.overlay;
  }

  // Base reads take the query path's page protocol: Fetch under the
  // graph's owner tag, so pages concurrent queries cached are hits; a
  // miss is read through ReadPageWithRetry (the one retry loop) and
  // published to waiters. The reservation keeps one record's page run
  // fetchable even while queries pin the rest of the pool. Terminal I/O
  // failure degrades the mutation to Unavailable (the delta is NOT
  // applied — nothing is ever silently dropped).
  BufferPool* const pool = pool_.get();
  FrameReservation reservation(pool, store->MaxRecordPages());
  AdjacencyFetcher fetch = [&](VertexId v, std::vector<VertexId>* out) {
    const uint32_t first_pid = store->FirstPageOfVertex(v);
    std::vector<Frame*> frames;
    std::vector<const char*> pages;
    Status status;
    for (uint32_t pid = first_pid;
         status.ok() && pid <= store->LastPageOfVertex(v); ++pid) {
      auto fetched = pool->Fetch(MakePageKey(owner, pid));
      if (!fetched.ok()) {
        status = fetched.status();
        break;
      }
      Frame* const frame = fetched->frame;
      frames.push_back(frame);
      pages.push_back(frame->data);
      if (fetched->outcome == BufferPool::FetchOutcome::kMiss) {
        status = ReadPageWithRetry(*store->file(), pid, frame->data,
                                   /*validate=*/true, IoRetryPolicy());
        if (status.ok()) {
          pool->MarkValid(frame);
        } else {
          pool->MarkFailed(frame);
        }
      } else if (fetched->outcome == BufferPool::FetchOutcome::kInFlight) {
        status = pool->WaitValid(frame, kPoolWaitTimeoutMillis);
      }
    }
    PageRangeView view;
    if (status.ok()) status = view.Build(*store, first_pid, pages);
    if (status.ok() && !view.HasFull(v)) {
      status = Status::Corruption("vertex " + std::to_string(v) +
                                  " missing from its page run");
    }
    if (status.ok()) {
      const auto neighbors = view.Get(v).all;
      out->assign(neighbors.begin(), neighbors.end());
    }
    for (Frame* frame : frames) pool->Unpin(frame);
    if (status.IsIOError()) {
      return Status::Unavailable("base adjacency of vertex " +
                                 std::to_string(v) + " unreadable: " +
                                 status.message());
    }
    return status;
  };

  DeltaApplyStats stats;
  auto next = DeltaOverlay::Apply(overlay.get(), kind, edges,
                                  static_cast<VertexId>(store->num_vertices()),
                                  fetch, &stats);
  if (!next.ok()) return next.status();

  DeltaOutcome outcome;
  outcome.edges_applied = stats.edges_applied;
  outcome.triangles_added = stats.triangles_added;
  outcome.triangles_removed = stats.triangles_removed;
  outcome.batch_triangle_delta =
      static_cast<int64_t>(stats.triangles_added) -
      static_cast<int64_t>(stats.triangles_removed);
  outcome.total_triangle_delta = (*next)->triangle_delta();

  // Publish: new overlay + bumped epoch as one atomic step. The store
  // identity check suffices to detect every concurrent change: while
  // this batch holds the mutation lock no other batch on the same
  // incarnation can publish, so the only way the entry's overlay can
  // differ from the one read above is a reload — which swaps the store.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(name);
    if (it == graphs_.end() || it->second.store != store) {
      return Status::Aborted("graph '" + name +
                             "' was reloaded while the delta was applying; "
                             "batch not applied");
    }
    it->second.overlay = std::move(next.value());
    it->second.epoch = next_epoch_++;
    outcome.epoch = it->second.epoch;
  }
  epoch_cv_.notify_all();

  // Feed the approximate counter after the exact commit (still under the
  // per-graph mutation lock, which guards the estimator).
  if (estimator != nullptr) {
    if (kind == DeltaKind::kAdd) {
      for (const Edge& e : edges) estimator->OnInsert(e.first, e.second);
    } else {
      // TRIÈST-IMPR is insert-only; removals invalidate the estimate.
      estimator->Taint();
    }
    outcome.approx_valid = estimator->valid();
    outcome.approx_triangles = estimator->estimate();
  }
  return outcome;
}

void GraphRegistry::SetBaseTriangles(const std::string& name,
                                     const GraphStore* store,
                                     uint64_t triangles) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end() || it->second.store.get() != store) return;
  it->second.base_triangles_known = true;
  it->second.base_triangles = triangles;
}

GraphRegistry::DeltaSnapshot GraphRegistry::SnapshotLocked(
    const Entry& entry) const {
  DeltaSnapshot snap;
  snap.epoch = entry.epoch;
  snap.base_known = entry.base_triangles_known;
  snap.base_triangles = entry.base_triangles;
  if (entry.overlay != nullptr) {
    snap.triangle_delta = entry.overlay->triangle_delta();
    snap.edges_added = entry.overlay->edges_added();
    snap.edges_removed = entry.overlay->edges_removed();
    snap.batches_applied = entry.overlay->batches_applied();
  }
  return snap;
}

Result<GraphRegistry::DeltaSnapshot> GraphRegistry::DeltaState(
    const std::string& name) const {
  std::shared_ptr<TriestEstimator> estimator;
  std::shared_ptr<std::mutex> mutate;
  DeltaSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("graph '" + name + "' is not registered");
    }
    snap = SnapshotLocked(it->second);
    estimator = it->second.estimator;
    mutate = it->second.mutate_mutex;
  }
  if (estimator != nullptr) {
    std::lock_guard<std::mutex> lock(*mutate);
    snap.approx_valid = estimator->valid() && estimator->stream_length() > 0;
    snap.approx_triangles = estimator->estimate();
    snap.approx_stream_length = estimator->stream_length();
  }
  return snap;
}

Result<GraphRegistry::DeltaSnapshot> GraphRegistry::WaitForEpoch(
    const std::string& name, uint64_t after_epoch,
    std::chrono::milliseconds timeout) const {
  // The timeout is client-controlled: adding a huge (or u64-wrapped
  // negative) value to steady_clock::now() overflows the time_point and
  // the wait would expire immediately instead of long-polling. Clamp to
  // a server-side ceiling; clients re-poll for longer waits.
  static constexpr std::chrono::milliseconds kMaxWait =
      std::chrono::minutes(5);
  if (timeout < std::chrono::milliseconds::zero() || timeout > kMaxWait) {
    timeout = kMaxWait;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool timed_out = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      auto it = graphs_.find(name);
      if (it == graphs_.end()) {
        return Status::NotFound("graph '" + name + "' is not registered");
      }
      if (it->second.epoch > after_epoch) break;
      if (epoch_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        timed_out = true;
        break;
      }
    }
  }
  auto snap = DeltaState(name);
  if (!snap.ok()) return snap.status();
  snap->timed_out = timed_out && snap->epoch <= after_epoch;
  return snap;
}

std::vector<GraphRegistry::GraphInfo> GraphRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GraphInfo> out;
  out.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) {
    GraphInfo info;
    info.name = name;
    info.base_path = entry.base_path;
    info.num_vertices = entry.store->num_vertices();
    info.num_directed_edges = entry.store->num_directed_edges();
    info.num_pages = entry.store->num_pages();
    info.page_size = entry.store->page_size();
    info.epoch = entry.epoch;
    if (entry.overlay != nullptr) {
      info.delta_edges_added = entry.overlay->edges_added();
      info.delta_edges_removed = entry.overlay->edges_removed();
      info.delta_triangles = entry.overlay->triangle_delta();
    }
    out.push_back(std::move(info));
  }
  return out;
}

size_t GraphRegistry::num_graphs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

}  // namespace opt
