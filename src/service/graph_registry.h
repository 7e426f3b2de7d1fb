// Multi-graph registry for the query service: opens and pins GraphStores
// by name and owns the one BufferPool that every query and every delta
// batch reads through, so hot adjacency pages survive across queries
// (the paper's Δ I/O saving amortized over a workload, not one run).
// Each (re)load gets a fresh owner tag — the page-key namespace in the
// shared pool — and a monotonically increasing epoch that result-cache
// keys embed, so stale pages and stale cached answers can never be
// served after a reload.
//
// Streaming deltas: the on-disk store stays immutable between reloads;
// ADD_EDGES / REMOVE_EDGES batches land in a copy-on-write DeltaOverlay
// attached to the entry. ApplyEdgeDelta validates and applies the whole
// batch off to the side, then publishes the new overlay together with a
// bumped epoch under the registry lock — queries acquire (store,
// overlay, epoch) as one consistent snapshot, so no query ever observes
// a half-applied batch. Base pages in the shared pool stay valid across
// deltas (the owner tag only changes on reload). An optional TRIÈST
// reservoir estimator per graph tracks the insert stream for
// firehose-rate approximate counts.
#ifndef OPT_SERVICE_GRAPH_REGISTRY_H_
#define OPT_SERVICE_GRAPH_REGISTRY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/delta_overlay.h"
#include "graph/streaming_approx.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "util/status.h"

namespace opt {

struct RegistryOptions {
  /// Initial shared-pool size; queries reserve more as they run.
  uint32_t min_pool_frames = 64;
  /// Per-graph TRIÈST reservoir capacity for the approximate streaming
  /// counter; 0 disables it (the exact overlay path is always on).
  uint64_t approx_reservoir_edges = 0;
  uint64_t approx_seed = 0x7A1E57;
};

class GraphRegistry {
 public:
  /// A pinned view of one registered graph: holding the shared_ptr keeps
  /// the store alive across a reload of the same name. `overlay` is the
  /// delta state this epoch was published with (null = no deltas ever
  /// applied); store + overlay + epoch are one consistent snapshot.
  struct GraphHandle {
    std::string name;
    std::shared_ptr<GraphStore> store;
    std::shared_ptr<const DeltaOverlay> overlay;
    uint32_t owner = 0;   // page-key namespace in the shared pool
    uint64_t epoch = 0;   // bumps on every (re)load and applied batch
  };

  struct GraphInfo {
    std::string name;
    std::string base_path;
    uint64_t num_vertices = 0;
    uint64_t num_directed_edges = 0;
    uint32_t num_pages = 0;
    uint32_t page_size = 0;
    uint64_t epoch = 0;
    /// Residual streaming-delta state (zero when no deltas pending).
    uint64_t delta_edges_added = 0;
    uint64_t delta_edges_removed = 0;
    int64_t delta_triangles = 0;
  };

  /// Outcome of one applied delta batch.
  struct DeltaOutcome {
    uint64_t epoch = 0;             // epoch the batch published
    int64_t batch_triangle_delta = 0;
    int64_t total_triangle_delta = 0;  // overlay total after the batch
    uint64_t triangles_added = 0;
    uint64_t triangles_removed = 0;
    uint64_t edges_applied = 0;
    bool approx_valid = false;
    double approx_triangles = 0;    // triangles among streamed inserts
  };

  /// Count-state snapshot for SUBSCRIBE_COUNT and STATS.
  struct DeltaSnapshot {
    uint64_t epoch = 0;
    bool timed_out = false;      // set by WaitForEpoch on timeout
    bool base_known = false;     // base triangle count recorded yet?
    uint64_t base_triangles = 0;
    int64_t triangle_delta = 0;
    uint64_t edges_added = 0;
    uint64_t edges_removed = 0;
    uint64_t batches_applied = 0;
    bool approx_valid = false;
    double approx_triangles = 0;
    uint64_t approx_stream_length = 0;
  };

  explicit GraphRegistry(Env* env, const RegistryOptions& options = {});

  /// Opens the store at `base_path` and registers (or replaces) `name`.
  /// Queries already running on a replaced store finish on it; its
  /// unpinned pages are dropped from the shared pool immediately and the
  /// rest age out. A reload discards any pending delta overlay (the
  /// store on disk is the new truth). All stores must share one page
  /// size (the pool's frame size, fixed by the first load).
  Status LoadGraph(const std::string& name, const std::string& base_path);

  Result<GraphHandle> Acquire(const std::string& name) const;

  /// Applies one ADD_EDGES / REMOVE_EDGES batch atomically: the whole
  /// batch validates and computes off to the side, then the new overlay
  /// publishes with a bumped epoch — or nothing changes at all.
  /// Typed failures: InvalidArgument (self-loop, duplicate, wrong
  /// presence, id out of range) rejects the batch; Unavailable means
  /// base-adjacency reads failed past the retry budget (the delta was
  /// NOT applied and the caller should retry); Aborted means the graph
  /// was reloaded mid-apply. Batches on one graph serialize; queries
  /// are never blocked by an in-flight apply.
  Result<DeltaOutcome> ApplyEdgeDelta(const std::string& name,
                                      DeltaKind kind,
                                      std::span<const Edge> edges);

  /// Records the base store's exact triangle count (from a completed
  /// full run) so subscribe/stats paths can answer totals in O(1).
  /// Ignored if `store` is no longer the entry's current store.
  void SetBaseTriangles(const std::string& name, const GraphStore* store,
                        uint64_t triangles);

  Result<DeltaSnapshot> DeltaState(const std::string& name) const;

  /// Long-poll: blocks until the graph's epoch exceeds `after_epoch`
  /// (any applied batch or reload) or `timeout` elapses, then returns
  /// the current snapshot (`timed_out` set when the wait expired).
  /// Timeouts are clamped to a 5-minute ceiling (negative or absurd
  /// values would overflow the deadline); re-poll to wait longer.
  Result<DeltaSnapshot> WaitForEpoch(const std::string& name,
                                     uint64_t after_epoch,
                                     std::chrono::milliseconds timeout) const;

  std::vector<GraphInfo> List() const;

  /// Null until the first successful LoadGraph (the pool's page size
  /// comes from the first store).
  BufferPool* pool() { return pool_.get(); }

  Env* env() const { return env_; }
  size_t num_graphs() const;

 private:
  struct Entry {
    std::shared_ptr<GraphStore> store;
    std::string base_path;
    uint32_t owner = 0;
    uint64_t epoch = 0;
    std::shared_ptr<const DeltaOverlay> overlay;  // null = no deltas
    bool base_triangles_known = false;
    uint64_t base_triangles = 0;
    /// Serializes delta application per graph (never held while a
    /// query runs; readers only take the registry mutex).
    std::shared_ptr<std::mutex> mutate_mutex;
    /// Approximate insert-stream counter (null when disabled); guarded
    /// by mutate_mutex.
    std::shared_ptr<TriestEstimator> estimator;
  };

  DeltaSnapshot SnapshotLocked(const Entry& entry) const;

  Env* const env_;
  const RegistryOptions options_;

  mutable std::mutex mutex_;
  /// Signaled on every epoch bump (applied batch or reload).
  mutable std::condition_variable epoch_cv_;
  std::map<std::string, Entry> graphs_;
  std::unique_ptr<BufferPool> pool_;
  uint32_t next_owner_ = 1;
  uint64_t next_epoch_ = 1;
};

}  // namespace opt

#endif  // OPT_SERVICE_GRAPH_REGISTRY_H_
