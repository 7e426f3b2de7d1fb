// Sorted-list intersection kernels — the inner loop of every iterator
// model. Three scalar strategies: linear merge, galloping (for skewed
// list sizes), and hash-probe (the O(min(|a|,|b|)) variant the paper's
// cost analysis assumes, Eq. 3). The merge and galloping strategies also
// exist as SSE4.1 and AVX2 kernels (block-merge with cmpeq/shuffle
// compaction; galloping with a vectorized lower-bound probe), selected
// at runtime through a CPU-feature dispatch table so one binary runs the
// best kernel the host supports.
//
// All kernels agree with std::set_intersection on any sorted input,
// including duplicates (the SIMD block-merge detects duplicate runs and
// falls back to scalar stepping across them), so adversarial inputs are
// safe even though adjacency lists are duplicate-free in practice.
#ifndef OPT_GRAPH_INTERSECT_H_
#define OPT_GRAPH_INTERSECT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace opt {

// ---------------------------------------------------------------------------
// Kernel selection (process-wide dispatch table).
// ---------------------------------------------------------------------------

enum class IntersectKernel : uint8_t {
  kScalar = 0,  // portable C++ (always available)
  kSse = 1,     // SSE4.1 4-wide block-merge + SSE lower-bound galloping
  kAvx2 = 2,    // AVX2 8-wide block-merge + AVX2 lower-bound galloping
  kAuto = 3,    // resolve to the best CPU-supported kernel
};

/// Number of concrete kernels (kAuto is a selector, not a kernel).
inline constexpr int kNumIntersectKernels = 3;

const char* IntersectKernelName(IntersectKernel kernel);

/// True when the host CPU can execute `kernel` (cpuid-based feature
/// probe; kScalar and kAuto are always supported).
bool IntersectKernelSupported(IntersectKernel kernel);

/// The widest kernel the host CPU supports (what kAuto resolves to).
IntersectKernel BestIntersectKernel();

/// Parses "scalar" | "sse" | "avx2" | "auto" (the CLI knob).
Result<IntersectKernel> ParseIntersectKernel(const std::string& name);

/// Installs the process-wide kernel used by the dispatched Intersect /
/// IntersectCount entry points. kAuto restores best-supported. Returns
/// InvalidArgument for a kernel the host CPU cannot execute. Selection is
/// process-wide: concurrent runs share it (an ablation knob, not a
/// per-run isolation boundary).
Status SetIntersectKernel(IntersectKernel kernel);

/// The kernel the dispatched entry points currently run (kAuto already
/// resolved to a concrete kernel).
IntersectKernel ActiveIntersectKernel();

// ---------------------------------------------------------------------------
// Per-kernel instrumentation. Counters are process-wide, aggregated
// over thread-local cells, and monotonically increasing: measure a
// region by snapshotting before/after and taking the Delta.
// ---------------------------------------------------------------------------

struct IntersectCounters {
  /// Kernel invocations, indexed by IntersectKernel (concrete kernels).
  uint64_t calls[kNumIntersectKernels] = {};
  /// Elements consumed per call (|a| + |b|), same indexing.
  uint64_t elements[kNumIntersectKernels] = {};

  uint64_t TotalCalls() const {
    uint64_t total = 0;
    for (int k = 0; k < kNumIntersectKernels; ++k) total += calls[k];
    return total;
  }
  uint64_t TotalElements() const {
    uint64_t total = 0;
    for (int k = 0; k < kNumIntersectKernels; ++k) total += elements[k];
    return total;
  }
  void Accumulate(const IntersectCounters& other) {
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      calls[k] += other.calls[k];
      elements[k] += other.elements[k];
    }
  }
  static IntersectCounters Delta(const IntersectCounters& after,
                                 const IntersectCounters& before) {
    IntersectCounters d;
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      d.calls[k] = after.calls[k] - before.calls[k];
      d.elements[k] = after.elements[k] - before.elements[k];
    }
    return d;
  }
};

/// Sums the thread-local counter cells (live threads + retired ones).
IntersectCounters SnapshotIntersectCounters();

// ---------------------------------------------------------------------------
// Explicit-kernel entry points (ablation + tests). kAuto resolves to
// the best supported kernel; an unsupported kernel falls back to scalar
// so these are safe to call on any host.
// ---------------------------------------------------------------------------

size_t IntersectMergeWith(IntersectKernel kernel, std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out);
size_t IntersectGallopingWith(IntersectKernel kernel,
                              std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId>* out);
uint64_t IntersectCountMergeWith(IntersectKernel kernel,
                                 std::span<const VertexId> a,
                                 std::span<const VertexId> b);
uint64_t IntersectCountGallopingWith(IntersectKernel kernel,
                                     std::span<const VertexId> a,
                                     std::span<const VertexId> b);

// ---------------------------------------------------------------------------
// Scalar reference kernels (the portable fallback of the dispatch
// table; also the oracle side of the fuzz tests).
// ---------------------------------------------------------------------------

/// Appends a ∩ b (both sorted ascending) to *out. Returns count added.
size_t IntersectMerge(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>* out);

/// Galloping intersection: binary-searches the larger list for each
/// element of the smaller one. Wins when |a| << |b|.
size_t IntersectGalloping(std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out);

/// Hash-probe: builds an open-addressing table over the smaller list and
/// probes it with the larger — the O(1)-per-probe kernel the paper's
/// Eq. 3 cost model assumes.
size_t IntersectHash(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out);

/// Count-only variants (no output materialization) for counting sinks.
uint64_t IntersectCountMerge(std::span<const VertexId> a,
                             std::span<const VertexId> b);
uint64_t IntersectCountGalloping(std::span<const VertexId> a,
                                 std::span<const VertexId> b);
uint64_t IntersectCountHash(std::span<const VertexId> a,
                            std::span<const VertexId> b);

// ---------------------------------------------------------------------------
// Dispatched adaptive entry points (what the iterator models call):
// picks merge vs galloping from the size ratio, then runs the active
// kernel from the dispatch table.
// ---------------------------------------------------------------------------

size_t Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
                 std::vector<VertexId>* out);
uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b);

}  // namespace opt

#endif  // OPT_GRAPH_INTERSECT_H_
