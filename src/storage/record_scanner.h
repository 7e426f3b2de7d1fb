// Sequential full-scan of a GraphStore's records with synchronous reads,
// assembling page-spanning adjacency lists. Used by the scan-based
// baselines (MGT, Chu–Cheng, GraphChi-Tri) and by tools.
#ifndef OPT_STORAGE_RECORD_SCANNER_H_
#define OPT_STORAGE_RECORD_SCANNER_H_

#include <functional>
#include <span>

#include "storage/graph_store.h"
#include "util/status.h"

namespace opt {

/// Calls `fn(vertex, neighbors)` for every record in id order, reading
/// pages [first_pid, last_pid] (inclusive; pass 0, num_pages-1 for all).
/// Records whose first segment lies outside the range are skipped;
/// records whose chain continues past last_pid are skipped too.
/// `pages_read` (optional) accumulates the number of page reads issued.
Status ScanRecords(
    const GraphStore& store, uint32_t first_pid, uint32_t last_pid,
    const std::function<void(VertexId, std::span<const VertexId>)>& fn,
    uint64_t* pages_read = nullptr, bool validate_pages = true);

}  // namespace opt

#endif  // OPT_STORAGE_RECORD_SCANNER_H_
