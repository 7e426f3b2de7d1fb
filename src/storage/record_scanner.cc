#include "storage/record_scanner.h"

#include "storage/page.h"
#include "util/aligned_buffer.h"

namespace opt {

Status ScanRecords(
    const GraphStore& store, uint32_t first_pid, uint32_t last_pid,
    const std::function<void(VertexId, std::span<const VertexId>)>& fn,
    uint64_t* pages_read, bool validate_pages) {
  if (store.num_pages() == 0) return Status::OK();
  if (last_pid >= store.num_pages()) {
    return Status::OutOfRange("scan range beyond end of store");
  }
  const uint32_t page_size = store.page_size();
  AlignedBuffer buffer(page_size);

  VertexId pending_vertex = kInvalidVertex;
  uint32_t pending_expected = 0;
  std::vector<VertexId> pending;

  for (uint32_t pid = first_pid; pid <= last_pid; ++pid) {
    OPT_RETURN_IF_ERROR(store.file()->ReadPage(pid, buffer.data()));
    if (pages_read != nullptr) ++*pages_read;
    PageView page(buffer.data(), page_size);
    if (validate_pages) OPT_RETURN_IF_ERROR(page.Validate(pid));
    const uint32_t slots = page.num_slots();
    for (uint32_t s = 0; s < slots; ++s) {
      const Segment seg = page.GetSegment(s);
      if (seg.IsFirstSegment() && seg.IsLastSegment()) {
        fn(seg.vertex, seg.neighbors);
        pending_vertex = kInvalidVertex;
        continue;
      }
      if (seg.IsFirstSegment()) {
        pending_vertex = seg.vertex;
        pending_expected = seg.total_degree;
        pending.assign(seg.neighbors.begin(), seg.neighbors.end());
        continue;
      }
      if (seg.vertex != pending_vertex || seg.offset != pending.size()) {
        // Chain started before first_pid — skip this record.
        pending_vertex = kInvalidVertex;
        continue;
      }
      pending.insert(pending.end(), seg.neighbors.begin(),
                     seg.neighbors.end());
      if (seg.IsLastSegment()) {
        if (pending.size() != pending_expected) {
          return Status::Corruption("segment chain length mismatch in scan");
        }
        fn(pending_vertex, pending);
        pending_vertex = kInvalidVertex;
      }
    }
  }
  return Status::OK();
}

}  // namespace opt
