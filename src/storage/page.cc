#include "storage/page.h"

#include <cassert>
#include <cstring>

#include "util/coding.h"
#include "util/crc32.h"

namespace opt {

PageBuilder::PageBuilder(char* buffer, uint32_t page_size, uint32_t page_id)
    : buffer_(buffer), page_size_(page_size), page_id_(page_id),
      data_end_(kPageHeaderSize) {
  assert(page_size >= kMinPageSize);
  std::memset(buffer_, 0, page_size_);
}

uint32_t PageBuilder::FreeNeighborCapacity() const {
  const uint32_t slot_space = (num_slots_ + 1) * kSlotSize;
  const uint32_t used = data_end_ + slot_space + kSegmentHeaderSize;
  if (used >= page_size_) return 0;
  return (page_size_ - used) / sizeof(VertexId);
}

void PageBuilder::AddSegment(VertexId vertex, uint32_t total_degree,
                             uint32_t offset,
                             std::span<const VertexId> neighbors) {
  assert(neighbors.size() <= FreeNeighborCapacity());
  if (num_slots_ == 0 && offset > 0) continues_ = true;
  // Slot directory entry (grows downward from the page end).
  const uint32_t slot_pos = page_size_ - (num_slots_ + 1) * kSlotSize;
  EncodeFixed32(buffer_ + slot_pos, data_end_);
  // Segment header + payload.
  EncodeFixed32(buffer_ + data_end_, vertex);
  EncodeFixed32(buffer_ + data_end_ + 4, total_degree);
  EncodeFixed32(buffer_ + data_end_ + 8, offset);
  EncodeFixed32(buffer_ + data_end_ + 12,
                static_cast<uint32_t>(neighbors.size()));
  if (!neighbors.empty()) {
    std::memcpy(buffer_ + data_end_ + kSegmentHeaderSize, neighbors.data(),
                neighbors.size() * sizeof(VertexId));
  }
  data_end_ += kSegmentHeaderSize +
               static_cast<uint32_t>(neighbors.size() * sizeof(VertexId));
  ++num_slots_;
}

void PageBuilder::Finish() {
  EncodeFixed32(buffer_, kPageMagic);
  EncodeFixed32(buffer_ + 4, page_id_);
  EncodeFixed32(buffer_ + 8, num_slots_);
  EncodeFixed32(buffer_ + 12, continues_ ? 1u : 0u);
  EncodeFixed32(buffer_ + 16, 0);  // crc placeholder
  EncodeFixed32(buffer_ + 16, ComputePageCrc(buffer_, page_size_));
}

uint32_t ComputePageCrc(const char* data, uint32_t page_size) {
  uint32_t crc = Crc32c(0, data, 16);
  static const char kZeros[4] = {0, 0, 0, 0};
  crc = Crc32c(crc, kZeros, 4);
  crc = Crc32c(crc, data + 20, page_size - 20);
  return crc;
}

Status PageView::Validate(uint32_t expected_page_id) const {
  if (DecodeFixed32(data_) != kPageMagic) {
    return Status::Corruption("bad page magic");
  }
  if (page_id() != expected_page_id) {
    return Status::Corruption("page id mismatch: expected " +
                              std::to_string(expected_page_id) + ", found " +
                              std::to_string(page_id()));
  }
  const uint32_t stored_crc = DecodeFixed32(data_ + 16);
  if (stored_crc != ComputePageCrc(data_, page_size_)) {
    return Status::Corruption("page " + std::to_string(page_id()) +
                              " CRC mismatch");
  }
  return Status::OK();
}

uint32_t PageView::page_id() const { return DecodeFixed32(data_ + 4); }

uint32_t PageView::num_slots() const { return DecodeFixed32(data_ + 8); }

bool PageView::first_segment_is_continuation() const {
  return (DecodeFixed32(data_ + 12) & 1u) != 0;
}

Segment PageView::GetSegment(uint32_t i) const {
  assert(i < num_slots());
  const uint32_t slot_pos = page_size_ - (i + 1) * kSlotSize;
  const uint32_t rec = DecodeFixed32(data_ + slot_pos);
  Segment seg;
  seg.vertex = DecodeFixed32(data_ + rec);
  seg.total_degree = DecodeFixed32(data_ + rec + 4);
  seg.offset = DecodeFixed32(data_ + rec + 8);
  const uint32_t count = DecodeFixed32(data_ + rec + 12);
  assert((rec + kSegmentHeaderSize) % alignof(VertexId) == 0);
  seg.neighbors = {reinterpret_cast<const VertexId*>(
                       data_ + rec + kSegmentHeaderSize),
                   count};
  return seg;
}

}  // namespace opt
