#include "storage/graph_store.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"

namespace opt {

namespace {
constexpr uint64_t kMetaMagic = 0x4F50544D45544131ULL;  // "OPTMETA1"
}

// ---------------------------------------------------------------------------
// GraphStoreWriter
// ---------------------------------------------------------------------------

GraphStoreWriter::GraphStoreWriter(Env* env, std::string base_path,
                                   uint32_t page_size,
                                   std::unique_ptr<PageFileWriter> writer)
    : env_(env), base_path_(std::move(base_path)), page_size_(page_size),
      writer_(std::move(writer)), buffer_(page_size) {
  builder_ = std::make_unique<PageBuilder>(buffer_.data(), page_size_,
                                           current_pid_);
}

GraphStoreWriter::~GraphStoreWriter() = default;

Result<std::unique_ptr<GraphStoreWriter>> GraphStoreWriter::Create(
    Env* env, const std::string& base_path,
    const GraphStoreOptions& options) {
  const uint32_t page_size = options.page_size;
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument("page size must be >= " +
                                   std::to_string(kMinPageSize));
  }
  const uint32_t min_payload =
      kPageHeaderSize + kSlotSize + kSegmentHeaderSize + sizeof(VertexId);
  if (page_size < min_payload) {
    return Status::InvalidArgument("page size cannot hold any segment");
  }
  OPT_ASSIGN_OR_RETURN(
      auto file_writer,
      PageFileWriter::Create(env, GraphStore::PagesPath(base_path),
                             page_size));
  return std::unique_ptr<GraphStoreWriter>(new GraphStoreWriter(
      env, base_path, page_size, std::move(file_writer)));
}

Status GraphStoreWriter::FlushPage() {
  builder_->Finish();
  OPT_RETURN_IF_ERROR(writer_->Append(buffer_.data()));
  first_vertex_of_page_.push_back(page_first_vertex_);
  ++current_pid_;
  builder_ = std::make_unique<PageBuilder>(buffer_.data(), page_size_,
                                           current_pid_);
  page_first_vertex_ = kInvalidVertex;
  return Status::OK();
}

Status GraphStoreWriter::AddOne(VertexId v,
                                std::span<const VertexId> neighbors) {
  const auto total = static_cast<uint32_t>(neighbors.size());
  uint32_t written = 0;
  bool placed_first = false;
  for (;;) {
    if (builder_->FreeNeighborCapacity() == 0) {
      OPT_RETURN_IF_ERROR(FlushPage());
      continue;
    }
    const uint32_t take =
        std::min(builder_->FreeNeighborCapacity(), total - written);
    if (page_first_vertex_ == kInvalidVertex) page_first_vertex_ = v;
    builder_->AddSegment(v, total, written, neighbors.subspan(written, take));
    if (!placed_first) {
      first_page_.push_back(current_pid_);
      placed_first = true;
    }
    written += take;
    if (written >= total) break;
  }
  last_page_.push_back(current_pid_);
  directed_edges_ += total;
  return Status::OK();
}

Status GraphStoreWriter::AddRecord(VertexId v,
                                   std::span<const VertexId> neighbors) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (v < next_vertex_) {
    return Status::InvalidArgument(
        "records must arrive in ascending vertex order");
  }
  // Fill id gaps with empty records so every vertex is locatable.
  while (next_vertex_ < v) {
    OPT_RETURN_IF_ERROR(AddOne(next_vertex_, {}));
    ++next_vertex_;
  }
  OPT_RETURN_IF_ERROR(AddOne(v, neighbors));
  next_vertex_ = v + 1;
  return Status::OK();
}

Status GraphStoreWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (builder_->num_slots() > 0 || current_pid_ == 0) {
    OPT_RETURN_IF_ERROR(FlushPage());
  }
  OPT_RETURN_IF_ERROR(writer_->Finish());

  const VertexId n = next_vertex_;
  uint32_t max_record_pages = 1;
  for (VertexId v = 0; v < n; ++v) {
    max_record_pages =
        std::max(max_record_pages, last_page_[v] - first_page_[v] + 1);
  }
  OPT_ASSIGN_OR_RETURN(
      auto meta, env_->OpenWritable(GraphStore::MetaPath(base_path_)));
  char header[40];
  EncodeFixed64(header, kMetaMagic);
  EncodeFixed32(header + 8, page_size_);
  EncodeFixed32(header + 12, writer_->pages_written());
  EncodeFixed32(header + 16, n);
  EncodeFixed32(header + 20, max_record_pages);
  EncodeFixed64(header + 24, directed_edges_);
  EncodeFixed64(header + 32, 0);  // reserved
  OPT_RETURN_IF_ERROR(meta->Append(Slice(header, sizeof(header))));
  OPT_RETURN_IF_ERROR(meta->Append(
      Slice(reinterpret_cast<const char*>(first_page_.data()),
            first_page_.size() * sizeof(uint32_t))));
  OPT_RETURN_IF_ERROR(meta->Append(
      Slice(reinterpret_cast<const char*>(last_page_.data()),
            last_page_.size() * sizeof(uint32_t))));
  OPT_RETURN_IF_ERROR(meta->Append(
      Slice(reinterpret_cast<const char*>(first_vertex_of_page_.data()),
            first_vertex_of_page_.size() * sizeof(VertexId))));
  OPT_RETURN_IF_ERROR(meta->Sync());
  return meta->Close();
}

// ---------------------------------------------------------------------------
// GraphStore
// ---------------------------------------------------------------------------

Status GraphStore::Create(const CSRGraph& graph, Env* env,
                          const std::string& base_path,
                          const GraphStoreOptions& options) {
  OPT_ASSIGN_OR_RETURN(auto writer,
                       GraphStoreWriter::Create(env, base_path, options));
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    OPT_RETURN_IF_ERROR(writer->AddRecord(v, graph.Neighbors(v)));
  }
  return writer->Finish();
}

Status GraphStore::VerifyAllPages() const {
  std::vector<char> buffer(page_size_);
  for (uint32_t pid = 0; pid < file_->num_pages(); ++pid) {
    OPT_RETURN_IF_ERROR(file_->ReadPage(pid, buffer.data()));
    OPT_RETURN_IF_ERROR(PageView(buffer.data(), page_size_).Validate(pid));
  }
  return Status::OK();
}

Result<std::unique_ptr<GraphStore>> GraphStore::Open(
    Env* env, const std::string& base_path, bool verify_pages) {
  OPT_ASSIGN_OR_RETURN(auto meta_file,
                       env->OpenRandomAccess(MetaPath(base_path)));
  OPT_ASSIGN_OR_RETURN(uint64_t meta_size,
                       env->FileSize(MetaPath(base_path)));
  if (meta_size < 40) return Status::Corruption("metadata file too small");
  char header[40];
  OPT_RETURN_IF_ERROR(meta_file->Read(0, sizeof(header), header));
  if (DecodeFixed64(header) != kMetaMagic) {
    return Status::Corruption("bad metadata magic in " + base_path);
  }
  auto store = std::unique_ptr<GraphStore>(new GraphStore());
  store->page_size_ = DecodeFixed32(header + 8);
  const uint32_t num_pages = DecodeFixed32(header + 12);
  store->num_vertices_ = DecodeFixed32(header + 16);
  store->max_record_pages_ = DecodeFixed32(header + 20);
  store->num_directed_edges_ = DecodeFixed64(header + 24);

  const uint64_t expected =
      40 + static_cast<uint64_t>(store->num_vertices_) * 8 +
      static_cast<uint64_t>(num_pages) * 4;
  if (meta_size != expected) {
    return Status::Corruption("metadata size mismatch in " + base_path);
  }
  store->first_page_.resize(store->num_vertices_);
  store->last_page_.resize(store->num_vertices_);
  store->first_vertex_of_page_.resize(num_pages);
  uint64_t off = 40;
  OPT_RETURN_IF_ERROR(meta_file->Read(
      off, store->first_page_.size() * 4,
      reinterpret_cast<char*>(store->first_page_.data())));
  off += store->first_page_.size() * 4;
  OPT_RETURN_IF_ERROR(meta_file->Read(
      off, store->last_page_.size() * 4,
      reinterpret_cast<char*>(store->last_page_.data())));
  off += store->last_page_.size() * 4;
  OPT_RETURN_IF_ERROR(meta_file->Read(
      off, store->first_vertex_of_page_.size() * 4,
      reinterpret_cast<char*>(store->first_vertex_of_page_.data())));

  OPT_ASSIGN_OR_RETURN(
      auto file,
      PageFile::Open(env, PagesPath(base_path), store->page_size_));
  if (file->num_pages() != num_pages) {
    return Status::Corruption("page count mismatch between data and meta");
  }
  store->file_ = std::move(file);
  if (verify_pages) OPT_RETURN_IF_ERROR(store->VerifyAllPages());
  return store;
}

Result<IterationPlan> GraphStore::PlanIteration(VertexId v_start,
                                                uint32_t m_in) const {
  if (v_start >= num_vertices_) {
    return Status::OutOfRange("iteration start beyond last vertex");
  }
  if (m_in == 0) return Status::InvalidArgument("m_in must be positive");
  IterationPlan plan;
  plan.v_lo = v_start;
  plan.pid_lo = first_page_[v_start];
  const uint32_t budget_hi = plan.pid_lo + m_in - 1;
  if (last_page_[v_start] > budget_hi) {
    return Status::ResourceExhausted(
        "internal area of " + std::to_string(m_in) +
        " pages cannot hold the adjacency list of vertex " +
        std::to_string(v_start) + " (" +
        std::to_string(PagesOfVertex(v_start)) + " pages)");
  }
  // Largest v_hi with last_page_[v_hi] <= budget_hi. last_page_ is
  // non-decreasing, so binary search works.
  VertexId lo = v_start, hi = num_vertices_ - 1, best = v_start;
  while (lo <= hi) {
    const VertexId mid = lo + (hi - lo) / 2;
    if (last_page_[mid] <= budget_hi) {
      best = mid;
      if (mid == num_vertices_ - 1) break;
      lo = mid + 1;
    } else {
      if (mid == 0) break;
      hi = mid - 1;
    }
  }
  plan.v_hi = best;
  plan.pid_hi = last_page_[best];
  return plan;
}

}  // namespace opt
