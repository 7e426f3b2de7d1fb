// On-disk graph representation: (v, n(v)) records packed into slotted
// pages in ascending vertex-id order (paper §3.2). Adjacency lists larger
// than a page span consecutive pages as segment chains. A sidecar
// metadata file maps vertices to page runs and pages to their first
// vertex, so residency tests ("is n(v) in the internal area?") are O(1)
// id-range checks.
#ifndef OPT_STORAGE_GRAPH_STORE_H_
#define OPT_STORAGE_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "storage/env.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "util/status.h"

namespace opt {

struct GraphStoreOptions {
  uint32_t page_size = kDefaultPageSize;
};

/// One iteration's internal-area extent: the contiguous vertex range
/// [v_lo, v_hi] whose records fully fit in pages [pid_lo, pid_hi]
/// (pid_hi - pid_lo + 1 <= m_in).
struct IterationPlan {
  VertexId v_lo = 0;
  VertexId v_hi = 0;
  uint32_t pid_lo = 0;
  uint32_t pid_hi = 0;
  uint32_t num_pages() const { return pid_hi - pid_lo + 1; }
};

/// Streaming store construction: records must arrive in ascending
/// vertex-id order (gaps become empty records at Finish). Used by
/// GraphStore::Create and by the out-of-core StoreBuilder, which never
/// materializes the graph in memory.
class GraphStoreWriter {
 public:
  static Result<std::unique_ptr<GraphStoreWriter>> Create(
      Env* env, const std::string& base_path,
      const GraphStoreOptions& options = {});
  ~GraphStoreWriter();

  /// Appends n(v). `neighbors` must be sorted ascending; `v` must be
  /// strictly greater than any previously added vertex. Skipped ids in
  /// between get empty records.
  Status AddRecord(VertexId v, std::span<const VertexId> neighbors);

  /// Flushes the last page and writes the metadata sidecar.
  Status Finish();

 private:
  GraphStoreWriter(Env* env, std::string base_path, uint32_t page_size,
                   std::unique_ptr<PageFileWriter> writer);
  Status FlushPage();
  Status AddOne(VertexId v, std::span<const VertexId> neighbors);

  Env* env_;
  std::string base_path_;
  uint32_t page_size_;
  std::unique_ptr<PageFileWriter> writer_;
  std::vector<char> buffer_;
  std::unique_ptr<PageBuilder> builder_;
  uint32_t current_pid_ = 0;
  VertexId page_first_vertex_ = kInvalidVertex;
  VertexId next_vertex_ = 0;
  uint64_t directed_edges_ = 0;
  std::vector<uint32_t> first_page_;
  std::vector<uint32_t> last_page_;
  std::vector<VertexId> first_vertex_of_page_;
  bool finished_ = false;
};

class GraphStore {
 public:
  /// Writes `<base_path>.pages` and `<base_path>.meta` from a CSR graph.
  static Status Create(const CSRGraph& graph, Env* env,
                       const std::string& base_path,
                       const GraphStoreOptions& options = {});

  /// Opens an existing store. `env` must outlive the store.
  /// `verify_pages` additionally checks every page's header + CRC at
  /// open — the crash-consistency gate that catches a build torn by a
  /// mid-write crash even when the file sizes happen to line up.
  static Result<std::unique_ptr<GraphStore>> Open(Env* env,
                                                  const std::string& base_path,
                                                  bool verify_pages = false);

  /// Full-scan integrity check: validates the header and CRC of every
  /// page. Corruption names the first bad page.
  Status VerifyAllPages() const;

  VertexId num_vertices() const { return num_vertices_; }
  uint32_t num_pages() const { return file_->num_pages(); }
  uint32_t page_size() const { return page_size_; }
  uint64_t num_directed_edges() const { return num_directed_edges_; }

  /// First/last page holding a segment of n(v).
  uint32_t FirstPageOfVertex(VertexId v) const { return first_page_[v]; }
  uint32_t LastPageOfVertex(VertexId v) const { return last_page_[v]; }
  uint32_t PagesOfVertex(VertexId v) const {
    return last_page_[v] - first_page_[v] + 1;
  }

  /// Vertex owning the first segment in page `pid`.
  VertexId FirstVertexOfPage(uint32_t pid) const {
    return first_vertex_of_page_[pid];
  }

  /// Largest page run any single vertex occupies; the internal area must
  /// hold at least this many pages (paper: "large enough to load at least
  /// one adjacency list").
  uint32_t MaxRecordPages() const { return max_record_pages_; }

  /// Plans the iteration starting at `v_start` with an internal-area
  /// budget of `m_in` pages. Fails with ResourceExhausted if even the
  /// first record does not fit.
  Result<IterationPlan> PlanIteration(VertexId v_start, uint32_t m_in) const;

  PageFile* file() const { return file_.get(); }

  static std::string PagesPath(const std::string& base) {
    return base + ".pages";
  }
  static std::string MetaPath(const std::string& base) {
    return base + ".meta";
  }

 private:
  GraphStore() = default;

  std::unique_ptr<PageFile> file_;
  uint32_t page_size_ = 0;
  VertexId num_vertices_ = 0;
  uint64_t num_directed_edges_ = 0;
  uint32_t max_record_pages_ = 1;
  std::vector<uint32_t> first_page_;           // per vertex
  std::vector<uint32_t> last_page_;            // per vertex
  std::vector<VertexId> first_vertex_of_page_; // per page
};

}  // namespace opt

#endif  // OPT_STORAGE_GRAPH_STORE_H_
