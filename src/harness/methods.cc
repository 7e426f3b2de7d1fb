#include "harness/methods.h"

#include <algorithm>

#include "baselines/cc.h"
#include "baselines/graphchi_tri.h"
#include "baselines/mgt.h"
#include "core/ideal.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "util/stopwatch.h"

namespace opt {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kOpt:
      return "OPT";
    case Method::kOptSerial:
      return "OPT_serial";
    case Method::kOptNoMorph:
      return "OPT(no-morph)";
    case Method::kOptVertexIter:
      return "OPT(vertex-iter)";
    case Method::kMgt:
      return "MGT";
    case Method::kCcSeq:
      return "CC-Seq";
    case Method::kCcDs:
      return "CC-DS";
    case Method::kGraphChiTri:
      return "GraphChi-Tri";
    case Method::kGraphChiTriSerial:
      return "GraphChi-Tri_serial";
    case Method::kIdeal:
      return "ideal";
  }
  return "?";
}

namespace {

Result<MethodResult> RunOptVariant(Method method, GraphStore* store,
                                   const MethodConfig& config) {
  OptOptions options;
  const uint32_t half = std::max(1u, config.memory_pages / 2);
  options.m_in = std::max(half, store->MaxRecordPages());
  options.m_ex = half;
  options.io_queue_depth = config.io_queue_depth;
  options.num_threads = config.num_threads;
  options.kernel = config.kernel;
  switch (method) {
    case Method::kOptSerial:
      options.macro_overlap = false;
      options.thread_morphing = false;
      options.num_threads = 1;
      break;
    case Method::kOptNoMorph:
      options.thread_morphing = false;
      break;
    default:
      break;
  }
  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  const IteratorModel* model =
      method == Method::kOptVertexIter
          ? static_cast<const IteratorModel*>(&vi)
          : static_cast<const IteratorModel*>(&ei);
  OptRunner runner(store, model, options);
  CountingSink sink;
  OptRunStats stats;
  Stopwatch watch;
  OPT_RETURN_IF_ERROR(runner.Run(&sink, &stats));
  MethodResult result;
  result.method = MethodName(method);
  result.seconds = watch.ElapsedSeconds();
  result.triangles = sink.count();
  result.pages_read = stats.internal_pages_read + stats.external_pages_read;
  result.iterations = stats.iterations;
  result.parallel_fraction = stats.ParallelFraction();
  return result;
}

Result<MethodResult> RunMethodImpl(Method method, GraphStore* store, Env* env,
                                   const MethodConfig& config) {
  MethodResult result;
  result.method = MethodName(method);
  Stopwatch watch;
  switch (method) {
    case Method::kOpt:
    case Method::kOptSerial:
    case Method::kOptNoMorph:
    case Method::kOptVertexIter:
      return RunOptVariant(method, store, config);

    case Method::kMgt: {
      MgtOptions options;
      options.memory_pages =
          std::max(config.memory_pages, store->MaxRecordPages());
      CountingSink sink;
      MgtStats stats;
      OPT_RETURN_IF_ERROR(RunMgt(store, &sink, options, &stats));
      result.seconds = watch.ElapsedSeconds();
      result.triangles = sink.count();
      result.pages_read = stats.pages_read;
      result.iterations = stats.iterations;
      return result;
    }

    case Method::kCcSeq:
    case Method::kCcDs: {
      CcOptions options;
      options.memory_pages =
          std::max(config.memory_pages, store->MaxRecordPages());
      options.temp_dir = config.temp_dir;
      options.dominating_set_order = (method == Method::kCcDs);
      CountingSink sink;
      CcStats stats;
      OPT_RETURN_IF_ERROR(RunChuCheng(store, env, &sink, options, &stats));
      result.seconds = watch.ElapsedSeconds();
      result.triangles = sink.count();
      result.pages_read = stats.pages_read;
      result.pages_written = stats.pages_written;
      result.iterations = stats.iterations;
      return result;
    }

    case Method::kGraphChiTri:
    case Method::kGraphChiTriSerial: {
      GraphChiTriOptions options;
      options.memory_pages =
          std::max(config.memory_pages, store->MaxRecordPages());
      options.temp_dir = config.temp_dir;
      options.num_threads =
          method == Method::kGraphChiTriSerial ? 1 : config.num_threads;
      CountingSink sink;
      GraphChiTriStats stats;
      OPT_RETURN_IF_ERROR(
          RunGraphChiTri(store, env, &sink, options, &stats));
      result.seconds = watch.ElapsedSeconds();
      result.triangles = sink.count();
      result.pages_read = stats.pages_read;
      result.pages_written = stats.pages_written;
      result.iterations = stats.iterations;
      result.parallel_fraction = stats.ParallelFraction();
      return result;
    }

    case Method::kIdeal: {
      EdgeIteratorModel model;
      CountingSink sink;
      IdealStats stats;
      OPT_RETURN_IF_ERROR(
          RunIdeal(store, model, &sink, config.num_threads, &stats));
      result.seconds = stats.elapsed_seconds;
      result.triangles = sink.count();
      result.pages_read = store->num_pages();
      result.iterations = 1;
      return result;
    }
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace

Result<MethodResult> RunMethod(Method method, GraphStore* store, Env* env,
                               const MethodConfig& config) {
  if (config.kernel.has_value()) {
    OPT_RETURN_IF_ERROR(SetIntersectKernel(*config.kernel));
  }
  const IntersectKernel kernel_used = ActiveIntersectKernel();
  const IntersectCounters before = SnapshotIntersectCounters();
  Result<MethodResult> result = RunMethodImpl(method, store, env, config);
  if (result.ok()) {
    result->kernel_used = kernel_used;
    result->intersect =
        IntersectCounters::Delta(SnapshotIntersectCounters(), before);
  }
  return result;
}

}  // namespace opt
