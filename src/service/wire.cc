#include "service/wire.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>

#include "util/coding.h"

namespace opt {

namespace {

Status ReadFull(int fd, char* buffer, size_t length, bool* clean_eof) {
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ::read(fd, buffer + done, length - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (clean_eof != nullptr && done == 0) {
        *clean_eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::IOError("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status WriteFull(int fd, const char* buffer, size_t length) {
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ::write(fd, buffer + done, length - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("write: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

void PutU32(std::string* dst, uint32_t value) {
  char buf[4];
  EncodeFixed32(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutU64(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutDouble(std::string* dst, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(dst, bits);
}

void PutString(std::string* dst, std::string_view value) {
  PutU32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

Status PayloadReader::GetU8(uint8_t* value) {
  if (data_.size() - pos_ < 1) {
    return Status::Corruption("payload truncated reading u8");
  }
  *value = static_cast<uint8_t>(data_[pos_]);
  pos_ += 1;
  return Status::OK();
}

Status PayloadReader::GetU32(uint32_t* value) {
  if (data_.size() - pos_ < 4) {
    return Status::Corruption("payload truncated reading u32");
  }
  *value = DecodeFixed32(data_.data() + pos_);
  pos_ += 4;
  return Status::OK();
}

Status PayloadReader::GetU64(uint64_t* value) {
  if (data_.size() - pos_ < 8) {
    return Status::Corruption("payload truncated reading u64");
  }
  *value = DecodeFixed64(data_.data() + pos_);
  pos_ += 8;
  return Status::OK();
}

Status PayloadReader::GetDouble(double* value) {
  uint64_t bits;
  OPT_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(value, &bits, sizeof(bits));
  return Status::OK();
}

Status PayloadReader::GetString(std::string* value) {
  uint32_t length;
  OPT_RETURN_IF_ERROR(GetU32(&length));
  if (data_.size() - pos_ < length) {
    return Status::Corruption("payload truncated reading string");
  }
  value->assign(data_.data() + pos_, length);
  pos_ += length;
  return Status::OK();
}

Status PayloadReader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::Corruption("payload has " + std::to_string(remaining()) +
                              " trailing bytes");
  }
  return Status::OK();
}

Status PayloadReader::GetCount(uint32_t* count, size_t min_element_bytes,
                               const char* what) {
  OPT_RETURN_IF_ERROR(GetU32(count));
  if (*count > remaining() / min_element_bytes) {
    return Status::Corruption(std::string(what) + ": claims " +
                              std::to_string(*count) + " but only " +
                              std::to_string(remaining()) +
                              " payload bytes follow");
  }
  return Status::OK();
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string payload;
  PutString(&payload, request.graph);
  PutU32(&payload, request.memory_pages);
  PutU32(&payload, request.num_threads);
  PutU64(&payload, request.deadline_millis);
  PutU64(&payload, request.trace_id);
  PutU64(&payload, request.parent_span_id);
  return payload;
}

Status DecodeQueryRequest(std::string_view payload, QueryRequest* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetString(&out->graph));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->memory_pages));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->num_threads));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->deadline_millis));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->trace_id));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->parent_span_id));
  return reader.ExpectEnd();
}

std::string EncodeCountResult(const CountResult& result) {
  std::string payload;
  PutU64(&payload, result.triangles);
  PutDouble(&payload, result.seconds);
  payload.push_back(static_cast<char>(result.source));
  PutU64(&payload, result.pool_hits);
  PutU64(&payload, result.pages_read);
  PutU32(&payload, result.iterations);
  PutU64(&payload, result.partial_shards);
  PutU32(&payload, result.num_shards);
  return payload;
}

Status DecodeCountResult(std::string_view payload, CountResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->triangles));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->seconds));
  OPT_RETURN_IF_ERROR(reader.GetU8(&out->source));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->pool_hits));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->pages_read));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->iterations));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->partial_shards));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->num_shards));
  return reader.ExpectEnd();
}

std::string EncodeLoadGraphRequest(const LoadGraphRequest& request) {
  std::string payload;
  PutString(&payload, request.name);
  PutString(&payload, request.base_path);
  return payload;
}

Status DecodeLoadGraphRequest(std::string_view payload,
                              LoadGraphRequest* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetString(&out->name));
  OPT_RETURN_IF_ERROR(reader.GetString(&out->base_path));
  return reader.ExpectEnd();
}

std::string EncodeMutateRequest(const MutateRequest& request) {
  std::string payload;
  PutString(&payload, request.graph);
  PutU32(&payload, static_cast<uint32_t>(request.edges.size()));
  for (const auto& [u, v] : request.edges) {
    PutU32(&payload, u);
    PutU32(&payload, v);
  }
  PutU64(&payload, request.trace_id);
  PutU64(&payload, request.parent_span_id);
  return payload;
}

Status DecodeMutateRequest(std::string_view payload, MutateRequest* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetString(&out->graph));
  uint32_t count;
  OPT_RETURN_IF_ERROR(reader.GetU32(&count));
  // The count is attacker-controlled; bound it by the bytes actually
  // present (8 per edge) before reserving, or a ~14-byte frame claiming
  // 2^32 edges forces a multi-GB allocation.
  if (count > reader.remaining() / 8) {
    return Status::InvalidArgument(
        "mutate batch claims " + std::to_string(count) + " edges but only " +
        std::to_string(reader.remaining()) + " payload bytes follow");
  }
  out->edges.clear();
  out->edges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VertexId u, v;
    OPT_RETURN_IF_ERROR(reader.GetU32(&u));
    OPT_RETURN_IF_ERROR(reader.GetU32(&v));
    out->edges.emplace_back(u, v);
  }
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->trace_id));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->parent_span_id));
  return reader.ExpectEnd();
}

std::string EncodeMutateResult(const MutateResult& result) {
  std::string payload;
  PutU64(&payload, result.epoch);
  PutU64(&payload, static_cast<uint64_t>(result.batch_triangle_delta));
  PutU64(&payload, static_cast<uint64_t>(result.total_triangle_delta));
  PutU64(&payload, result.edges_applied);
  PutDouble(&payload, result.seconds);
  payload.push_back(static_cast<char>(result.approx_valid));
  PutDouble(&payload, result.approx_triangles);
  PutU64(&payload, result.partial_shards);
  PutU32(&payload, result.num_shards);
  return payload;
}

Status DecodeMutateResult(std::string_view payload, MutateResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->epoch));
  uint64_t bits;
  OPT_RETURN_IF_ERROR(reader.GetU64(&bits));
  out->batch_triangle_delta = static_cast<int64_t>(bits);
  OPT_RETURN_IF_ERROR(reader.GetU64(&bits));
  out->total_triangle_delta = static_cast<int64_t>(bits);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->edges_applied));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->seconds));
  OPT_RETURN_IF_ERROR(reader.GetU8(&out->approx_valid));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->approx_triangles));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->partial_shards));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->num_shards));
  return reader.ExpectEnd();
}

std::string EncodeSubscribeCountRequest(
    const SubscribeCountRequest& request) {
  std::string payload;
  PutString(&payload, request.graph);
  PutU64(&payload, request.after_epoch);
  PutU64(&payload, request.timeout_millis);
  PutU64(&payload, request.trace_id);
  PutU64(&payload, request.parent_span_id);
  return payload;
}

Status DecodeSubscribeCountRequest(std::string_view payload,
                                   SubscribeCountRequest* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetString(&out->graph));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->after_epoch));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->timeout_millis));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->trace_id));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->parent_span_id));
  return reader.ExpectEnd();
}

std::string EncodeSubscribeCountResult(const SubscribeCountResult& result) {
  std::string payload;
  PutU64(&payload, result.epoch);
  payload.push_back(static_cast<char>(result.timed_out));
  payload.push_back(static_cast<char>(result.exact_known));
  PutU64(&payload, result.triangles);
  PutU64(&payload, static_cast<uint64_t>(result.delta_triangles));
  PutU64(&payload, result.edges_added);
  PutU64(&payload, result.edges_removed);
  payload.push_back(static_cast<char>(result.approx_valid));
  PutDouble(&payload, result.approx_triangles);
  PutU64(&payload, result.partial_shards);
  PutU32(&payload, result.num_shards);
  return payload;
}

Status DecodeSubscribeCountResult(std::string_view payload,
                                  SubscribeCountResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->epoch));
  OPT_RETURN_IF_ERROR(reader.GetU8(&out->timed_out));
  OPT_RETURN_IF_ERROR(reader.GetU8(&out->exact_known));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->triangles));
  uint64_t bits;
  OPT_RETURN_IF_ERROR(reader.GetU64(&bits));
  out->delta_triangles = static_cast<int64_t>(bits);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->edges_added));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->edges_removed));
  OPT_RETURN_IF_ERROR(reader.GetU8(&out->approx_valid));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->approx_triangles));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->partial_shards));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->num_shards));
  return reader.ExpectEnd();
}

std::string EncodeError(const Status& status,
                        const std::vector<FlightEvent>& events,
                        uint64_t trace_id) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(status.code()));
  PutString(&payload, status.message());
  PutU32(&payload, static_cast<uint32_t>(events.size()));
  for (const FlightEvent& event : events) {
    PutU64(&payload, event.t_micros);
    payload.push_back(static_cast<char>(event.type));
    PutU64(&payload, event.a);
    PutU64(&payload, event.b);
  }
  PutU64(&payload, trace_id);
  return payload;
}

Status DecodeError(std::string_view payload, ErrorResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->code));
  OPT_RETURN_IF_ERROR(reader.GetString(&out->message));
  out->events.clear();
  uint32_t num_events;  // each event: u64 + u8 + u64 + u64
  OPT_RETURN_IF_ERROR(reader.GetCount(&num_events, 25, "flight events"));
  out->events.reserve(num_events);
  for (uint32_t i = 0; i < num_events; ++i) {
    FlightEvent event;
    uint8_t type;
    OPT_RETURN_IF_ERROR(reader.GetU64(&event.t_micros));
    OPT_RETURN_IF_ERROR(reader.GetU8(&type));
    event.type = static_cast<FlightEventType>(type);
    OPT_RETURN_IF_ERROR(reader.GetU64(&event.a));
    OPT_RETURN_IF_ERROR(reader.GetU64(&event.b));
    out->events.push_back(event);
  }
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->trace_id));
  return reader.ExpectEnd();
}

std::string EncodeProfileResult(const ProfileResult& result) {
  std::string payload;
  PutU64(&payload, result.triangles);
  PutDouble(&payload, result.seconds);
  PutU32(&payload, result.iterations);
  PutU64(&payload, result.period_micros);
  PutU64(&payload, result.samples);
  PutU64(&payload, result.micro_overlap_samples);
  PutU64(&payload, result.macro_overlap_samples);
  PutU64(&payload, result.cpu_active_samples);
  PutU64(&payload, result.io_inflight_samples);
  PutU64(&payload, result.stalled_samples);
  PutU64(&payload, result.morph_events);
  PutU32(&payload, static_cast<uint32_t>(result.role_samples.size()));
  for (uint64_t samples : result.role_samples) PutU64(&payload, samples);
  PutDouble(&payload, result.micro_overlap);
  PutDouble(&payload, result.macro_overlap);
  PutDouble(&payload, result.cost_c_seconds_per_page);
  PutU64(&payload, result.delta_in_pages);
  PutU64(&payload, result.delta_ex_pages);
  PutDouble(&payload, result.cost_ideal_seconds);
  PutDouble(&payload, result.cost_predicted_seconds);
  PutDouble(&payload, result.cost_measured_seconds);
  PutDouble(&payload, result.cost_residual_seconds);
  return payload;
}

Status DecodeProfileResult(std::string_view payload, ProfileResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->triangles));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->seconds));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->iterations));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->period_micros));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->samples));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->micro_overlap_samples));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->macro_overlap_samples));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->cpu_active_samples));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->io_inflight_samples));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->stalled_samples));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->morph_events));
  out->role_samples.clear();
  uint32_t num_roles;
  OPT_RETURN_IF_ERROR(reader.GetCount(&num_roles, 8, "profile roles"));
  out->role_samples.reserve(num_roles);
  for (uint32_t i = 0; i < num_roles; ++i) {
    uint64_t samples;
    OPT_RETURN_IF_ERROR(reader.GetU64(&samples));
    out->role_samples.push_back(samples);
  }
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->micro_overlap));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->macro_overlap));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->cost_c_seconds_per_page));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->delta_in_pages));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->delta_ex_pages));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->cost_ideal_seconds));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->cost_predicted_seconds));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->cost_measured_seconds));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->cost_residual_seconds));
  return reader.ExpectEnd();
}

std::string EncodeListBatch(const ListBatch& batch) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(batch.records.size()));
  for (const ListBatch::Record& record : batch.records) {
    PutU32(&payload, record.u);
    PutU32(&payload, record.v);
    PutU32(&payload, static_cast<uint32_t>(record.ws.size()));
    for (VertexId w : record.ws) PutU32(&payload, w);
  }
  return payload;
}

Status DecodeListBatch(std::string_view payload, ListBatch* out) {
  PayloadReader reader(payload);
  out->records.clear();
  uint32_t count;  // each record: u, v and the ws length
  OPT_RETURN_IF_ERROR(reader.GetCount(&count, 12, "list records"));
  out->records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ListBatch::Record record;
    OPT_RETURN_IF_ERROR(reader.GetU32(&record.u));
    OPT_RETURN_IF_ERROR(reader.GetU32(&record.v));
    uint32_t k;
    OPT_RETURN_IF_ERROR(reader.GetCount(&k, 4, "list record ws"));
    record.ws.reserve(k);
    for (uint32_t j = 0; j < k; ++j) {
      VertexId w;
      OPT_RETURN_IF_ERROR(reader.GetU32(&w));
      record.ws.push_back(w);
    }
    out->records.push_back(std::move(record));
  }
  return reader.ExpectEnd();
}

std::string EncodeListEnd(const ListEnd& end) {
  std::string payload;
  PutU64(&payload, end.triangles);
  PutDouble(&payload, end.seconds);
  PutU64(&payload, end.partial_shards);
  PutU32(&payload, end.num_shards);
  return payload;
}

Status DecodeListEnd(std::string_view payload, ListEnd* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->triangles));
  OPT_RETURN_IF_ERROR(reader.GetDouble(&out->seconds));
  OPT_RETURN_IF_ERROR(reader.GetU64(&out->partial_shards));
  OPT_RETURN_IF_ERROR(reader.GetU32(&out->num_shards));
  return reader.ExpectEnd();
}

std::string EncodeStatsResult(const StatsResult& stats) {
  std::string payload;
  PutString(&payload, stats.text);
  PutU32(&payload, static_cast<uint32_t>(stats.histograms.size()));
  for (const StatsHistogram& histogram : stats.histograms) {
    PutString(&payload, histogram.name);
    PutU64(&payload, histogram.count);
    PutU64(&payload, histogram.min);
    PutU64(&payload, histogram.max);
    PutDouble(&payload, histogram.mean);
    PutDouble(&payload, histogram.p50);
    PutDouble(&payload, histogram.p95);
    PutDouble(&payload, histogram.p99);
  }
  PutU32(&payload, static_cast<uint32_t>(stats.counters.size()));
  for (const StatsCounter& counter : stats.counters) {
    PutString(&payload, counter.name);
    PutU64(&payload, counter.value);
  }
  return payload;
}

Status DecodeStatsResult(std::string_view payload, StatsResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetString(&out->text));
  out->histograms.clear();
  out->counters.clear();
  uint32_t num_histograms;  // each: name length + 3 u64 + 4 doubles
  OPT_RETURN_IF_ERROR(
      reader.GetCount(&num_histograms, 60, "stats histograms"));
  out->histograms.reserve(num_histograms);
  for (uint32_t i = 0; i < num_histograms; ++i) {
    StatsHistogram histogram;
    OPT_RETURN_IF_ERROR(reader.GetString(&histogram.name));
    OPT_RETURN_IF_ERROR(reader.GetU64(&histogram.count));
    OPT_RETURN_IF_ERROR(reader.GetU64(&histogram.min));
    OPT_RETURN_IF_ERROR(reader.GetU64(&histogram.max));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&histogram.mean));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&histogram.p50));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&histogram.p95));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&histogram.p99));
    out->histograms.push_back(std::move(histogram));
  }
  uint32_t num_counters;  // each: name length + u64
  OPT_RETURN_IF_ERROR(reader.GetCount(&num_counters, 12, "stats counters"));
  out->counters.reserve(num_counters);
  for (uint32_t i = 0; i < num_counters; ++i) {
    StatsCounter counter;
    OPT_RETURN_IF_ERROR(reader.GetString(&counter.name));
    OPT_RETURN_IF_ERROR(reader.GetU64(&counter.value));
    out->counters.push_back(std::move(counter));
  }
  return reader.ExpectEnd();
}

std::string EncodeShardStatsResult(const ShardStatsResult& stats) {
  std::string payload;
  PutString(&payload, stats.graph);
  PutU32(&payload, static_cast<uint32_t>(stats.shards.size()));
  for (const ShardStatsEntry& shard : stats.shards) {
    PutU32(&payload, shard.id);
    PutString(&payload, shard.address);
    payload.push_back(static_cast<char>(shard.healthy));
    PutU64(&payload, shard.pid);
    PutU32(&payload, shard.range_lo);
    PutU32(&payload, shard.range_hi);
    PutU64(&payload, shard.epoch);
    PutU64(&payload, shard.restarts);
    PutU64(&payload, shard.requests);
    PutU64(&payload, shard.failures);
    PutU64(&payload, shard.retries);
    PutU64(&payload, shard.ghost_triangles);
    PutDouble(&payload, shard.latency_p50_micros);
    PutDouble(&payload, shard.latency_p95_micros);
    PutDouble(&payload, shard.latency_p99_micros);
  }
  return payload;
}

Status DecodeShardStatsResult(std::string_view payload,
                              ShardStatsResult* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetString(&out->graph));
  out->shards.clear();
  uint32_t count;  // each entry is ≥ 94 bytes
  OPT_RETURN_IF_ERROR(reader.GetCount(&count, 94, "shard stats"));
  out->shards.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShardStatsEntry shard;
    OPT_RETURN_IF_ERROR(reader.GetU32(&shard.id));
    OPT_RETURN_IF_ERROR(reader.GetString(&shard.address));
    OPT_RETURN_IF_ERROR(reader.GetU8(&shard.healthy));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.pid));
    OPT_RETURN_IF_ERROR(reader.GetU32(&shard.range_lo));
    OPT_RETURN_IF_ERROR(reader.GetU32(&shard.range_hi));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.epoch));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.restarts));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.requests));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.failures));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.retries));
    OPT_RETURN_IF_ERROR(reader.GetU64(&shard.ghost_triangles));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&shard.latency_p50_micros));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&shard.latency_p95_micros));
    OPT_RETURN_IF_ERROR(reader.GetDouble(&shard.latency_p99_micros));
    out->shards.push_back(std::move(shard));
  }
  return reader.ExpectEnd();
}

std::string EncodeTracePullRequest(const TracePullRequest& request) {
  std::string payload;
  payload.push_back(static_cast<char>(request.drain));
  return payload;
}

Status DecodeTracePullRequest(std::string_view payload,
                              TracePullRequest* out) {
  PayloadReader reader(payload);
  OPT_RETURN_IF_ERROR(reader.GetU8(&out->drain));
  return reader.ExpectEnd();
}

std::string EncodeTracePullResult(const TracePullResult& result) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(result.processes.size()));
  for (const ProcessTrace& process : result.processes) {
    PutU64(&payload, process.pid);
    PutString(&payload, process.label);
    PutU64(&payload, process.unix_origin_micros);
    PutU64(&payload, process.dropped_spans);
    PutU32(&payload, static_cast<uint32_t>(process.events.size()));
    for (const TraceEvent& event : process.events) {
      PutString(&payload, event.name);
      PutString(&payload, event.category);
      payload.push_back(event.phase);
      PutU64(&payload, event.ts_micros);
      PutU64(&payload, event.dur_micros);
      PutU32(&payload, event.tid);
      PutU64(&payload, event.trace_id);
      PutU64(&payload, event.span_id);
      PutU64(&payload, event.parent_span_id);
      PutString(&payload, event.args_json);
    }
  }
  return payload;
}

Status DecodeTracePullResult(std::string_view payload,
                             TracePullResult* out) {
  PayloadReader reader(payload);
  out->processes.clear();
  // A process section is at least 32 bytes even with an empty label and
  // no events.
  uint32_t num_processes;
  OPT_RETURN_IF_ERROR(
      reader.GetCount(&num_processes, 32, "trace pull processes"));
  out->processes.reserve(num_processes);
  for (uint32_t p = 0; p < num_processes; ++p) {
    ProcessTrace process;
    OPT_RETURN_IF_ERROR(reader.GetU64(&process.pid));
    OPT_RETURN_IF_ERROR(reader.GetString(&process.label));
    OPT_RETURN_IF_ERROR(reader.GetU64(&process.unix_origin_micros));
    OPT_RETURN_IF_ERROR(reader.GetU64(&process.dropped_spans));
    // Each encoded event is ≥ 57 bytes (three length-prefixed strings
    // plus the fixed fields).
    uint32_t num_events;
    OPT_RETURN_IF_ERROR(
        reader.GetCount(&num_events, 57, "trace section events"));
    process.events.reserve(num_events);
    for (uint32_t i = 0; i < num_events; ++i) {
      TraceEvent event;
      OPT_RETURN_IF_ERROR(reader.GetString(&event.name));
      OPT_RETURN_IF_ERROR(reader.GetString(&event.category));
      uint8_t phase;
      OPT_RETURN_IF_ERROR(reader.GetU8(&phase));
      event.phase = static_cast<char>(phase);
      OPT_RETURN_IF_ERROR(reader.GetU64(&event.ts_micros));
      OPT_RETURN_IF_ERROR(reader.GetU64(&event.dur_micros));
      OPT_RETURN_IF_ERROR(reader.GetU32(&event.tid));
      OPT_RETURN_IF_ERROR(reader.GetU64(&event.trace_id));
      OPT_RETURN_IF_ERROR(reader.GetU64(&event.span_id));
      OPT_RETURN_IF_ERROR(reader.GetU64(&event.parent_span_id));
      OPT_RETURN_IF_ERROR(reader.GetString(&event.args_json));
      process.events.push_back(std::move(event));
    }
    out->processes.push_back(std::move(process));
  }
  return reader.ExpectEnd();
}

Status WriteMessage(int fd, MessageType type, std::string_view payload) {
  std::string frame;
  frame.reserve(5 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size() + 1));
  frame.push_back(static_cast<char>(type));
  frame.append(payload.data(), payload.size());
  return WriteFull(fd, frame.data(), frame.size());
}

Status ReadMessage(int fd, WireMessage* out, size_t max_payload) {
  char header[4];
  bool clean_eof = false;
  Status status = ReadFull(fd, header, sizeof(header), &clean_eof);
  if (!status.ok()) return status;  // NotFound when the peer closed cleanly
  const uint32_t frame_length = DecodeFixed32(header);
  if (frame_length == 0) {
    return Status::Corruption("zero-length frame");
  }
  if (frame_length - 1 > max_payload) {
    return Status::Corruption("frame length " +
                              std::to_string(frame_length) +
                              " exceeds limit");
  }
  char type_byte;
  OPT_RETURN_IF_ERROR(ReadFull(fd, &type_byte, 1, nullptr));
  out->type = static_cast<MessageType>(static_cast<uint8_t>(type_byte));
  out->payload.resize(frame_length - 1);
  if (!out->payload.empty()) {
    OPT_RETURN_IF_ERROR(
        ReadFull(fd, out->payload.data(), out->payload.size(), nullptr));
  }
  return Status::OK();
}

}  // namespace opt
