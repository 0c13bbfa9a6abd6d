#include "src/serve/server.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/metrics_export.h"
#include "src/common/stopwatch.h"
#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/core/benchmark.h"

namespace openea::serve {
namespace {

// FNV-1a, same constants as core::ConfigFingerprint.
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvBytes(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

/// Reads newline-delimited lines off a descriptor through an internal
/// buffer. `Next` blocks only when the caller allows it; the non-blocking
/// mode is what lets the server detect "no more pipelined requests right
/// now" and flush the pending micro-batch.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  enum class Result { kLine, kWouldBlock, kEof };

  Result Next(std::string* line, bool block) {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return Result::kLine;
      }
      if (eof_) {
        // Final unterminated line, if any.
        if (buffer_.empty()) return Result::kEof;
        line->assign(std::move(buffer_));
        buffer_.clear();
        return Result::kLine;
      }
      if (!block) {
        pollfd pfd{fd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 0);
        if (rc == 0) return Result::kWouldBlock;
        if (rc < 0 && errno != EINTR) {
          eof_ = true;
          continue;
        }
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0) {
        eof_ = true;
      } else if (errno != EINTR) {
        eof_ = true;
      }
    }
  }

 private:
  int fd_;
  std::string buffer_;
  bool eof_ = false;
};

Status WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// One queued topk request awaiting the batched scan.
struct PendingTopK {
  json::Value id;       // Echoed verbatim (null when absent).
  std::string request_id;  // Server-generated "r-<seq>", echoed as "req".
  size_t k = 0;
  size_t row_begin = 0;  // First row in the batch matrix.
  size_t rows = 0;
  Stopwatch watch;       // Parse -> response write.
};

json::Value ErrorResponse(const json::Value& id, const Status& status) {
  json::Value::Object obj;
  obj["id"] = id;
  obj["ok"] = json::Value(false);
  obj["error"] = json::Value(status.ToString());
  return json::Value(std::move(obj));
}

}  // namespace

Status ServeConfig::Validate() const {
  if (checkpoint_path.empty()) {
    return Status::InvalidArgument("checkpoint_path must be set");
  }
  if (default_k < 1) return Status::InvalidArgument("default_k must be >= 1");
  if (max_batch < 1) return Status::InvalidArgument("max_batch must be >= 1");
  if (max_rows_per_request < 1) {
    return Status::InvalidArgument("max_rows_per_request must be >= 1");
  }
  return source.Validate();
}

std::string ModelFingerprint(const checkpoint::TrainState& state) {
  uint64_t h = kFnvBasis;
  h = FnvU64(h, state.epoch);
  h = FnvU64(h, state.tables.size());
  for (const auto& table : state.tables) {
    h = FnvU64(h, table.num_rows());
    h = FnvU64(h, table.dim());
    const auto data = table.Data();
    h = FnvBytes(h, data.data(), data.size() * sizeof(float));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(hex);
}

StatusOr<ServingModel> LoadServingModel(const ServeConfig& config) {
  // Shard-banked table files (bench --shard-dir artifacts, or anything
  // written through WriteShardedTable) are served out-of-core: sniffed by
  // magic, mapped bank by bank, never fully materialized.
  if (math::IsShardedTableFile(config.checkpoint_path)) {
    StatusOr<std::shared_ptr<math::ShardedEmbeddingTable>> table =
        math::ShardedEmbeddingTable::Open(config.checkpoint_path);
    if (!table.ok()) return table.status();
    ServingModel model;
    model.sharded = *std::move(table);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      model.sharded->ContentFingerprint()));
    model.fingerprint = hex;
    return model;
  }
  checkpoint::TrainState state;
  StatusOr<checkpoint::TrainState> loaded =
      checkpoint::LoadTrainState(config.checkpoint_path);
  if (loaded.ok()) {
    state = *std::move(loaded);
  } else {
    // Not a raw TrainState — fall back to the CV checkpoints a bench
    // --checkpoint-dir writes, serving their fold-0 embeddings (table 0 =
    // source KG, table 1 = target KG, epoch reported as 0).
    StatusOr<core::AlignmentModel> fold =
        core::LoadCvFoldModel(config.checkpoint_path);
    if (!fold.ok()) {
      return Status::InvalidArgument(
          config.checkpoint_path + " is neither a TrainState checkpoint (" +
          loaded.status().ToString() + ") nor a CV checkpoint (" +
          fold.status().ToString() + ")");
    }
    for (const math::Matrix* emb : {&fold->emb1, &fold->emb2}) {
      const auto data = emb->Data();
      state.tables.push_back(math::EmbeddingTable::FromParts(
          emb->rows(), emb->cols(),
          std::vector<float>(data.begin(), data.end()),
          std::vector<float>(data.size(), 0.0f)));
    }
  }
  if (config.table >= state.tables.size()) {
    return Status::InvalidArgument(
        "table " + std::to_string(config.table) +
        " out of range: checkpoint has " +
        std::to_string(state.tables.size()) + " tables");
  }
  const math::EmbeddingTable& table = state.tables[config.table];
  ServingModel model;
  model.epoch = state.epoch;
  model.fingerprint = ModelFingerprint(state);
  model.targets = math::Matrix(table.num_rows(), table.dim());
  const auto data = table.Data();
  std::copy(data.begin(), data.end(), model.targets.Data().begin());
  return model;
}

AlignServer::AlignServer(ServeConfig config, ServingModel model,
                         std::unique_ptr<align::CandidateSource> source)
    : config_(std::move(config)),
      model_(std::move(model)),
      source_(std::move(source)) {}

StatusOr<std::unique_ptr<AlignServer>> AlignServer::Create(
    const ServeConfig& config) {
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;
  StatusOr<ServingModel> model = LoadServingModel(config);
  if (!model.ok()) return model.status();
  StatusOr<std::unique_ptr<align::CandidateSource>> source =
      align::CreateCandidateSource(config.source);
  if (!source.ok()) return source.status();
  const Status indexed = model->sharded
                             ? (*source)->IndexSharded(model->sharded)
                             : (*source)->Index(model->targets);
  if (!indexed.ok()) return indexed;
  return std::unique_ptr<AlignServer>(new AlignServer(
      config, *std::move(model), *std::move(source)));
}

json::Value AlignServer::Hello() const {
  json::Value::Object obj;
  obj["event"] = json::Value("ready");
  obj["source"] = json::Value(source_->Name());
  obj["dim"] = json::Value(static_cast<uint64_t>(source_->dim()));
  obj["targets"] = json::Value(static_cast<uint64_t>(source_->num_targets()));
  obj["epoch"] = json::Value(model_.epoch);
  obj["fingerprint"] = json::Value(model_.fingerprint);
  return json::Value(std::move(obj));
}

StatusOr<AlignServer::SessionStats> AlignServer::Serve(int in_fd,
                                                       int out_fd) {
  telemetry::ScopedSpan session_span("serve_session");
  const std::vector<double> latency_bounds = {
      0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
      1000};
  // Define histograms/windows only once per process: sessions served off a
  // TCP accept loop share one latency history, and a re-Define would reset
  // the trailing window between connections.
  if (request_seq_ == 0) {
    telemetry::DefineHistogram("serve/latency_ms", latency_bounds);
    telemetry::DefineHistogram("serve/batch_size",
                               {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    // Sliding windows behind the stats "window" object and the Prometheus
    // *_window_* gauges. serve/rows observes rows per flush, so its
    // windowed value-rate (sum/sec) is live rows-per-second throughput.
    telemetry::WindowOptions latency_window;
    latency_window.bounds = latency_bounds;
    telemetry::DefineWindow("serve/latency_ms", std::move(latency_window));
    telemetry::DefineWindow("serve/rows", telemetry::WindowOptions());
  }
  LineReader reader(in_fd);
  Stopwatch session_watch;
  uint64_t answered = 0;

  std::vector<PendingTopK> pending;
  std::vector<float> batch_rows;  // Flattened query rows of `pending`.
  const size_t dim = source_->dim();

  std::string response;  // One topk response line, reused.
  auto respond = [&](const json::Value& value) -> Status {
    return WriteAll(out_fd, value.Dump(/*indent=*/0) + "\n");
  };

  auto refresh_gauges = [&] {
    const double elapsed = session_watch.ElapsedSeconds();
    telemetry::SetGauge("serve/qps",
                        elapsed > 0 ? static_cast<double>(answered) / elapsed
                                    : 0.0);
    const auto snapshot = telemetry::SnapshotMetrics();
    const auto it = snapshot.histograms.find("serve/latency_ms");
    if (it != snapshot.histograms.end() && it->second.count > 0) {
      telemetry::SetGauge("serve/p50_ms", it->second.P50());
      telemetry::SetGauge("serve/p95_ms", it->second.P95());
      telemetry::SetGauge("serve/p99_ms", it->second.P99());
    }
  };

  // Runs the batched scan over every queued request and writes their
  // responses in arrival order.
  auto flush = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    telemetry::ScopedSpan span("serve_flush");
    const size_t total_rows = batch_rows.size() / (dim > 0 ? dim : 1);
    math::Matrix queries(total_rows, dim);
    std::copy(batch_rows.begin(), batch_rows.end(), queries.Data().begin());
    size_t max_k = 1;
    for (const auto& req : pending) max_k = std::max(max_k, req.k);
    const align::TopKResult topk = source_->TopK(queries, max_k);
    telemetry::IncrCounter("serve/batches");
    telemetry::Observe("serve/batch_size", static_cast<double>(total_rows));
    telemetry::ObserveWindowed("serve/rows", static_cast<double>(total_rows));
    for (const auto& req : pending) {
      // The per-request slice of the flush: span + trace events emitted
      // here carry the request id, so --trace output filters per request.
      trace::ScopedThreadContext trace_ctx("req:" + req.request_id);
      telemetry::ScopedSpan request_span("serve_request");
      // Graceful degradation: a request already past its deadline gets an
      // explicit DeadlineExceeded answer instead of a late payload. The
      // rest of the batch keeps flushing in order.
      if (config_.deadline_ms > 0 &&
          req.watch.ElapsedMillis() > config_.deadline_ms) {
        telemetry::IncrCounter("serve/deadline_exceeded");
        telemetry::IncrCounter("serve/errors");
        json::Value::Object obj;
        obj["id"] = req.id;
        obj["ok"] = json::Value(false);
        obj["req"] = json::Value(req.request_id);
        obj["error"] = json::Value(
            Status::DeadlineExceeded("request exceeded deadline of " +
                                     std::to_string(config_.deadline_ms) +
                                     " ms")
                .ToString());
        const Status written = respond(json::Value(std::move(obj)));
        if (!written.ok()) return written;
        telemetry::ObserveWindowed("serve/latency_ms",
                                   req.watch.ElapsedMillis());
        continue;
      }
      response.clear();
      AppendTopKResponse(req.id, req.request_id, topk, req.row_begin,
                         req.rows, req.k, response);
      response.push_back('\n');
      const Status written = WriteAll(out_fd, response);
      if (!written.ok()) return written;
      const double latency_ms = req.watch.ElapsedMillis();
      telemetry::ObserveWindowed("serve/latency_ms", latency_ms);
      if (config_.slow_request_ms > 0 &&
          latency_ms >= config_.slow_request_ms) {
        telemetry::IncrCounter("serve/slow_requests");
        OPENEA_SLOG(kWarning)
                .Field("req", req.request_id)
                .Field("ms", latency_ms)
                .Field("rows", static_cast<uint64_t>(req.rows))
                .Field("k", static_cast<uint64_t>(req.k))
                .Field("batch", static_cast<uint64_t>(total_rows))
            << "slow request";
      }
      answered += req.rows;
    }
    telemetry::IncrCounter("serve/queries", total_rows);
    pending.clear();
    batch_rows.clear();
    return Status::OK();
  };

  // Parses one topk request into the pending batch; any error is returned
  // to the caller for an in-order error response.
  auto queue_topk = [&](const json::Value& request) -> Status {
    const json::Value* rows = request.Find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return Status::InvalidArgument("topk request needs a \"rows\" array");
    }
    if (rows->array().empty() ||
        rows->array().size() > config_.max_rows_per_request) {
      return Status::InvalidArgument(
          "\"rows\" must hold 1.." +
          std::to_string(config_.max_rows_per_request) + " rows");
    }
    const json::Value* fp = request.Find("fingerprint");
    if (fp != nullptr &&
        (!fp->is_string() || fp->string_value() != model_.fingerprint)) {
      return Status::FailedPrecondition(
          "model fingerprint mismatch: serving " + model_.fingerprint);
    }
    size_t k = config_.default_k;
    if (const json::Value* kv = request.Find("k"); kv != nullptr) {
      if (!kv->is_number() || kv->number() < 1 ||
          kv->number() != std::floor(kv->number())) {
        return Status::InvalidArgument("\"k\" must be a positive integer");
      }
      k = static_cast<size_t>(kv->number());
    }
    PendingTopK req;
    if (const json::Value* id = request.Find("id")) req.id = *id;
    req.request_id = "r-" + std::to_string(++request_seq_);
    req.k = k;
    req.row_begin = batch_rows.size() / (dim > 0 ? dim : 1);
    req.rows = rows->array().size();
    for (const json::Value& row : rows->array()) {
      if (!row.is_array() || row.array().size() != dim) {
        return Status::InvalidArgument(
            "every row must be an array of dim=" + std::to_string(dim) +
            " numbers");
      }
      for (const json::Value& cell : row.array()) {
        if (!cell.is_number()) {
          return Status::InvalidArgument("row cells must be numbers");
        }
        batch_rows.push_back(static_cast<float>(cell.number()));
      }
    }
    pending.push_back(std::move(req));
    return Status::OK();
  };

  std::string line;
  bool shutdown = false;
  while (!shutdown) {
    // Block only when the batch is empty; otherwise drain what is already
    // readable and flush as soon as the client pauses.
    const LineReader::Result got = reader.Next(&line, pending.empty());
    if (got == LineReader::Result::kEof) break;
    if (got == LineReader::Result::kWouldBlock) {
      const Status flushed = flush();
      if (!flushed.ok()) return flushed;
      continue;
    }
    if (line.empty()) continue;
    telemetry::IncrCounter("serve/requests");

    json::Value request;
    const Status parsed = json::Parse(line, &request);
    if (!parsed.ok() || !request.is_object()) {
      const Status flushed = flush();  // Keep responses in request order.
      if (!flushed.ok()) return flushed;
      telemetry::IncrCounter("serve/errors");
      const Status written = respond(ErrorResponse(
          json::Value(),
          parsed.ok() ? Status::InvalidArgument("request must be an object")
                      : parsed));
      if (!written.ok()) return written;
      continue;
    }
    const json::Value* op = request.Find("op");
    const std::string op_name =
        op != nullptr && op->is_string() ? op->string_value() : "";
    const json::Value* id = request.Find("id");
    const json::Value id_value = id != nullptr ? *id : json::Value();
    // Per-op labeled counter; unknown ops share one label so a misbehaving
    // client cannot grow the registry without bound.
    const bool known_op = op_name == "topk" || op_name == "ping" ||
                          op_name == "stats" || op_name == "metrics" ||
                          op_name == "shutdown";
    telemetry::IncrCounter(telemetry::LabeledName(
        "serve/ops", {{"op", known_op ? op_name : "unknown"}}));

    if (op_name == "topk") {
      // Queue first: a partially-queued bad request must not leak rows
      // into the batch, so queue_topk rolls nothing back — it validates
      // before mutating per row, and on error we truncate to the last
      // committed request boundary.
      const size_t rows_mark = batch_rows.size();
      const Status queued = queue_topk(request);
      if (!queued.ok()) {
        batch_rows.resize(rows_mark);
        const Status flushed = flush();
        if (!flushed.ok()) return flushed;
        telemetry::IncrCounter("serve/errors");
        const Status written = respond(ErrorResponse(id_value, queued));
        if (!written.ok()) return written;
      } else if (pending.size() >= config_.max_batch) {
        const Status flushed = flush();
        if (!flushed.ok()) return flushed;
      }
      continue;
    }

    // Control ops barrier on the pending batch.
    const Status flushed = flush();
    if (!flushed.ok()) return flushed;
    if (op_name == "ping") {
      json::Value::Object obj;
      obj["id"] = id_value;
      obj["ok"] = json::Value(true);
      obj["event"] = json::Value("pong");
      const Status written = respond(json::Value(std::move(obj)));
      if (!written.ok()) return written;
    } else if (op_name == "stats") {
      refresh_gauges();
      json::Value::Object obj;
      obj["id"] = id_value;
      obj["ok"] = json::Value(true);
      obj["queries"] = json::Value(answered);
      const auto snapshot = telemetry::SnapshotMetrics();
      auto gauge = [&](const char* name) {
        const auto it = snapshot.gauges.find(name);
        return it != snapshot.gauges.end() ? it->second : 0.0;
      };
      obj["qps"] = json::Value(gauge("serve/qps"));
      obj["p50_ms"] = json::Value(gauge("serve/p50_ms"));
      obj["p95_ms"] = json::Value(gauge("serve/p95_ms"));
      obj["p99_ms"] = json::Value(gauge("serve/p99_ms"));
      // Trailing-window view (see the "stats fields" block in server.h):
      // latency quantiles/request rate from the serve/latency_ms window,
      // rows/sec throughput from the serve/rows window's value-rate.
      json::Value::Object window;
      const auto lat = snapshot.windows.find("serve/latency_ms");
      if (lat != snapshot.windows.end()) {
        window["seconds"] = json::Value(lat->second.window_seconds);
        window["requests_per_sec"] = json::Value(lat->second.rate_per_sec);
        window["count"] = json::Value(lat->second.histogram.count);
        window["p50_ms"] = json::Value(lat->second.histogram.P50());
        window["p95_ms"] = json::Value(lat->second.histogram.P95());
        window["p99_ms"] = json::Value(lat->second.histogram.P99());
      }
      const auto rows = snapshot.windows.find("serve/rows");
      window["qps"] = json::Value(
          rows != snapshot.windows.end() ? rows->second.value_rate_per_sec
                                         : 0.0);
      obj["window"] = json::Value(std::move(window));
      const Status written = respond(json::Value(std::move(obj)));
      if (!written.ok()) return written;
    } else if (op_name == "metrics") {
      json::Value::Object obj;
      obj["id"] = id_value;
      obj["ok"] = json::Value(true);
      obj["format"] = json::Value("prometheus");
      obj["text"] =
          json::Value(telemetry::RenderPrometheus(telemetry::SnapshotMetrics()));
      const Status written = respond(json::Value(std::move(obj)));
      if (!written.ok()) return written;
    } else if (op_name == "shutdown") {
      json::Value::Object obj;
      obj["id"] = id_value;
      obj["ok"] = json::Value(true);
      obj["event"] = json::Value("bye");
      const Status written = respond(json::Value(std::move(obj)));
      if (!written.ok()) return written;
      shutdown = true;
    } else {
      telemetry::IncrCounter("serve/errors");
      const Status written = respond(ErrorResponse(
          id_value, Status::InvalidArgument(
                        op_name.empty() ? "request needs an \"op\" string"
                                        : "unknown op \"" + op_name + "\"")));
      if (!written.ok()) return written;
    }
  }
  const Status flushed = flush();
  if (!flushed.ok()) return flushed;
  refresh_gauges();
  if (request_seq_ > 0) {
    telemetry::AddContext("last_request_id",
                          json::Value("r-" + std::to_string(request_seq_)));
  }
  return SessionStats{answered, shutdown};
}

void AppendTopKResponse(const json::Value& id, std::string_view request_id,
                        const align::TopKResult& topk, size_t row_begin,
                        size_t rows, size_t k, std::string& out) {
  // One [[..],..] array per field, row by row.
  auto append_rows = [&](auto&& append_entry) {
    out.push_back('[');
    for (size_t r = 0; r < rows; ++r) {
      if (r > 0) out.push_back(',');
      out.push_back('[');
      const auto row = topk.Row(row_begin + r);
      for (size_t t = 0; t < k; ++t) {
        if (t > 0) out.push_back(',');
        append_entry(row[t]);
      }
      out.push_back(']');
    }
    out.push_back(']');
  };
  out += "{\"id\":";
  out += id.Dump(/*indent=*/0);
  out += ",\"ids\":";
  append_rows([&](const align::TopKEntry& e) {
    json::AppendNumber(e.index, out);
  });
  out += ",\"ok\":true,\"req\":";
  json::AppendString(request_id, out);
  out += ",\"scores\":";
  append_rows([&](const align::TopKEntry& e) {
    json::AppendNumber(e.index >= 0 ? static_cast<double>(e.value) : 0.0,
                       out);
  });
  out.push_back('}');
}

Status HandleHttpClient(int fd) {
  // Read request headers up to the blank line (or a small cap — we only
  // ever need the request line, and a capped read keeps one client from
  // holding the sequential accept loop with an endless header stream).
  std::string head;
  constexpr size_t kMaxHeaderBytes = 8192;
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kMaxHeaderBytes) {
    char chunk[1024];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      head.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
  }
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  // "GET /metrics" or "GET /metrics?..." / " HTTP/1.1".
  const bool is_metrics =
      request_line.rfind("GET /metrics", 0) == 0 &&
      (request_line.size() == sizeof("GET /metrics") - 1 ||
       request_line[sizeof("GET /metrics") - 1] == ' ' ||
       request_line[sizeof("GET /metrics") - 1] == '?');
  if (is_metrics) {
    return WriteAll(
        fd, telemetry::HttpMetricsResponse(telemetry::SnapshotMetrics()));
  }
  const std::string body = "not found\n";
  std::string response = "HTTP/1.1 404 Not Found\r\n";
  response += "Content-Type: text/plain; charset=utf-8\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return WriteAll(fd, response);
}

}  // namespace openea::serve
