#ifndef OPENEA_SERVE_SERVER_H_
#define OPENEA_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/align/candidate_source.h"
#include "src/common/checkpoint.h"
#include "src/common/json.h"
#include "src/common/status.h"
#include "src/math/matrix.h"
#include "src/math/sharded_table.h"

namespace openea::serve {

/// Online alignment serving (DESIGN.md, "Candidate generation & serving"):
/// `align-serve` loads a trained embedding table from a training-state
/// checkpoint, indexes it behind a CandidateSource, and answers batched
/// top-k lookups over a newline-delimited JSON protocol (stdin/stdout or a
/// TCP socket).
///
/// Wire protocol — one JSON object per line, answered in request order:
///
///   server hello   {"event":"ready","source":"ann_ivf","dim":D,
///                   "targets":N,"epoch":E,"fingerprint":"<16 hex>"}
///   topk request   {"op":"topk","id":<any>,"rows":[[f..],..],"k":K,
///                   "fingerprint":"<optional, must match the hello>"}
///   topk response  {"id":<echoed>,"ok":true,"req":"r-<seq>",
///                   "ids":[[..],..],"scores":[[..],..]}
///                   (-1 id pads short rows)
///   ping           {"op":"ping"}        -> {"ok":true,"event":"pong"}
///   stats          {"op":"stats"}       -> see "stats fields" below
///   metrics        {"op":"metrics"}     -> {"ok":true,
///                   "format":"prometheus","text":"<exposition>"}
///   shutdown       {"op":"shutdown"}    -> {"ok":true,"event":"bye"}
///   any error      {"id":<echoed|null>,"ok":false,"error":"<Status>"}
///
/// Request ids: every accepted topk request gets a server-generated id
/// "r-<seq>" at ingest (monotonic across every session of the process).
/// The id is echoed in the response's "req" field, labels the request's
/// `serve_request` trace span (args.ctx = "req:r-<seq>" in the Chrome
/// export), and names the request in slow-request log lines — one handle
/// to correlate a response with its timeline slice and log records.
///
/// stats fields — cumulative-since-startup vs trailing-window semantics:
///   "queries"  total topk query rows answered (cumulative);
///   "qps"      rows/sec averaged over the whole session (cumulative);
///   "p50_ms"/"p95_ms"/"p99_ms"  request latency quantiles over every
///              request since startup (cumulative histogram);
///   "window"   {"seconds":S,"qps":..,"requests_per_sec":..,"p50_ms":..,
///              "p95_ms":..,"p99_ms":..,"count":..} — the same measures
///              over the trailing ~60 s sliding window only, so two
///              consecutive stats calls reflect recent traffic: "qps" is
///              windowed rows/sec, "requests_per_sec" windowed requests/s,
///              the quantiles cover the window's requests, "count" is the
///              number of requests in the window, and "seconds" the span
///              the window actually covers (< 60 early in a session).
/// The `metrics` op and the GET /metrics HTTP responder render these same
/// series in Prometheus text exposition (src/common/metrics_export.h):
/// window values appear as serve_latency_ms_window_* and
/// serve_rows_window_* gauges.
///
/// Consecutive topk requests are micro-batched: the server drains every
/// line the descriptor can deliver without blocking (up to `max_batch`
/// queued requests), packs all their query rows into one matrix, and runs
/// a single CandidateSource::TopK over the ParallelFor pool — so a client
/// that pipelines M small requests gets one M-row batched scan, not M
/// index probes. Control ops (ping/stats/shutdown) and malformed lines act
/// as barriers: the pending batch flushes first, keeping responses in
/// request order.
///
/// Telemetry: counters `serve/requests`, `serve/queries`, `serve/batches`,
/// `serve/errors`, plus per-op labeled counters `serve/ops{op="topk"}` etc;
/// histograms `serve/latency_ms` (request parse -> response write, also
/// windowed) and `serve/batch_size` (queries per flushed batch); windowed
/// series `serve/rows` (rows per flush, so its window value-rate is live
/// rows/sec); gauges `serve/qps`, `serve/p50_ms`, `serve/p95_ms`,
/// `serve/p99_ms` refreshed on every stats op and at session end. The whole
/// session runs under a `serve_session` span, each flush under
/// `serve_flush`, and each request's response assembly under
/// `serve_request` (trace ctx "req:r-<seq>").
struct ServeConfig {
  /// Checkpoint to serve from: a raw TrainState (SaveTrainState format), a
  /// CV checkpoint written by a bench --checkpoint-dir (its fold-0
  /// embeddings become tables 0/1; see core::LoadCvFoldModel), or a
  /// shard-banked table file (sniffed by magic and served out-of-core; see
  /// ServingModel::sharded). `table` is ignored for shard files — they hold
  /// exactly one table.
  std::string checkpoint_path;
  /// Which checkpoint table holds the target (indexed) embeddings. The
  /// convention of the training loop is table 0 = source KG, 1 = target KG.
  size_t table = 1;
  /// Candidate index built over the table rows.
  align::CandidateSourceConfig source;
  /// k used by topk requests that omit "k".
  size_t default_k = 10;
  /// Flush threshold: at most this many queued topk requests per batch.
  size_t max_batch = 64;
  /// Per-request row cap — oversized requests get InvalidArgument, keeping
  /// one client from unboundedly growing the batch matrix.
  size_t max_rows_per_request = 4096;
  /// Requests slower than this (parse -> response write) emit a structured
  /// warning log line carrying the request id, latency, rows, and k.
  /// <= 0 disables the slow-request log.
  double slow_request_ms = 100.0;
  /// Per-request deadline (parse -> response write). A request already past
  /// its deadline when its micro-batch flushes is answered with an explicit
  /// DeadlineExceeded error (counted under `serve/deadline_exceeded`)
  /// instead of a late topk payload; the rest of the batch is unaffected.
  /// <= 0 disables the deadline.
  double deadline_ms = 0.0;

  Status Validate() const;
};

/// An embedding table extracted from a checkpoint, plus the identity the
/// protocol checks: a FNV-1a fingerprint over every table's shape and
/// value bytes (16 lowercase hex chars), so a client can pin the exact
/// model revision it expects and a stale/foreign checkpoint is rejected
/// with FailedPrecondition instead of silently serving wrong neighbours.
struct ServingModel {
  math::Matrix targets;
  uint64_t epoch = 0;
  std::string fingerprint;
  /// Set when the checkpoint was a shard-banked table file
  /// (src/math/sharded_table.h): the server then indexes out-of-core through
  /// CandidateSource::IndexSharded and `targets` stays empty — the full
  /// table is never materialized in RAM. The fingerprint comes from the
  /// table's ContentFingerprint (header + bank CRCs) and epoch reports 0.
  std::shared_ptr<const math::ShardedEmbeddingTable> sharded;
};

/// FNV-1a fingerprint of a training state (shape + values of every table).
std::string ModelFingerprint(const checkpoint::TrainState& state);

/// Loads `config.table` out of the checkpoint at `config.checkpoint_path`.
StatusOr<ServingModel> LoadServingModel(const ServeConfig& config);

class AlignServer {
 public:
  /// Validates the config, loads the model, builds + indexes the candidate
  /// source. Any failure (bad config, unreadable checkpoint, table out of
  /// range) surfaces as the returned Status.
  static StatusOr<std::unique_ptr<AlignServer>> Create(
      const ServeConfig& config);

  /// The "ready" hello object (first line of every session).
  json::Value Hello() const;

  /// What ended a session and how much it served. `shutdown` distinguishes
  /// an explicit shutdown op from plain EOF, so a TCP accept loop knows
  /// whether to keep accepting further connections.
  struct SessionStats {
    uint64_t answered = 0;
    bool shutdown = false;
  };

  /// Serves NDJSON requests from `in_fd` until EOF or a shutdown op,
  /// writing responses to `out_fd`. Returns the number of topk query rows
  /// answered and whether a shutdown op ended the session. Not an error to
  /// serve an empty session; request ids keep counting across sessions.
  StatusOr<SessionStats> Serve(int in_fd, int out_fd);

  const ServingModel& model() const { return model_; }
  const align::CandidateSource& source() const { return *source_; }

 private:
  AlignServer(ServeConfig config, ServingModel model,
              std::unique_ptr<align::CandidateSource> source);

  ServeConfig config_;
  ServingModel model_;
  std::unique_ptr<align::CandidateSource> source_;
  uint64_t request_seq_ = 0;
};

/// Appends one topk response line (no newline) to `out`: for each of the
/// `rows` result rows from `row_begin` of `topk`, its first `k` entries.
/// The bytes are the compact Dump of the object {"id", "ids", "ok", "req",
/// "scores"}, written straight from the result without building the
/// object: keys in the object's sorted order, `id` through Value::Dump,
/// ids and scores through json::AppendNumber. A -1 (padding) id gets the
/// score 0, as JSON has no -inf.
void AppendTopKResponse(const json::Value& id, std::string_view request_id,
                        const align::TopKResult& topk, size_t row_begin,
                        size_t rows, size_t k, std::string& out);

/// Answers one already-accepted HTTP connection on the --listen socket:
/// `GET /metrics` gets the Prometheus exposition of the current telemetry
/// snapshot, anything else a 404. Reads until the header terminator (or a
/// small cap), writes the full response, and returns; the caller closes the
/// socket. Used by align-serve when the first bytes of a connection look
/// like an HTTP request line instead of NDJSON.
Status HandleHttpClient(int fd);

}  // namespace openea::serve

#endif  // OPENEA_SERVE_SERVER_H_
