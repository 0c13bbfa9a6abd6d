#include "src/common/trace.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "src/common/telemetry.h"

namespace openea::trace {
namespace {

/// One thread's event ring. Only the owning thread writes slots; `head` is
/// the total number of events ever pushed (slot index = head % capacity),
/// published with release so the draining thread sees completed slots.
struct ThreadBuffer {
  uint32_t tid = 0;
  std::string thread_name;
  std::vector<TraceEvent> slots;
  std::atomic<uint64_t> head{0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  TraceConfig config;
  /// True between Start() and the post-session drain: registration sizes a
  /// new thread's ring immediately instead of waiting for the next Start().
  bool armed = false;
};

Registry& GetRegistry() {
  // Leaked on purpose: instrumented threads may outlive static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

/// Session epoch as steady_clock nanoseconds, readable without the lock.
std::atomic<int64_t>& EpochNs() {
  static std::atomic<int64_t> epoch{0};
  return epoch;
}

thread_local ThreadBuffer* t_buffer = nullptr;

/// Per-thread causality context copied into every emitted event. A fixed
/// buffer (not std::string) so reading it in Emit never allocates.
thread_local char t_context[TraceEvent::kMaxContextLength + 1] = {0};

double NowUs() {
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  return static_cast<double>(now_ns -
                             EpochNs().load(std::memory_order_relaxed)) /
         1000.0;
}

/// Registers the calling thread (idempotent) and, inside an armed session,
/// sizes its ring. Rings are only allocated while a session wants them, so
/// threads that merely announce a name cost a few hundred bytes.
ThreadBuffer* RegisterCurrentThread() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<uint32_t>(reg.buffers.size());
    buffer->thread_name = "thread-" + std::to_string(buffer->tid);
    t_buffer = buffer.get();
    reg.buffers.push_back(std::move(buffer));
  }
  if (reg.armed &&
      t_buffer->slots.size() != reg.config.events_per_thread) {
    t_buffer->slots.assign(reg.config.events_per_thread, TraceEvent{});
    t_buffer->head.store(0, std::memory_order_relaxed);
  }
  return t_buffer;
}

void Emit(EventKind kind, std::string_view name, double value) {
  ThreadBuffer* buffer = t_buffer;
  if (buffer == nullptr || buffer->slots.empty()) {
    buffer = RegisterCurrentThread();
    if (buffer->slots.empty()) return;  // No armed session.
  }
  const uint64_t head = buffer->head.load(std::memory_order_relaxed);
  TraceEvent& slot = buffer->slots[head % buffer->slots.size()];
  slot.kind = kind;
  slot.tid = buffer->tid;
  slot.value = value;
  slot.ts_us = NowUs();
  const size_t n = std::min(name.size(), TraceEvent::kMaxNameLength);
  // An empty name (trace::End) may carry a null data(); memcpy must not
  // see it even for zero bytes.
  if (n != 0) std::memcpy(slot.name, name.data(), n);
  slot.name[n] = '\0';
  if (kind == EventKind::kEnd) {
    slot.ctx[0] = '\0';  // E events inherit their B's args in Chrome.
  } else {
    std::memcpy(slot.ctx, t_context, sizeof(t_context));
  }
  buffer->head.store(head + 1, std::memory_order_release);
}

}  // namespace

void Start(const TraceConfig& config) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.config = config;
  if (reg.config.events_per_thread == 0) reg.config.events_per_thread = 1;
  reg.armed = true;
  for (auto& buffer : reg.buffers) {
    buffer->slots.assign(reg.config.events_per_thread, TraceEvent{});
    buffer->head.store(0, std::memory_order_relaxed);
  }
  EpochNs().store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_relaxed);
  EnabledFlag().store(true, std::memory_order_relaxed);
}

void Stop() { EnabledFlag().store(false, std::memory_order_relaxed); }

std::vector<TraceEvent> DrainEvents(uint64_t* dropped) {
  Registry& reg = GetRegistry();
  std::vector<TraceEvent> out;
  uint64_t total_dropped = 0;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (auto& buffer : reg.buffers) {
      const uint64_t head = buffer->head.load(std::memory_order_acquire);
      const uint64_t capacity = buffer->slots.size();
      if (capacity == 0) continue;
      const uint64_t kept = std::min(head, capacity);
      if (head > capacity) total_dropped += head - capacity;
      // Oldest surviving event first: ring order within the thread.
      for (uint64_t seq = head - kept; seq < head; ++seq) {
        out.push_back(buffer->slots[seq % capacity]);
      }
      buffer->head.store(0, std::memory_order_relaxed);
      std::vector<TraceEvent>().swap(buffer->slots);
    }
    reg.armed = false;
  }
  // Stable sort: ties keep per-thread ring order because buffers were
  // appended sequentially above.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });
  if (total_dropped > 0) {
    telemetry::IncrCounter("telemetry/trace_dropped", total_dropped);
  }
  if (dropped != nullptr) *dropped += total_dropped;
  return out;
}

json::Value BuildChromeTraceDocument(const std::vector<TraceEvent>& events,
                                     uint64_t dropped) {
  json::Value::Array trace_events;
  {
    json::Value::Object process_name;
    process_name.emplace("name", "process_name");
    process_name.emplace("ph", "M");
    process_name.emplace("pid", 1);
    process_name.emplace("tid", 0);
    json::Value::Object args;
    args.emplace("name", "openea");
    process_name.emplace("args", std::move(args));
    trace_events.emplace_back(std::move(process_name));
  }
  // thread_name metadata for every tid that actually appears.
  std::vector<uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (uint32_t tid : tids) {
      json::Value::Object meta;
      meta.emplace("name", "thread_name");
      meta.emplace("ph", "M");
      meta.emplace("pid", 1);
      meta.emplace("tid", static_cast<int64_t>(tid));
      json::Value::Object args;
      args.emplace("name", tid < reg.buffers.size()
                               ? reg.buffers[tid]->thread_name
                               : "thread-" + std::to_string(tid));
      meta.emplace("args", std::move(args));
      trace_events.emplace_back(std::move(meta));
    }
  }
  for (const TraceEvent& e : events) {
    json::Value::Object entry;
    entry.emplace("pid", 1);
    entry.emplace("tid", static_cast<int64_t>(e.tid));
    entry.emplace("ts", e.ts_us);
    json::Value::Object args;
    if (!e.ctx_view().empty()) {
      args.emplace("ctx", std::string(e.ctx_view()));
    }
    switch (e.kind) {
      case EventKind::kBegin:
        entry.emplace("name", std::string(e.name_view()));
        entry.emplace("ph", "B");
        break;
      case EventKind::kEnd:
        entry.emplace("ph", "E");
        break;
      case EventKind::kInstant:
        entry.emplace("name", std::string(e.name_view()));
        entry.emplace("ph", "i");
        entry.emplace("s", "t");
        break;
      case EventKind::kCounter:
        entry.emplace("name", std::string(e.name_view()));
        entry.emplace("ph", "C");
        args.emplace("value", e.value);
        break;
    }
    if (!args.empty()) entry.emplace("args", std::move(args));
    trace_events.emplace_back(std::move(entry));
  }
  json::Value::Object doc;
  doc.emplace("displayTimeUnit", "ms");
  json::Value::Object other;
  other.emplace("dropped_events", dropped);
  doc.emplace("otherData", std::move(other));
  doc.emplace("traceEvents", std::move(trace_events));
  return json::Value(std::move(doc));
}

Status StopAndExport() {
  Stop();
  std::string path;
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    path = reg.config.path;
  }
  uint64_t dropped = 0;
  const std::vector<TraceEvent> events = DrainEvents(&dropped);
  if (path.empty()) return Status::OK();
  return json::WriteFile(path, BuildChromeTraceDocument(events, dropped));
}

void Begin(std::string_view name) {
  if (!Enabled()) return;
  Emit(EventKind::kBegin, name, 0.0);
}

void End() {
  if (!Enabled()) return;
  Emit(EventKind::kEnd, std::string_view(), 0.0);
}

void Instant(std::string_view name) {
  if (!Enabled()) return;
  Emit(EventKind::kInstant, name, 0.0);
}

void Counter(std::string_view name, double value) {
  if (!Enabled()) return;
  Emit(EventKind::kCounter, name, value);
}

void SetCurrentThreadName(std::string_view name) {
  ThreadBuffer* buffer = RegisterCurrentThread();
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  buffer->thread_name.assign(name);
}

void SetThreadContext(std::string_view ctx) {
  const size_t n = std::min(ctx.size(), TraceEvent::kMaxContextLength);
  std::memcpy(t_context, ctx.data(), n);
  t_context[n] = '\0';
}

std::string_view ThreadContext() { return std::string_view(t_context); }

}  // namespace openea::trace
