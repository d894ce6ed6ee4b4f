#include "common/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/telemetry.h"

namespace scenerec {
namespace trace {

namespace internal {

thread_local constinit SpanStack t_stack{};

namespace {

/// Span loss is itself observable: drop-oldest overwrites bump this, so a
/// truncated timeline announces itself in the telemetry dump.
const telemetry::Counter t_dropped_spans =
    telemetry::RegisterCounter("trace/dropped_spans");

/// Active options, mirrored out of TraceOptions so Arm() and a new ring
/// read them without the registry mutex. Relaxed: they are advisory, like
/// g_enabled.
std::atomic<uint64_t> g_op_floor_ns{TraceOptions{}.op_floor_ns};
std::atomic<uint64_t> g_kernel_floor_ns{TraceOptions{}.kernel_floor_ns};
std::atomic<size_t> g_buffer_capacity{TraceOptions{}.buffer_capacity};

inline constexpr size_t kArgsWords = kMaxArgsChars / sizeof(uint64_t);
static_assert(kMaxArgsChars % sizeof(uint64_t) == 0);

/// One ring slot. Only the owning thread writes it, every field through an
/// atomic, so a reader's concurrent loads are well-defined (the owner-writes
/// pattern of telemetry's slabs). `seq` tells a reader whether the fields it
/// loaded belong to one span: it is odd while the owner writes the slot,
/// and 2 * (index + 1) once the slot holds the ring's index-th span.
/// `name`/`cat` point at static strings.
struct SpanRecord {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> cat{nullptr};
  std::atomic<uint64_t> start_ns{0};   // since the process-wide trace epoch
  std::atomic<uint64_t> dur_ns{0};
  std::atomic<uint64_t> id{0};         // unique per span, never 0
  std::atomic<uint64_t> parent_id{0};  // 0 = root
  std::array<std::atomic<uint64_t>, kArgsWords> args{};  // NUL-terminated
};

/// Per-thread ring of finished spans. Registered once in the global
/// registry and kept alive past thread exit so its spans survive for export.
struct ThreadBuffer {
  explicit ThreadBuffer(size_t capacity) : records(capacity) {}

  std::vector<SpanRecord> records;  // ring storage, fixed at creation
  /// Spans ever written; slot = index % size. Stored (release) after the
  /// slot, so a reader that loads it sees every slot below it written.
  std::atomic<uint64_t> next{0};
  /// The reader-side mark: spans below it were drained or reset away.
  /// Written under the registry's reader mutex; the owner reads it to tell
  /// an overwrite that loses a span from one that does not.
  std::atomic<uint64_t> mark{0};
  uint64_t next_seq = 0;  // span-id sequence, written by the owner only
  /// Registration order, set under the registry mutex before the owner's
  /// first span.
  uint32_t thread_index = 0;
};

/// All thread buffers ever created. Buffers are owned by the registry (not
/// the thread) so records survive thread exit for export, and are never
/// freed. A Meyers singleton, leaked so it outlives every traced thread.
struct Registry {
  /// Guards `buffers`; held only to register a ring or copy the ring
  /// pointers, so a thread's first span never waits for a reader.
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  /// Serializes the readers (Drain, Snapshot, Reset) and their marks. Taken
  /// before `mu`, never after.
  std::mutex read_mu;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// The calling thread's buffer; null until its first armed span.
thread_local constinit ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& CreateBuffer() {
  // The ring is allocated and zero-filled (6.5 MiB at the default capacity)
  // before the lock, so neither a reader nor another thread's first span
  // waits for it.
  auto buffer = std::make_unique<ThreadBuffer>(
      std::max<size_t>(1, g_buffer_capacity.load(std::memory_order_relaxed)));
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  buffer->thread_index = static_cast<uint32_t>(reg.buffers.size());
  t_buffer = buffer.get();
  reg.buffers.push_back(std::move(buffer));
  return *t_buffer;
}

ThreadBuffer& Buffer() {
  ThreadBuffer* b = t_buffer;
  return b != nullptr ? *b : CreateBuffer();
}

/// The rings registered so far, copied under the registration lock. Rings
/// are never freed, so the pointers stay valid after it is released.
std::vector<ThreadBuffer*> Buffers() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<ThreadBuffer*> out;
  out.reserve(reg.buffers.size());
  for (const auto& buf : reg.buffers) out.push_back(buf.get());
  return out;
}

/// Appends a finished span to the calling thread's ring (drop-oldest).
/// `args` holds kMaxArgsChars bytes.
void Record(const char* name, const char* cat, uint64_t start_ns,
            uint64_t dur_ns, uint64_t id, uint64_t parent_id,
            const char* args) {
  ThreadBuffer& buf = Buffer();
  const uint64_t n = buf.next.load(std::memory_order_relaxed);
  const uint64_t capacity = buf.records.size();
  if (n >= capacity &&
      n - capacity >= buf.mark.load(std::memory_order_relaxed)) {
    // Ring full: this write overwrites a span no drain has returned.
    t_dropped_spans.Add(1);
  }
  SpanRecord& rec = buf.records[n % capacity];
  rec.seq.store(2 * n + 1, std::memory_order_relaxed);
  // Release on every field store: a reader whose (acquire) load sees any of
  // them then sees the odd or a later seq when it checks again. On x86 each
  // is a plain move, and unlike a standalone fence TSan models it.
  constexpr std::memory_order kRelease = std::memory_order_release;
  rec.name.store(name, kRelease);
  rec.cat.store(cat, kRelease);
  rec.start_ns.store(start_ns, kRelease);
  rec.dur_ns.store(dur_ns, kRelease);
  rec.id.store(id, kRelease);
  rec.parent_id.store(parent_id, kRelease);
  for (size_t w = 0; w < kArgsWords; ++w) {
    uint64_t word;
    std::memcpy(&word, args + w * sizeof(word), sizeof(word));
    rec.args[w].store(word, kRelease);
  }
  rec.seq.store(2 * (n + 1), kRelease);
  buf.next.store(n + 1, std::memory_order_release);
}

/// Copies `rec` into `out` when it holds the ring's `index`-th span both
/// before and after the copy; false when the owner overwrote it (or was
/// writing it) meanwhile.
bool ReadRecord(const SpanRecord& rec, uint64_t index, TraceSpan* out) {
  const uint64_t want = 2 * (index + 1);
  // Acquire on every load pairs with Record's release stores, and keeps
  // the re-check of `seq` after the copy.
  constexpr std::memory_order kAcquire = std::memory_order_acquire;
  if (rec.seq.load(kAcquire) != want) return false;
  const char* name = rec.name.load(kAcquire);
  const char* cat = rec.cat.load(kAcquire);
  const uint64_t start_ns = rec.start_ns.load(kAcquire);
  const uint64_t dur_ns = rec.dur_ns.load(kAcquire);
  const uint64_t id = rec.id.load(kAcquire);
  const uint64_t parent_id = rec.parent_id.load(kAcquire);
  char args[kMaxArgsChars];
  for (size_t w = 0; w < kArgsWords; ++w) {
    const uint64_t word = rec.args[w].load(kAcquire);
    std::memcpy(args + w * sizeof(word), &word, sizeof(word));
  }
  if (rec.seq.load(std::memory_order_relaxed) != want) return false;
  out->name = name;
  out->cat = cat;
  out->args.assign(args, strnlen(args, kMaxArgsChars));
  out->start_ns = start_ns;
  out->dur_ns = dur_ns;
  out->id = id;
  out->parent_id = parent_id;
  return true;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch())
          .count());
}

uint64_t FloorNs(Floor floor) {
  switch (floor) {
    case Floor::kNone:
      return 0;
    case Floor::kOp:
      return g_op_floor_ns.load(std::memory_order_relaxed);
    case Floor::kKernel:
      return g_kernel_floor_ns.load(std::memory_order_relaxed);
  }
  return 0;
}

}  // namespace internal

SpanContext CurrentContext() {
  const internal::SpanStack& stack = internal::t_stack;
  if (stack.depth > 0) {
    const int top = std::min(stack.depth, internal::kMaxSpanDepth) - 1;
    return SpanContext{stack.ids[top]};
  }
  return SpanContext{stack.inherited_parent};
}

SpanScope::SpanScope(const char* name, const char* cat, Floor floor,
                     const char* fmt, ...) {
  if (!Enabled()) {
    armed_ = false;
    return;
  }
  Arm(name, cat, floor);
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(args_, sizeof(args_), fmt, ap);
  va_end(ap);
}

void SpanScope::Arm(const char* name, const char* cat, Floor floor) {
  armed_ = true;
  name_ = name;
  cat_ = cat;
  floor_ns_ = internal::FloorNs(floor);
  std::memset(args_, 0, sizeof(args_));  // Record copies all of it

  internal::ThreadBuffer& buf = internal::Buffer();
  // (thread_index + 1) << 40 | per-thread sequence: unique process-wide
  // without any contended atomic on the hot path, and never 0.
  id_ = (static_cast<uint64_t>(buf.thread_index + 1) << 40) | ++buf.next_seq;

  internal::SpanStack& stack = internal::t_stack;
  if (stack.depth > 0) {
    parent_id_ = stack.ids[std::min(stack.depth, internal::kMaxSpanDepth) - 1];
  } else {
    parent_id_ = stack.inherited_parent;
  }
  if (stack.depth < internal::kMaxSpanDepth) stack.ids[stack.depth] = id_;
  ++stack.depth;  // counts past kMaxSpanDepth; deeper spans parent to the
                  // deepest tracked ancestor

  start_ns_ = internal::NowNs();
}

void SpanScope::Finish() {
  const uint64_t dur_ns = internal::NowNs() - start_ns_;
  internal::SpanStack& stack = internal::t_stack;
  if (stack.depth > 0) --stack.depth;
  if (dur_ns >= floor_ns_) {
    internal::Record(name_, cat_, start_ns_, dur_ns, id_, parent_id_, args_);
  }
}

// -- Export ------------------------------------------------------------------

namespace {

void AppendJsonString(std::string& out, const char* s) {
  out += '"';
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Microseconds with sub-ns resolution intact (Chrome's ts/dur unit).
std::string FormatMicros(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

namespace {

/// Drain() and Snapshot(): copies every ring's spans from the mark on, and
/// moves the mark to the end when `advance` is set.
TraceSnapshot Collect(bool advance) {
  std::unique_lock<std::mutex> lock(internal::GetRegistry().read_mu);
  TraceSnapshot snapshot;
  for (internal::ThreadBuffer* buf : internal::Buffers()) {
    const uint64_t end = buf->next.load(std::memory_order_acquire);
    const uint64_t mark = buf->mark.load(std::memory_order_relaxed);
    const uint64_t capacity = buf->records.size();
    const uint64_t first = std::max(mark, end > capacity ? end - capacity : 0);
    // Newest first: the owner overwrites in index order, so a copy that
    // went oldest first would trail a busy owner and find every slot gone,
    // and the first slot found overwritten means every older one is too.
    uint64_t kept = 0;
    for (uint64_t i = end; i > first; --i) {
      TraceSpan span;
      if (!internal::ReadRecord(buf->records[(i - 1) % capacity], i - 1,
                                &span)) {
        break;
      }
      span.tid = buf->thread_index;
      snapshot.spans.push_back(std::move(span));
      ++kept;
    }
    snapshot.dropped_spans += end - mark - kept;
    if (advance) buf->mark.store(end, std::memory_order_relaxed);
  }
  lock.unlock();
  // Sorted outside both locks. (tid, start, longest-first, open-order) puts
  // every parent before its children, which the self-time sweep depends on.
  std::sort(snapshot.spans.begin(), snapshot.spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.id < b.id;
            });
  return snapshot;
}

}  // namespace

TraceSnapshot Trace::Drain() { return Collect(/*advance=*/true); }

TraceSnapshot Trace::Snapshot() { return Collect(/*advance=*/false); }

std::string TraceSnapshot::ToChromeJson() const {
  std::string out = "{\"traceEvents\": [\n";
  out +=
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"scenerec\"}}";

  uint32_t last_tid = ~0u;
  for (const TraceSpan& span : spans) {
    if (span.tid != last_tid) {
      last_tid = span.tid;
      out += ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": " +
             std::to_string(span.tid) + ", \"args\": {\"name\": \"t" +
             std::to_string(span.tid) + "\"}}";
    }
    out += ",\n  {\"name\": ";
    AppendJsonString(out, span.name.c_str());
    out += ", \"cat\": ";
    AppendJsonString(out, span.cat.empty() ? "span" : span.cat.c_str());
    out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(span.tid);
    out += ", \"ts\": " + FormatMicros(span.start_ns);
    out += ", \"dur\": " + FormatMicros(span.dur_ns);
    out += ", \"args\": {\"id\": " + std::to_string(span.id);
    out += ", \"parent_id\": " + std::to_string(span.parent_id);
    if (!span.args.empty()) {
      out += ", \"detail\": ";
      AppendJsonString(out, span.args.c_str());
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": " +
         std::to_string(dropped_spans) + "}}\n";
  return out;
}

std::string TraceSnapshot::SelfTimeSummary(size_t top_n) const {
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    int64_t self_ns = 0;  // signed: children of floor-dropped parents can
                          // transiently drive a partial window negative
  };
  std::map<std::pair<std::string, std::string>, Agg> by_name;

  // One sweep per thread: spans arrive sorted parent-before-child, so a
  // stack of (end, agg*) attributes each span's duration as child time of
  // its innermost enclosing same-thread span.
  struct Open {
    uint64_t end_ns;
    Agg* agg;
  };
  std::vector<Open> open;
  uint32_t current_tid = ~0u;
  for (const TraceSpan& span : spans) {
    if (span.tid != current_tid) {
      current_tid = span.tid;
      open.clear();
    }
    while (!open.empty() && open.back().end_ns <= span.start_ns) {
      open.pop_back();
    }
    Agg& agg = by_name[{span.name, span.cat}];
    agg.count += 1;
    agg.total_ns += span.dur_ns;
    agg.self_ns += static_cast<int64_t>(span.dur_ns);
    if (!open.empty()) {
      open.back().agg->self_ns -= static_cast<int64_t>(span.dur_ns);
    }
    open.push_back({span.start_ns + span.dur_ns, &agg});
  }

  struct Row {
    const std::string* name;
    const std::string* cat;
    Agg agg;
  };
  std::vector<Row> rows;
  int64_t total_self = 0;
  for (const auto& [key, agg] : by_name) {
    rows.push_back({&key.first, &key.second, agg});
    total_self += std::max<int64_t>(0, agg.self_ns);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.agg.self_ns > b.agg.self_ns;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  size_t name_width = 4;
  for (const Row& row : rows) {
    name_width = std::max(name_width, row.name->size());
  }

  std::string out = "trace self-time (top " + std::to_string(rows.size()) +
                    " spans by exclusive time)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-*s  %-8s %10s %12s %12s %7s\n",
                static_cast<int>(name_width), "span", "cat", "count",
                "total_ms", "self_ms", "self%");
  out += line;
  for (const Row& row : rows) {
    const double self_ms =
        static_cast<double>(row.agg.self_ns) / 1e6;
    const double total_ms = static_cast<double>(row.agg.total_ns) / 1e6;
    const double pct =
        total_self > 0
            ? 100.0 * static_cast<double>(std::max<int64_t>(0, row.agg.self_ns)) /
                  static_cast<double>(total_self)
            : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-*s  %-8s %10llu %12.3f %12.3f %6.1f%%\n",
                  static_cast<int>(name_width), row.name->c_str(),
                  row.cat->empty() ? "span" : row.cat->c_str(),
                  static_cast<unsigned long long>(row.agg.count), total_ms,
                  self_ms, pct);
    out += line;
  }
  if (dropped_spans > 0) {
    out += "  (" + std::to_string(dropped_spans) +
           " spans dropped to ring overflow; totals cover the retained "
           "window)\n";
  }
  return out;
}

void Trace::Start(const TraceOptions& options) {
  internal::g_buffer_capacity.store(options.buffer_capacity,
                                    std::memory_order_relaxed);
  internal::g_op_floor_ns.store(options.op_floor_ns,
                                std::memory_order_relaxed);
  internal::g_kernel_floor_ns.store(options.kernel_floor_ns,
                                    std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void Trace::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void Trace::Reset() {
  std::lock_guard<std::mutex> lock(internal::GetRegistry().read_mu);
  for (internal::ThreadBuffer* buf : internal::Buffers()) {
    buf->mark.store(buf->next.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
}

std::string Trace::ToChromeJson() { return Snapshot().ToChromeJson(); }

Status Trace::WriteChromeTrace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open trace file: " + path);
  out << ToChromeJson();
  out.flush();
  if (!out) return Status::IOError("failed writing trace file: " + path);
  return Status::OK();
}

std::string Trace::SelfTimeSummary(size_t top_n) {
  return Snapshot().SelfTimeSummary(top_n);
}

}  // namespace trace
}  // namespace scenerec
