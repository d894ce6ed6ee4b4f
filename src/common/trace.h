#ifndef SCENEREC_COMMON_TRACE_H_
#define SCENEREC_COMMON_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace scenerec {
namespace trace {

// Span-based structured tracing: where did the time go within one epoch, on
// which thread, nested under what (docs/observability.md, "Tracing").
//
// Design in one paragraph: a span is an RAII scope (TRACE_SCOPE) carrying a
// static name, a category, and printf-formatted args. Finished spans are
// recorded into a per-thread fixed-capacity ring buffer — the hot path is
// lock-free: atomic stores that are plain moves on x86, into memory only the
// owning thread writes, no read-modify-write, no shared cache lines. On
// overflow the ring overwrites its oldest record (drop-oldest) and bumps the
// `trace/dropped_spans` telemetry counter, so a long run degrades to "most
// recent window" instead of stalling or allocating. Every slot carries a
// sequence word the owner flips odd while it writes, so a reader may copy
// the rings at any time: Drain / Snapshot keep a span only when its slot
// held that one span from before the copy to after it, and never return a
// torn one. Parent/child structure comes from a per-thread span stack;
// ThreadPool::ParallelFor propagates the dispatching caller's span id into
// worker chunks (SpanContext/ContextGuard) so a timeline nests cross-thread
// work under the loop that issued it.
//
// When tracing is disabled (the default), every TRACE_SCOPE reduces to one
// relaxed load of a global bool plus a predictable branch — measured in
// bench_parallel's BM_TrainEpochTrace (see BENCH_trace.json).

/// Global enable flag. Relaxed: flipping it is advisory, not a fence —
/// spans racing with SetEnabled may or may not be recorded.
inline std::atomic<bool> g_enabled{false};

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// Which configurable duration floor gates a span's recording. Floors keep
/// high-frequency, sub-microsecond scopes (tiny GEMVs) from flooding the
/// ring while cheap enough to evaluate once per span at destruction.
enum class Floor : uint8_t {
  kNone = 0,    // always record
  kOp = 1,      // autograd per-op spans (TraceOptions::op_floor_ns)
  kKernel = 2,  // GEMM/GEMV kernel spans (TraceOptions::kernel_floor_ns)
};

struct TraceOptions {
  /// Spans retained per thread; the ring drops oldest past this.
  size_t buffer_capacity = 1 << 16;
  /// Record autograd op spans only when duration >= this (ns). 0 keeps
  /// everything so a trace doubles as a per-op flamegraph.
  uint64_t op_floor_ns = 0;
  /// Record kernel (GEMM/GEMV) spans only when duration >= this (ns).
  uint64_t kernel_floor_ns = 2000;
};

namespace internal {

inline constexpr size_t kMaxArgsChars = 48;
inline constexpr int kMaxSpanDepth = 64;

/// Open-span stack for parent attribution, plus the cross-thread parent
/// installed by ContextGuard (used when the stack is empty).
struct SpanStack {
  uint64_t ids[kMaxSpanDepth];
  int depth = 0;
  uint64_t inherited_parent = 0;
};

extern thread_local constinit SpanStack t_stack;

/// Nanoseconds since the process-wide trace epoch (steady clock).
uint64_t NowNs();

/// Resolves a floor kind against the active TraceOptions.
uint64_t FloorNs(Floor floor);

}  // namespace internal

/// A span id to parent cross-thread work under (see ContextGuard).
struct SpanContext {
  uint64_t span_id = 0;  // 0 = no context
};

/// The innermost open span on this thread (or the inherited cross-thread
/// parent if none). Capture before dispatching work to other threads.
SpanContext CurrentContext();

/// Installs `ctx` as the parent for spans opened on this thread while no
/// local span is on the stack. Used by ThreadPool workers so chunk spans
/// nest under the dispatching caller's span. No-op for a null context.
class ContextGuard {
 public:
  explicit ContextGuard(SpanContext ctx) {
    if (ctx.span_id == 0) {
      active_ = false;
      return;
    }
    active_ = true;
    prev_ = internal::t_stack.inherited_parent;
    internal::t_stack.inherited_parent = ctx.span_id;
  }
  ~ContextGuard() {
    if (active_) internal::t_stack.inherited_parent = prev_;
  }

  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  uint64_t prev_ = 0;
  bool active_;
};

/// RAII span. Construction checks the enable flag (one relaxed load +
/// branch when disabled); destruction records the span unless its duration
/// is under the resolved floor. `name` and `cat` must be static strings.
class SpanScope {
 public:
  explicit SpanScope(const char* name, const char* cat = "",
                     Floor floor = Floor::kNone) {
    if (!Enabled()) {
      armed_ = false;
      return;
    }
    Arm(name, cat, floor);
  }

  /// Variant with printf-style args recorded into the span (truncated to
  /// internal::kMaxArgsChars - 1 chars). Formatting only runs when armed.
  SpanScope(const char* name, const char* cat, Floor floor, const char* fmt,
            ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 5, 6)))
#endif
      ;

  ~SpanScope() {
    if (armed_) Finish();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool armed() const { return armed_; }
  /// This span's id (0 when unarmed). Feed into SpanContext to parent
  /// work dispatched to other threads.
  uint64_t id() const { return armed_ ? id_ : 0; }

 private:
  void Arm(const char* name, const char* cat, Floor floor);
  void Finish();

  const char* name_;
  const char* cat_;
  uint64_t start_ns_;
  uint64_t id_;
  uint64_t parent_id_;
  uint64_t floor_ns_;
  bool armed_;
  char args_[internal::kMaxArgsChars];
};

// -- Export ------------------------------------------------------------------

/// One exported span (a storage-owning copy of a ring slot).
struct TraceSpan {
  std::string name;
  std::string cat;
  std::string args;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t id = 0;
  uint64_t parent_id = 0;
};

/// Copy of the spans every thread recorded since the drain mark (see
/// Trace::Drain).
struct TraceSnapshot {
  std::vector<TraceSpan> spans;  // sorted by (tid, start_ns)
  /// Spans recorded since the mark that `spans` lacks: the rings overwrote
  /// them before this copy could return them.
  uint64_t dropped_spans = 0;

  /// Chrome trace-event JSON: {"traceEvents": [...]} with ph:"X" complete
  /// events (name/cat/ph/pid/tid/ts/dur/args; ts and dur in microseconds)
  /// plus process/thread-name metadata events. Loads in chrome://tracing
  /// and Perfetto.
  std::string ToChromeJson() const;

  /// Top `top_n` span names by exclusive (self) time: total minus the time
  /// spent in same-thread child spans. Rendered as an aligned text table.
  std::string SelfTimeSummary(size_t top_n = 20) const;
};

/// Static facade over the process-wide trace registry.
class Trace {
 public:
  /// Enables recording with `options`. Options apply to buffers created
  /// after the call; already-created thread buffers keep their capacity.
  static void Start(const TraceOptions& options = {});

  /// Stops recording; retained spans stay available for export.
  static void Stop() { SetEnabled(false); }

  /// Start()/Stop() with the current options.
  static void SetEnabled(bool enabled);
  static bool Enabled() { return trace::Enabled(); }

  // The three calls below share one mark per thread ring and are safe while
  // instrumented code runs. A span that is overwritten while it is copied
  // is skipped and counted in dropped_spans, never returned torn.

  /// Returns the spans recorded since the mark and moves the mark past
  /// them, so consecutive drains return each span at most once.
  static TraceSnapshot Drain();

  /// Returns the same spans as Drain() and leaves the mark where it is.
  static TraceSnapshot Snapshot();

  /// Moves the mark to the end: later calls see only newer spans.
  static void Reset();

  /// Snapshot().ToChromeJson() convenience.
  static std::string ToChromeJson();

  /// Writes ToChromeJson() to `path` (truncating). IOError on failure.
  static Status WriteChromeTrace(const std::string& path);

  /// Snapshot().SelfTimeSummary(top_n) convenience.
  static std::string SelfTimeSummary(size_t top_n = 20);
};

}  // namespace trace
}  // namespace scenerec

#define SCENEREC_TRACE_CONCAT_IMPL_(a, b) a##b
#define SCENEREC_TRACE_CONCAT_(a, b) SCENEREC_TRACE_CONCAT_IMPL_(a, b)

/// Unnamed span scope covering the rest of the enclosing block:
///   TRACE_SCOPE("trainer/forward");
#define TRACE_SCOPE(name)                                            \
  ::scenerec::trace::SpanScope SCENEREC_TRACE_CONCAT_(trace_scope_, \
                                                      __LINE__)(name)

/// Span with printf-style args: TRACE_SCOPE_F("epoch", "epoch=%d", e);
#define TRACE_SCOPE_F(name, ...)                                     \
  ::scenerec::trace::SpanScope SCENEREC_TRACE_CONCAT_(trace_scope_, \
                                                      __LINE__)(     \
      name, "", ::scenerec::trace::Floor::kNone, __VA_ARGS__)

/// Category + floor control for instrumentation sites.
#define SCENEREC_TRACE_SPAN(name, cat, floor)                        \
  ::scenerec::trace::SpanScope SCENEREC_TRACE_CONCAT_(trace_scope_, \
                                                      __LINE__)(name, cat, floor)

#define SCENEREC_TRACE_SPAN_F(name, cat, floor, ...)                 \
  ::scenerec::trace::SpanScope SCENEREC_TRACE_CONCAT_(trace_scope_, \
                                                      __LINE__)(     \
      name, cat, floor, __VA_ARGS__)

#endif  // SCENEREC_COMMON_TRACE_H_
