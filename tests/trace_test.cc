// Tests for the span-tracing layer (common/trace.h): ring-buffer overflow
// semantics, the drain mark, drains racing live writers and parent
// attribution across ThreadPool workers (the TSan-critical paths), duration
// floors, disabled-mode no-ops, and the Chrome trace-event export produced
// by a real multi-threaded training run.

#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "models/factory.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

using trace::Trace;
using trace::TraceSnapshot;
using trace::TraceSpan;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Start();  // default options
    Trace::Reset();
  }
  void TearDown() override {
    Trace::Start();  // restore default options for later-created threads
    Trace::Stop();
    Trace::Reset();
  }
};

std::vector<const TraceSpan*> SpansNamed(const TraceSnapshot& snap,
                                         const std::string& name) {
  std::vector<const TraceSpan*> out;
  for (const TraceSpan& s : snap.spans) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

const TraceSpan* FindById(const TraceSnapshot& snap, uint64_t id) {
  for (const TraceSpan& s : snap.spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

uint64_t DroppedCounter() {
  return telemetry::Telemetry::Snapshot().CounterValue("trace/dropped_spans");
}

TEST_F(TraceTest, DisabledScopesAreNoops) {
  Trace::Stop();
  {
    trace::SpanScope span("trace_test/disabled", "test");
    EXPECT_FALSE(span.armed());
    EXPECT_EQ(span.id(), 0u);
    TRACE_SCOPE("trace_test/disabled_macro");
    TRACE_SCOPE_F("trace_test/disabled_fmt", "i=%d", 7);
  }
  EXPECT_TRUE(Trace::Snapshot().spans.empty());
}

TEST_F(TraceTest, RecordsNestedSpansWithParentIds) {
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    trace::SpanScope outer("trace_test/outer", "test");
    ASSERT_TRUE(outer.armed());
    outer_id = outer.id();
    trace::SpanScope inner("trace_test/inner", "test", trace::Floor::kNone,
                           "k=%d", 42);
    inner_id = inner.id();
    ASSERT_NE(inner_id, 0u);
  }
  const TraceSnapshot snap = Trace::Snapshot();
  const TraceSpan* outer = FindById(snap, outer_id);
  const TraceSpan* inner = FindById(snap, inner_id);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer_id);
  EXPECT_EQ(inner->args, "k=42");
  // The child is fully contained in the parent's interval.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCountsDrops) {
  telemetry::Telemetry::SetEnabled(true);
  telemetry::Telemetry::Reset();
  trace::TraceOptions tiny;
  tiny.buffer_capacity = 8;
  Trace::Start(tiny);
  Trace::Reset();
  // Options apply to buffers created after Start, so record from a fresh
  // thread whose ring is guaranteed to have the tiny capacity. It records
  // 20 spans, waits for the drain below, then records 8 more.
  std::atomic<int> phase{0};
  std::thread recorder([&phase] {
    for (int i = 0; i < 20; ++i) {
      trace::SpanScope span("trace_test/overflow", "test", trace::Floor::kNone,
                            "i=%d", i);
    }
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
    for (int i = 20; i < 28; ++i) {
      trace::SpanScope span("trace_test/overflow", "test", trace::Floor::kNone,
                            "i=%d", i);
    }
  });
  while (phase.load() != 1) std::this_thread::yield();

  const TraceSnapshot snap = Trace::Drain();
  const auto retained = SpansNamed(snap, "trace_test/overflow");
  ASSERT_EQ(retained.size(), 8u);
  // Drop-oldest: the survivors are exactly the 8 most recent spans, in order.
  for (size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i]->args, "i=" + std::to_string(12 + i));
  }
  EXPECT_EQ(snap.dropped_spans, 12u);
  // The drops are also visible as a telemetry counter, so a telemetry dump
  // flags a truncated trace even when nobody looks at the trace itself.
  EXPECT_EQ(DroppedCounter(), 12u);

  // The next 8 spans overwrite only drained ones, so nothing more is lost.
  phase.store(2);
  recorder.join();
  const TraceSnapshot next = Trace::Drain();
  const auto refilled = SpansNamed(next, "trace_test/overflow");
  ASSERT_EQ(refilled.size(), 8u);
  EXPECT_EQ(refilled.front()->args, "i=20");
  EXPECT_EQ(next.dropped_spans, 0u);
  EXPECT_EQ(DroppedCounter(), 12u);
  telemetry::Telemetry::SetEnabled(false);
  telemetry::Telemetry::Reset();
}

// One mark per ring drives all three readers: Snapshot leaves it, Drain
// moves it past what it returned, Reset moves it to the end.
TEST_F(TraceTest, SnapshotKeepsTheMarkDrainAdvancesItResetSkipsToTheEnd) {
  for (int i = 0; i < 3; ++i) {
    TRACE_SCOPE_F("trace_test/mark", "i=%d", i);
  }
  EXPECT_EQ(SpansNamed(Trace::Snapshot(), "trace_test/mark").size(), 3u);
  EXPECT_EQ(SpansNamed(Trace::Snapshot(), "trace_test/mark").size(), 3u);
  EXPECT_EQ(SpansNamed(Trace::Drain(), "trace_test/mark").size(), 3u);
  EXPECT_TRUE(Trace::Drain().spans.empty());
  { TRACE_SCOPE("trace_test/mark"); }
  Trace::Reset();
  EXPECT_TRUE(Trace::Snapshot().spans.empty());
  { TRACE_SCOPE("trace_test/mark"); }
  const TraceSnapshot last = Trace::Drain();
  EXPECT_EQ(SpansNamed(last, "trace_test/mark").size(), 1u);
  EXPECT_EQ(last.dropped_spans, 0u);
}

// The live drain: four writers record into small rings while this thread
// drains in a loop, so drains copy slots their owners may be overwriting.
// The writers' first spans, which register their rings, wait until the
// loop has drained 64 times, and each writer finishes only after a drain
// that began after its last span, so some drain made while the writers
// still run must return a writer span however the threads are scheduled.
// Every drained span is intact (a fresh thread's k-th span has id sequence
// k and args "i=k"), none is returned twice, and the drained spans plus the
// reported drops account for every span recorded.
TEST_F(TraceTest, DrainWhileWritersRecordReturnsEachIntactSpanOnce) {
  trace::TraceOptions small;
  small.buffer_capacity = 256;
  Trace::Start(small);
  Trace::Reset();
  constexpr int kWriters = 4;
  constexpr uint64_t kSpansPerWriter = 20000;
  std::atomic<int> running{kWriters};
  std::atomic<uint64_t> drains{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&running, &drains] {
      while (drains.load() < 64) std::this_thread::yield();
      for (uint64_t k = 1; k <= kSpansPerWriter; ++k) {
        trace::SpanScope span("trace_test/live", "test", trace::Floor::kNone,
                              "i=%llu", static_cast<unsigned long long>(k));
      }
      const uint64_t seen = drains.load();
      while (drains.load() < seen + 2) std::this_thread::yield();
      running.fetch_sub(1);
    });
  }

  constexpr uint64_t kSeqMask = (uint64_t{1} << 40) - 1;
  std::set<uint64_t> ids;
  uint64_t drained = 0;
  uint64_t dropped = 0;
  uint64_t torn = 0;
  uint64_t repeated = 0;
  const auto absorb = [&](const TraceSnapshot& snap) {
    dropped += snap.dropped_spans;
    for (const TraceSpan& s : snap.spans) {
      ++drained;
      if (s.name != "trace_test/live" || s.cat != "test" ||
          s.args != "i=" + std::to_string(s.id & kSeqMask) ||
          (s.id >> 40) != s.tid + 1u) {
        ++torn;
      }
      if (!ids.insert(s.id).second) ++repeated;
    }
  };
  uint64_t live_drains_with_spans = 0;
  while (running.load() > 0) {
    const TraceSnapshot snap = Trace::Drain();
    drains.fetch_add(1);
    if (!snap.spans.empty()) ++live_drains_with_spans;
    absorb(snap);
  }
  for (std::thread& t : writers) t.join();
  absorb(Trace::Drain());

  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(repeated, 0u);
  EXPECT_GT(live_drains_with_spans, 0u);
  EXPECT_EQ(drained + dropped, kWriters * kSpansPerWriter);
}

TEST_F(TraceTest, DurationFloorSuppressesShortSpans) {
  trace::TraceOptions opts;
  opts.op_floor_ns = 1000ull * 1000 * 1000 * 60;  // one minute: nothing passes
  Trace::Start(opts);
  Trace::Reset();
  {
    trace::SpanScope floored("trace_test/floored", "op", trace::Floor::kOp);
    ASSERT_TRUE(floored.armed());
  }
  { trace::SpanScope kept("trace_test/kept", "op", trace::Floor::kNone); }
  const TraceSnapshot snap = Trace::Snapshot();
  EXPECT_TRUE(SpansNamed(snap, "trace_test/floored").empty());
  EXPECT_EQ(SpansNamed(snap, "trace_test/kept").size(), 1u);
}

// The TSan-critical path: worker rings written concurrently with the
// caller's, chunk spans parented under the dispatching caller's span via
// SpanContext propagation, snapshot taken after the join so every chunk
// span is in it.
TEST_F(TraceTest, ParallelForNestsWorkerChunksUnderDispatchSpan) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::atomic<int> distinct{0};
  uint64_t root_id = 0;
  {
    trace::SpanScope root("trace_test/dispatch", "test");
    root_id = root.id();
    pool.ParallelFor(64, /*grain=*/1, [&](int64_t begin, int64_t end) {
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
        distinct.store(static_cast<int>(seen.size()),
                       std::memory_order_relaxed);
      }
      // Rendezvous: hold the first chunk hostage until a second thread has
      // entered the loop, so at least two rings receive chunk spans even on
      // a single-CPU machine.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (distinct.load(std::memory_order_relaxed) < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      TRACE_SCOPE("trace_test/body");
      (void)begin;
      (void)end;
    });
  }
  ASSERT_GE(seen.size(), 2u) << "rendezvous timed out with one thread";

  const TraceSnapshot snap = Trace::Snapshot();
  const auto dispatches = SpansNamed(snap, "pool/parallel_for");
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0]->parent_id, root_id);

  const auto chunks = SpansNamed(snap, "pool/chunk");
  ASSERT_GE(chunks.size(), 2u);
  std::set<uint32_t> chunk_tids;
  std::set<uint64_t> chunk_ids;
  for (const TraceSpan* chunk : chunks) {
    EXPECT_EQ(chunk->parent_id, dispatches[0]->id);
    chunk_tids.insert(chunk->tid);
    chunk_ids.insert(chunk->id);
  }
  EXPECT_GE(chunk_tids.size(), 2u)
      << "chunk spans should land on at least two threads";
  for (const TraceSpan* body : SpansNamed(snap, "trace_test/body")) {
    EXPECT_TRUE(chunk_ids.count(body->parent_id) == 1)
        << "body span not parented under a chunk span";
  }
}

// Every complete event emitted by the exporter must carry the Chrome
// trace-event required keys on one line. `events` gets the count of ph:"X"
// lines so callers can assert the file was non-trivial.
void ValidateChromeTraceLines(const std::string& json, size_t* events) {
  *events = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    ++*events;
    for (const char* key :
         {"\"name\": ", "\"cat\": ", "\"pid\": ", "\"tid\": ", "\"ts\": ",
          "\"dur\": ", "\"args\": "}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "event line missing " << key << ": " << line;
    }
  }
}

TEST_F(TraceTest, ChromeTraceExportFromMultiThreadedTraining) {
  auto prepared = bench::PrepareJdDataset(JdPreset::kElectronics, 0.01, 11);
  ASSERT_TRUE(prepared.ok());
  ModelContext context{&prepared->train_graph, &prepared->scene_graph};
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 8;
  auto model = MakeRecommender("BPR-MF", context, factory_config);
  ASSERT_TRUE(model.ok());
  TrainConfig config;
  config.epochs = 2;
  config.patience = 0;
  config.threads = 4;
  auto result = TrainAndEvaluate(**model, prepared->split,
                                 prepared->train_graph, config);
  ASSERT_TRUE(result.ok());

  const TraceSnapshot snap = Trace::Snapshot();
  // Trainer phases, nested per-op spans, and pool chunks are all present.
  // Early-run spans can legitimately rotate out of the rings, so only spans
  // that finish near the end of the run are asserted on.
  for (const char* name :
       {"trainer/epoch", "trainer/forward", "trainer/backward",
        "trainer/optimizer", "trainer/eval", "autograd/backward",
        "eval/ranking", "pool/parallel_for", "pool/chunk", "arena/reset"}) {
    EXPECT_FALSE(SpansNamed(snap, name).empty()) << "missing span " << name;
  }
  std::set<uint32_t> tids;
  size_t parented_ops = 0;
  for (const TraceSpan& s : snap.spans) {
    tids.insert(s.tid);
    if ((s.cat == "op" || s.cat == "bwd") && s.parent_id != 0) ++parented_ops;
  }
  EXPECT_GE(tids.size(), 2u) << "expected spans from at least two threads";
  EXPECT_GT(parented_ops, 0u) << "per-op spans should nest under a parent";
  // Chunk spans nest under the dispatching ParallelFor.
  std::set<uint64_t> dispatch_ids;
  for (const TraceSpan* d : SpansNamed(snap, "pool/parallel_for")) {
    dispatch_ids.insert(d->id);
  }
  size_t nested_chunks = 0;
  for (const TraceSpan* chunk : SpansNamed(snap, "pool/chunk")) {
    if (dispatch_ids.count(chunk->parent_id) == 1) ++nested_chunks;
  }
  EXPECT_GT(nested_chunks, 0u);

  // Schema round-trip through the file exporter.
  char path_template[] = "/tmp/scenerec_trace_XXXXXX";
  const int fd = ::mkstemp(path_template);
  ASSERT_GE(fd, 0);
  ::close(fd);
  ASSERT_TRUE(Trace::WriteChromeTrace(path_template).ok());
  std::ifstream in(path_template);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path_template);

  ASSERT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u)
      << "export must open a traceEvents array";
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos)
      << "metadata (process/thread name) events missing";
  EXPECT_NE(json.find("\"name\": \"trainer/epoch\""), std::string::npos);
  size_t events = 0;
  ValidateChromeTraceLines(json, &events);
  EXPECT_EQ(events, snap.spans.size());
  // Structurally well-formed: braces and brackets balance (no brace-bearing
  // payloads exist — names are identifiers, args are "k=v" pairs).
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  const std::string summary = Trace::SelfTimeSummary();
  EXPECT_NE(summary.find("self"), std::string::npos);
  EXPECT_NE(summary.find("trainer/"), std::string::npos);
}

}  // namespace
}  // namespace scenerec
