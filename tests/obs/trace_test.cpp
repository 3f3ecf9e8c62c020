// Tracer/Span: durations, nesting depth and containment, the Chrome
// trace-event export (valid JSON, correct fields), and total_seconds — the
// aggregation MapBuildTimings is a view over.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "net/executor.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace itm::obs {
namespace {

void spin_for_at_least(std::chrono::microseconds d) {
  // Spans measure wall time, so the test needs real elapsed time; Stopwatch
  // is the sanctioned wall-clock reader (banned-nondet-sources would flag a
  // bare steady_clock here, and rightly so).
  const Stopwatch watch;
  const auto target = static_cast<std::uint64_t>(d.count());
  while (watch.elapsed_us() < target) {
  }
}

TEST(Span, RecordsNameAndDuration) {
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    Span span("work");
    spin_for_at_least(std::chrono::microseconds(200));
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_GE(events[0].duration_ns, 200'000u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_FALSE(events[0].sim_at.has_value());
}

// Outside any ScopedTracer a span still times itself, but the default
// tracer keeps nothing: a long-running server's batch spans must not
// accumulate.
TEST(Span, WithoutATracerTimesButKeepsNothing) {
  Span span("untraced");
  spin_for_at_least(std::chrono::microseconds(100));
  EXPECT_GT(span.close(), 0.0);
  EXPECT_EQ(tracer().span_count(), 0u);
}

TEST(Span, CloseReturnsSecondsOnceAndIdempotently) {
  Tracer tracer;
  ScopedTracer scope(tracer);
  Span span("once");
  spin_for_at_least(std::chrono::microseconds(100));
  const double first = span.close();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(span.close(), 0.0);  // already closed
  EXPECT_EQ(tracer.span_count(), 1u);
}

TEST(Span, NestsWithDepthAndContainment) {
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    Span outer("outer");
    {
      Span inner("inner");
      spin_for_at_least(std::chrono::microseconds(100));
    }
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // events() sorts by start time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  // The inner span must lie within the outer span's interval.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST(Span, CarriesSimulatedTime) {
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    ITM_SPAN_AT("sweep", SimTime(3600));
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].sim_at.has_value());
  EXPECT_EQ(*events[0].sim_at, SimTime(3600));
}

TEST(Tracer, TotalSecondsAggregatesByName) {
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    for (int i = 0; i < 3; ++i) {
      Span span("repeated");
      spin_for_at_least(std::chrono::microseconds(100));
    }
    Span other("other");
  }
  EXPECT_GE(tracer.total_seconds("repeated"), 300e-6);
  EXPECT_EQ(tracer.total_seconds("absent"), 0.0);
  EXPECT_EQ(tracer.span_count(), 4u);
}

TEST(Tracer, SpansFromOtherThreadsGetDistinctTids) {
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    Span main_span("main");
    std::thread worker([] { Span span("worker"); });
    worker.join();
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

// A minimal JSON well-formedness walker — enough to prove the Chrome trace
// export parses (balanced containers, quoted strings, no trailing commas).
bool json_parses(const std::string& text) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' ||
                               text[i] == '\t' || text[i] == '\r')) {
      ++i;
    }
  };
  // NOLINTNEXTLINE(misc-no-recursion)
  const auto parse_value = [&](const auto& self) -> bool {
    skip_ws();
    if (i >= text.size()) return false;
    const char c = text[i];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == close) {
        ++i;
        return true;
      }
      while (true) {
        if (c == '{') {  // key
          skip_ws();
          if (i >= text.size() || text[i] != '"') return false;
          for (++i; i < text.size() && text[i] != '"'; ++i) {
          }
          if (i++ >= text.size()) return false;
          skip_ws();
          if (i >= text.size() || text[i++] != ':') return false;
        }
        if (!self(self)) return false;
        skip_ws();
        if (i < text.size() && text[i] == ',') {
          ++i;
          continue;
        }
        break;
      }
      skip_ws();
      if (i >= text.size() || text[i] != close) return false;
      ++i;
      return true;
    }
    if (c == '"') {
      for (++i; i < text.size() && text[i] != '"'; ++i) {
      }
      if (i >= text.size()) return false;
      ++i;
      return true;
    }
    // number / true / false / null
    const std::size_t start = i;
    while (i < text.size() && text[i] != ',' && text[i] != '}' &&
           text[i] != ']' && text[i] != ' ' && text[i] != '\n') {
      ++i;
    }
    return i > start;
  };
  if (!parse_value(parse_value)) return false;
  skip_ws();
  return i == text.size();
}

TEST(Tracer, ChromeTraceExportIsValidJsonWithExpectedFields) {
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    Span outer("stage");
    { ITM_SPAN_AT("stage.sweep", SimTime(60)); }
  }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(json_parses(trace)) << trace;
  EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"stage.sweep\""), std::string::npos);
  EXPECT_NE(trace.find("\"sim_time\": 60"), std::string::npos);
  EXPECT_NE(trace.find("\"depth\": 1"), std::string::npos);
}

TEST(Tracer, EmptyTraceIsStillValidJson) {
  Tracer tracer;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_TRUE(json_parses(os.str())) << os.str();
}

// Executor workers open an "executor.shard" span per shard. Every one of
// them — across all worker tids — must lie inside the enclosing stage
// span's interval: parallel_for blocks until the batch drains, so a shard
// escaping the window would mean the trace misattributes work.
TEST(Tracer, ExecutorShardSpansAreContainedInEnclosingStage) {
  MetricsRegistry scratch;
  ScopedMetrics isolate(scratch);  // keep batch-health rollups out of global
  Tracer tracer;
  {
    ScopedTracer scope(tracer);
    Span stage("map.batch");
    net::Executor executor(4);
    executor.parallel_for(64, [](const net::Executor::Shard& shard) {
      spin_for_at_least(std::chrono::microseconds(50));
      (void)shard;
    });
  }
  const auto events = tracer.events();
  const TraceEvent* stage_event = nullptr;
  for (const auto& ev : events) {
    if (ev.name == "map.batch") stage_event = &ev;
  }
  ASSERT_NE(stage_event, nullptr);
  std::size_t shards = 0;
  std::size_t distinct_tids = 0;
  std::map<std::uint64_t, std::size_t> by_tid;
  for (const auto& ev : events) {
    if (ev.name != "executor.shard") continue;
    ++shards;
    ++by_tid[ev.tid];
    EXPECT_GE(ev.start_ns, stage_event->start_ns);
    EXPECT_LE(ev.start_ns + ev.duration_ns,
              stage_event->start_ns + stage_event->duration_ns);
  }
  distinct_tids = by_tid.size();
  EXPECT_EQ(shards, net::Executor::shard_count_for(64));
  EXPECT_GE(distinct_tids, 1u);
  // Shards on the stage's own thread nest one level below it.
  for (const auto& ev : events) {
    if (ev.name == "executor.shard" && ev.tid == stage_event->tid) {
      EXPECT_EQ(ev.depth, stage_event->depth + 1);
    }
  }
}

TEST(ScopedTracer, SpanUsesTracerCurrentAtConstruction) {
  Tracer a;
  Tracer b;
  ScopedTracer scope_a(a);
  Span span("landed_in_a");
  {
    // Installing another tracer after the span opened must not steal it.
    ScopedTracer scope_b(b);
  }
  span.close();
  EXPECT_EQ(a.span_count(), 1u);
  EXPECT_EQ(b.span_count(), 0u);
}

}  // namespace
}  // namespace itm::obs
