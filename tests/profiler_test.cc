#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "profiler/event.h"
#include "profiler/filter.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "profiler/trace_index.h"
#include "scratch_dir.h"

namespace stetho::profiler {
namespace {

TraceEvent MakeEvent(int pc, EventState state, int64_t usec = 0,
                     std::string stmt = "X_1 := sql.mvc();") {
  TraceEvent e;
  e.event = 1;
  e.time_us = 1000;
  e.pc = pc;
  e.thread = 2;
  e.state = state;
  e.usec = usec;
  e.rss_bytes = 4096;
  e.stmt = std::move(stmt);
  return e;
}

// --- trace line format ---

TEST(TraceLineTest, FormatShape) {
  std::string line = FormatTraceLine(MakeEvent(3, EventState::kStart));
  EXPECT_EQ(line.front(), '[');
  EXPECT_EQ(line.back(), ']');
  EXPECT_NE(line.find("\"start\""), std::string::npos);
  EXPECT_NE(line.find("sql.mvc"), std::string::npos);
}

TEST(TraceLineTest, RoundTrip) {
  TraceEvent e = MakeEvent(7, EventState::kDone, 1234,
                           "X_5:bat[:dbl] := algebra.projection(X_3,X_4);");
  auto parsed = ParseTraceLine(FormatTraceLine(e));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), e);
}

TEST(TraceLineTest, RoundTripWithQuotesInStmt) {
  TraceEvent e = MakeEvent(1, EventState::kStart, 0,
                           "X_2 := sql.bind(X_1,\"sys\",\"lineitem\",\"l_tax\",0);");
  auto parsed = ParseTraceLine(FormatTraceLine(e));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().stmt, e.stmt);
}

TEST(TraceLineTest, RejectsMalformed) {
  EXPECT_FALSE(ParseTraceLine("not a trace line").ok());
  EXPECT_FALSE(ParseTraceLine("[ 1, 2, 3 ]").ok());
  EXPECT_FALSE(ParseTraceLine("[ 1,2,3,4,\"weird\",6,7,\"s\" ]").ok());
  EXPECT_FALSE(ParseTraceLine("").ok());
}

TEST(TraceLineTest, ToleratesWhitespace) {
  std::string line = "  " + FormatTraceLine(MakeEvent(1, EventState::kDone)) + "  ";
  EXPECT_TRUE(ParseTraceLine(line).ok());
}

// --- filters ---

TEST(FilterTest, DefaultPassesEverything) {
  EventFilter f;
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kStart)));
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone)));
}

TEST(FilterTest, OnlyState) {
  EventFilter f;
  f.OnlyState(EventState::kDone);
  EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kStart)));
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone)));
}

TEST(FilterTest, MinUsecOnlyGatesDoneEvents) {
  EventFilter f;
  f.MinUsec(100);
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kStart, 0)));
  EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kDone, 50)));
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone, 150)));
}

TEST(FilterTest, PcRange) {
  EventFilter f;
  f.PcRange(2, 4);
  EXPECT_FALSE(f.Matches(MakeEvent(1, EventState::kDone)));
  EXPECT_TRUE(f.Matches(MakeEvent(2, EventState::kDone)));
  EXPECT_TRUE(f.Matches(MakeEvent(4, EventState::kDone)));
  EXPECT_FALSE(f.Matches(MakeEvent(5, EventState::kDone)));
}

TEST(FilterTest, ModuleFilterParsesStatement) {
  EventFilter f;
  f.AddModule("algebra");
  EXPECT_TRUE(f.Matches(MakeEvent(
      0, EventState::kDone, 0, "X_5:bat[:oid] := algebra.select(X_1,X_2,1,1);")));
  EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kDone, 0, "io.print(X_5);")));
  // Statements without assignment still resolve their module.
  f = EventFilter();
  f.AddModule("io");
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone, 0, "io.print(X_5);")));
}

TEST(FilterTest, SerializeDeserializeRoundTrip) {
  EventFilter f;
  f.OnlyState(EventState::kDone).AddModule("algebra").AddModule("aggr");
  f.MinUsec(42).PcRange(1, 9);
  auto back = EventFilter::Deserialize(f.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().Serialize(), f.Serialize());
}

TEST(FilterTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(EventFilter::Deserialize("nonsense").ok());
  EXPECT_FALSE(EventFilter::Deserialize("bogus_key=1;").ok());
}

// --- sinks ---

TEST(RingBufferSinkTest, KeepsMostRecent) {
  RingBufferSink sink(3);
  for (int i = 0; i < 5; ++i) sink.Consume(MakeEvent(i, EventState::kStart));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total_consumed(), 5);
  auto snap = sink.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].pc, 2);
  EXPECT_EQ(snap[2].pc, 4);
}

TEST(RingBufferSinkTest, ConsumeBatchMatchesPerEvent) {
  RingBufferSink batched(4);
  RingBufferSink one_by_one(4);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 7; ++i) events.push_back(MakeEvent(i, EventState::kDone, i));
  batched.ConsumeBatch(events.data(), events.size());
  for (const TraceEvent& e : events) one_by_one.Consume(e);
  EXPECT_EQ(batched.size(), one_by_one.size());
  EXPECT_EQ(batched.total_consumed(), one_by_one.total_consumed());
  EXPECT_EQ(batched.dropped(), one_by_one.dropped());
  auto a = batched.Snapshot();
  auto b = one_by_one.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].pc, b[i].pc);
}

TEST(RingBufferSinkTest, ConsumeBatchLargerThanCapacity) {
  // A batch bigger than the whole ring keeps only the tail; everything
  // else counts as dropped exactly as per-event eviction would.
  RingBufferSink sink(3);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(MakeEvent(i, EventState::kStart));
  }
  sink.ConsumeBatch(events.data(), events.size());
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total_consumed(), 10);
  EXPECT_EQ(sink.dropped(), 7);
  auto snap = sink.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].pc, 7);
  EXPECT_EQ(snap[2].pc, 9);
}

TEST(RingBufferSinkTest, EmptyBatchIsNoOp) {
  RingBufferSink sink(3);
  sink.ConsumeBatch(nullptr, 0);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_consumed(), 0);
}

TEST(RingBufferSinkTest, Clear) {
  RingBufferSink sink(10);
  sink.Consume(MakeEvent(0, EventState::kStart));
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(FileSinkTest, WritesParseableLines) {
  std::string path = testing::TempDir() + "/stetho_trace_test.trace";
  {
    auto sink = FileSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    sink.value()->Consume(MakeEvent(0, EventState::kStart));
    sink.value()->Consume(MakeEvent(0, EventState::kDone, 99));
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(ParseTraceLine(line).ok()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(FileSinkTest, ConsumeBatchWritesIdenticalBytes) {
  std::string batch_path = testing::TempDir() + "/stetho_trace_batch.trace";
  std::string single_path = testing::TempDir() + "/stetho_trace_single.trace";
  std::vector<TraceEvent> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(MakeEvent(i, EventState::kDone, 10 * i));
  }
  {
    auto sink = FileSink::Open(batch_path);
    ASSERT_TRUE(sink.ok());
    sink.value()->ConsumeBatch(events.data(), events.size());
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  {
    auto sink = FileSink::Open(single_path);
    ASSERT_TRUE(sink.ok());
    for (const TraceEvent& e : events) sink.value()->Consume(e);
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  std::ifstream a(batch_path), b(single_path);
  std::string sa((std::istreambuf_iterator<char>(a)),
                 std::istreambuf_iterator<char>());
  std::string sb((std::istreambuf_iterator<char>(b)),
                 std::istreambuf_iterator<char>());
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, sb);
  std::remove(batch_path.c_str());
  std::remove(single_path.c_str());
}

TEST(FileSinkTest, OpenFailsOnBadPath) {
  EXPECT_FALSE(FileSink::Open("/nonexistent_dir_zzz/x.trace").ok());
}

// --- Profiler ---

TEST(ProfilerTest, AssignsSequenceAndTimestamp) {
  VirtualClock clock(5000);
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(16);
  prof.AddSink(ring);
  prof.EmitStart(1, 0, 0, "a");
  clock.Advance(10);
  prof.EmitDone(1, 0, 10, 0, "a");
  auto snap = ring->Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].event, 0);
  EXPECT_EQ(snap[1].event, 1);
  EXPECT_EQ(snap[0].time_us, 5000);
  EXPECT_EQ(snap[1].time_us, 5010);
}

TEST(ProfilerTest, FilterDropsAndCounts) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(16);
  prof.AddSink(ring);
  EventFilter f;
  f.OnlyState(EventState::kDone);
  prof.SetFilter(f);
  prof.EmitStart(1, 0, 0, "a");
  prof.EmitDone(1, 0, 5, 0, "a");
  EXPECT_EQ(ring->size(), 1u);
  EXPECT_EQ(prof.events_emitted(), 1);
  EXPECT_EQ(prof.events_filtered(), 1);
}

TEST(ProfilerTest, DisabledEmitsNothing) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(16);
  prof.AddSink(ring);
  prof.SetEnabled(false);
  prof.EmitStart(1, 0, 0, "a");
  EXPECT_EQ(ring->size(), 0u);
  prof.SetEnabled(true);
  prof.EmitStart(1, 0, 0, "a");
  EXPECT_EQ(ring->size(), 1u);
}

TEST(ProfilerTest, MultipleSinksFanOut) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto a = std::make_shared<RingBufferSink>(4);
  auto b = std::make_shared<RingBufferSink>(4);
  prof.AddSink(a);
  prof.AddSink(b);
  prof.EmitDone(0, 0, 1, 0, "x");
  EXPECT_EQ(a->size(), 1u);
  EXPECT_EQ(b->size(), 1u);
}

TEST(ProfilerTest, ConcurrentEmitUniqueEventIds) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(100000);
  prof.AddSink(ring);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&prof, t] {
      for (int i = 0; i < 500; ++i) prof.EmitStart(i, t, 0, "s");
    });
  }
  for (auto& t : threads) t.join();
  auto snap = ring->Snapshot();
  ASSERT_EQ(snap.size(), 2000u);
  std::vector<int64_t> ids;
  for (const auto& e : snap) ids.push_back(e.event);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int64_t>(i));
  }
}

// Every sink sees events in emission order, as delivered — no sorting here:
// `event` contiguous and strictly increasing, `time_us` never decreasing.
// (The ring's Snapshot promises "oldest first"; the file is what `record`
// writes and mal_lint reads.)
void ExpectEmissionOrder(const std::vector<TraceEvent>& events,
                         const char* sink) {
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].event, static_cast<int64_t>(i))
        << sink << ": position " << i << " holds event " << events[i].event;
    if (i > 0) {
      ASSERT_GE(events[i].time_us, events[i - 1].time_us)
          << sink << ": time regresses at event " << events[i].event;
    }
  }
}

TEST(ProfilerTest, ConcurrentEmitDeliversInEmissionOrder) {
  ScratchDir dir("stetho_emit_order");
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/order.trace";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(kThreads * kPerThread);
  prof.AddSink(ring);
  {
    auto file = FileSink::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    prof.AddSink(std::move(file).value());
  }
  const std::string stmt(200, 'x');  // a realistic statement to copy
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prof, &clock, &stmt, t] {
      for (int i = 0; i < kPerThread; ++i) {
        clock.Advance(1);
        if (i % 2 == 0) {
          prof.EmitStart(i, t, 0, stmt);
        } else {
          prof.EmitDone(i - 1, t, 1, 0, stmt);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  prof.ClearSinks();  // releases (and closes) the file sink

  std::vector<TraceEvent> ring_events = ring->Snapshot();
  ASSERT_EQ(ring_events.size(), static_cast<size_t>(kThreads * kPerThread));
  ExpectEmissionOrder(ring_events, "ring");

  std::vector<TraceEvent> file_events;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    auto event = ParseTraceLine(line);
    ASSERT_TRUE(event.ok()) << line;
    file_events.push_back(std::move(event).value());
  }
  ASSERT_EQ(file_events.size(), static_cast<size_t>(kThreads * kPerThread));
  ExpectEmissionOrder(file_events, "file");
}

// --- trace index ---

TEST(TraceSortTest, RestoresEmissionOrder) {
  std::vector<TraceEvent> events;
  for (int64_t id : {3, 0, 2, 1}) {
    TraceEvent e = MakeEvent(static_cast<int>(id), EventState::kDone);
    e.event = id;
    events.push_back(e);
  }
  TraceIndex index(events);
  ASSERT_EQ(index.size(), events.size());
  for (size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(index.at(i).event, static_cast<int64_t>(i));
  }
}

TEST(TraceIndexTest, RecordsFirstPairAndSurplusPerPc) {
  auto ev = [](int64_t id, int pc, EventState state, int64_t time_us,
               int slot, int64_t usec, std::string stmt) {
    TraceEvent e = MakeEvent(pc, state, usec, std::move(stmt));
    e.event = id;
    e.time_us = time_us;
    e.thread = slot;
    return e;
  };
  std::vector<TraceEvent> events = {
      ev(4, 0, EventState::kDone, 40, 1, 7, "a"),   // recorded late
      ev(0, 0, EventState::kStart, 10, 1, 0, ""),
      ev(1, 1, EventState::kDone, 20, 0, 3, "b"),   // done before start
      ev(2, 1, EventState::kStart, 30, 0, 0, "b"),
      ev(3, 2, EventState::kStart, 35, 2, 0, "c"),
      ev(5, 2, EventState::kDone, 50, 2, 9, "c"),
      ev(6, 2, EventState::kDone, 60, 2, 11, "c"),  // surplus done
      ev(7, -1, EventState::kStart, 5, 0, 0, "neg"),
  };
  TraceIndex index(events);
  EXPECT_EQ(index.first_time_us(), 5);
  EXPECT_EQ(index.last_time_us(), 60);
  ASSERT_EQ(index.pcs().size(), 3u);  // the negative pc is not a record
  EXPECT_EQ(index.Find(-1), nullptr);

  const PcRecord& r0 = *index.Find(0);
  EXPECT_EQ(r0.start.pos, 0);
  EXPECT_EQ(r0.done.pos, 4);
  EXPECT_EQ(r0.done.time_us, 40);
  EXPECT_EQ(r0.done.slot, 1);
  EXPECT_EQ(r0.usec, 7);
  EXPECT_EQ(r0.stmt, "a");  // first non-empty text
  EXPECT_FALSE(r0.done_before_start);

  const PcRecord& r1 = *index.Find(1);
  EXPECT_TRUE(r1.done_before_start);
  EXPECT_EQ(r1.start.pos, 2);
  EXPECT_EQ(r1.done.pos, 1);

  const PcRecord& r2 = *index.Find(2);
  EXPECT_EQ(r2.starts, 1);
  EXPECT_EQ(r2.dones, 2);
  EXPECT_EQ(r2.usec, 9);  // the first done wins
  // pcs 0, 1 and 2 are all open at pc 2's start: pc 1's backwards interval
  // never closes.
  EXPECT_EQ(index.peak_concurrency(), 3);
}

/// The record each batch consumer used to derive on its own: a copy of the
/// trace put into emission order, then the first start/done of every pc.
/// `*peak` receives the most pcs open at once between first start and done.
std::map<int, PcRecord> OracleRecords(const std::vector<TraceEvent>& trace,
                                      int* peak) {
  std::vector<std::pair<int64_t, size_t>> keyed;
  for (size_t i = 0; i < trace.size(); ++i) keyed.emplace_back(trace[i].event, i);
  std::sort(keyed.begin(), keyed.end());
  std::map<int, PcRecord> records;
  int open = 0;
  *peak = 0;
  for (size_t pos = 0; pos < keyed.size(); ++pos) {
    const TraceEvent& e = trace[keyed[pos].second];
    if (e.pc < 0) continue;
    PcRecord& rec = records[e.pc];
    if (rec.stmt.empty()) rec.stmt = e.stmt;
    PairEnd end{static_cast<int64_t>(pos), e.time_us, e.thread};
    if (e.state == EventState::kStart) {
      if (++rec.starts == 1) {
        rec.start = end;
        *peak = std::max(*peak, ++open);
      }
    } else if (++rec.dones == 1) {
      rec.done = end;
      rec.usec = e.usec;
      rec.rss_bytes = e.rss_bytes;
      rec.done_before_start = !rec.start.seen();
      if (rec.start.seen()) --open;
    }
  }
  return records;
}

TEST(TraceIndexTest, MatchesPerPcDerivationOnRecordedTrace) {
  std::ifstream in(std::string(STETHO_EXAMPLES_DIR) + "/c4_q1.trace");
  ASSERT_TRUE(in.good());
  std::vector<TraceEvent> trace;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    auto event = ParseTraceLine(line);
    ASSERT_TRUE(event.ok()) << line;
    trace.push_back(std::move(event).value());
  }
  // The recording carries events out of emission order, so the index has
  // real reordering to undo.
  bool out_of_order = false;
  for (size_t i = 1; i < trace.size(); ++i) {
    out_of_order = out_of_order || trace[i].event < trace[i - 1].event;
  }
  ASSERT_TRUE(out_of_order);

  TraceIndex index(trace);
  for (size_t i = 1; i < index.size(); ++i) {
    EXPECT_LT(index.at(i - 1).event, index.at(i).event);
  }
  int peak = 0;
  const std::map<int, PcRecord> oracle = OracleRecords(trace, &peak);
  ASSERT_EQ(index.pcs().size(), oracle.size());
  for (const auto& [pc, want] : oracle) {
    const PcRecord* got = index.Find(pc);
    ASSERT_NE(got, nullptr) << pc;
    EXPECT_EQ(got->starts, want.starts) << pc;
    EXPECT_EQ(got->dones, want.dones) << pc;
    EXPECT_EQ(got->start.pos, want.start.pos) << pc;
    EXPECT_EQ(got->start.time_us, want.start.time_us) << pc;
    EXPECT_EQ(got->start.slot, want.start.slot) << pc;
    EXPECT_EQ(got->done.pos, want.done.pos) << pc;
    EXPECT_EQ(got->done.time_us, want.done.time_us) << pc;
    EXPECT_EQ(got->done.slot, want.done.slot) << pc;
    EXPECT_EQ(got->usec, want.usec) << pc;
    EXPECT_EQ(got->rss_bytes, want.rss_bytes) << pc;
    EXPECT_EQ(got->stmt, want.stmt) << pc;
    EXPECT_EQ(got->done_before_start, want.done_before_start) << pc;
  }
  EXPECT_EQ(index.peak_concurrency(), peak);
}

}  // namespace
}  // namespace stetho::profiler
