#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checks.h"
#include "analysis/perfdiff.h"
#include "mal/parser.h"
#include "obs/profile_store.h"
#include "scope/trace.h"
#include "scratch_dir.h"

namespace stetho::analysis {
namespace {

using obs::PcSample;
using obs::PlanProfile;
using obs::ProfileStore;
using obs::ProfileStoreOptions;
using obs::QueryObservation;
using obs::Regression;
using obs::RobustStat;
using profiler::EventState;
using profiler::TraceEvent;
using profiler::TraceIndex;

std::string ExamplePath(const char* name) {
  return std::string(STETHO_EXAMPLES_DIR) + "/" + name;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A deterministic synthetic observation: `plan_size` pcs with durations
/// spread over three octaves so median/MAD are nontrivial.
QueryObservation MakeObservation(uint64_t shape_hash, size_t plan_size,
                                 int64_t usec_scale) {
  QueryObservation observation;
  observation.shape_hash = shape_hash;
  observation.plan_size = plan_size;
  observation.total_usec = static_cast<int64_t>(plan_size) * usec_scale;
  for (size_t pc = 0; pc < plan_size; ++pc) {
    PcSample sample;
    sample.pc = static_cast<int>(pc);
    sample.usec = usec_scale * static_cast<int64_t>(1 + pc % 7);
    observation.pcs.push_back(sample);
  }
  return observation;
}

// --- RobustStat -----------------------------------------------------------

TEST(RobustStatTest, ObserveTracksCountSumMinMax) {
  RobustStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.Median(), 0.0);
  for (int64_t v : {100, 200, 400, 800, 1600}) stat.Observe(v);
  EXPECT_EQ(stat.count(), 5);
  EXPECT_EQ(stat.sum(), 3100);
  EXPECT_EQ(stat.min(), 100);
  EXPECT_EQ(stat.max(), 1600);
}

TEST(RobustStatTest, MedianIsWithinBucketError) {
  RobustStat stat;
  for (int i = 0; i < 101; ++i) stat.Observe(1000);
  // The log-bucket center is within ~4.5% of the true value.
  EXPECT_NEAR(stat.Median(), 1000.0, 1000.0 * 0.045);
  EXPECT_NEAR(stat.Mad(), 0.0, 1.0);
}

TEST(RobustStatTest, MergeEqualsFoldingEverySample) {
  RobustStat left;
  RobustStat right;
  RobustStat all;
  for (int64_t v = 1; v <= 50; ++v) {
    (v % 2 == 0 ? left : right).Observe(v * 13);
    all.Observe(v * 13);
  }
  RobustStat merged = left;
  merged.Merge(right);
  EXPECT_EQ(merged, all);
  // Merge is commutative: the opposite order lands on the same state.
  RobustStat flipped = right;
  flipped.Merge(left);
  EXPECT_EQ(flipped, all);
}

TEST(RobustStatTest, SerializeParseRoundTrip) {
  RobustStat stat;
  for (int64_t v : {0, 1, 7, 7, 4096, 123456789}) stat.Observe(v);
  RobustStat parsed;
  ASSERT_TRUE(RobustStat::Parse(stat.Serialize(), &parsed));
  EXPECT_EQ(parsed, stat);

  RobustStat garbage;
  EXPECT_FALSE(RobustStat::Parse("", &garbage));
  EXPECT_FALSE(RobustStat::Parse("not,a,stat", &garbage));
  EXPECT_FALSE(RobustStat::Parse("1,2,3", &garbage));
}

// --- JudgeRegression ------------------------------------------------------

RobustStat StatOf(std::initializer_list<int64_t> values) {
  RobustStat stat;
  for (int64_t v : values) stat.Observe(v);
  return stat;
}

TEST(RegressionGateTest, BoundaryTable) {
  // Powers of two sit exactly on a bucket center, so the medians are exact.
  const RobustStat flat = StatOf({1024, 1024, 1024});  // median 1024, MAD 0
  const RobustStat small = StatOf({16, 16, 16});       // median 16, MAD 0
  // median 1024, MAD 512: the excess floor is 4 * 512 = 2048us.
  const RobustStat spread = StatOf({512, 1024, 2048});
  struct Row {
    int64_t observed;
    const RobustStat* baseline;
    Regression::Level want;
  };
  const Row rows[] = {
      {1535, &flat, Regression::kNone},    // just under 1.5x
      {1536, &flat, Regression::kSlow},    // at 1.5x
      {2047, &flat, Regression::kSlow},    // just under 2.0x
      {2048, &flat, Regression::kSevere},  // at 2.0x
      {25, &small, Regression::kNone},     // 1.56x, excess 9us < 10us
      {26, &small, Regression::kSlow},     // 1.63x, excess 10us
      {32, &small, Regression::kSevere},   // 2.0x, excess 16us
      {3071, &spread, Regression::kNone},  // 3.0x, excess just under 4*MAD
      {3072, &spread, Regression::kSevere},
  };
  for (const Row& row : rows) {
    const Regression r = obs::JudgeRegression(row.observed, *row.baseline);
    EXPECT_EQ(r.level, row.want) << row.observed;
    EXPECT_DOUBLE_EQ(r.median, row.baseline->Median()) << row.observed;
    EXPECT_DOUBLE_EQ(r.mad, row.baseline->Mad()) << row.observed;
    EXPECT_DOUBLE_EQ(r.ratio, static_cast<double>(row.observed) / r.median)
        << row.observed;
  }
  EXPECT_DOUBLE_EQ(spread.Mad(), 512.0);
  // An empty baseline judges nothing, however slow the sample.
  EXPECT_EQ(obs::JudgeRegression(1'000'000, RobustStat()).level,
            Regression::kNone);
}

// --- ProfileStore ---------------------------------------------------------

TEST(ProfileStoreTest, FoldThenLookup) {
  ProfileStore store;
  ASSERT_TRUE(store.Fold(MakeObservation(0xabcdef, 8, 100)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0xabcdef, 8, 120)).ok());
  EXPECT_EQ(store.size(), 1u);

  auto profile = store.Lookup(0xabcdef);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 2);
  EXPECT_EQ(profile->plan_size, 8u);
  ASSERT_EQ(profile->pcs.size(), 8u);
  EXPECT_EQ(profile->pcs[0].count(), 2);
  EXPECT_EQ(profile->total_usec.count(), 2);

  EXPECT_EQ(store.Lookup(0x1234), nullptr);
  // Observations without a shape hash are rejected.
  EXPECT_FALSE(store.Fold(MakeObservation(0, 8, 100)).ok());
}

TEST(ProfileStoreTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("perfdiff_roundtrip.profile");
  ProfileStore store;
  ASSERT_TRUE(store.Fold(MakeObservation(0x11, 6, 50)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0x11, 6, 75)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0x22, 3, 10)).ok());
  ASSERT_TRUE(store.SaveFile(path).ok());

  ProfileStore loaded;
  ASSERT_TRUE(loaded.LoadFile(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.corrupt_lines(), 0);

  auto original = store.Lookup(0x11);
  auto restored = loaded.Lookup(0x11);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->queries, original->queries);
  EXPECT_EQ(restored->total_usec, original->total_usec);
  ASSERT_EQ(restored->pcs.size(), original->pcs.size());
  for (size_t pc = 0; pc < restored->pcs.size(); ++pc) {
    EXPECT_EQ(restored->pcs[pc], original->pcs[pc]) << pc;
  }
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, OpenDirJournalsAndCompacts) {
  const std::string dir = TempPath("perfdiff_journal_dir");
  const std::string journal = dir + "/profile.journal";
  std::remove(journal.c_str());
  mkdir(dir.c_str(), 0755);
  {
    ProfileStore store;
    ASSERT_TRUE(store.OpenDir(dir).ok());
    ASSERT_TRUE(store.Fold(MakeObservation(0x33, 4, 40)).ok());
    ASSERT_TRUE(store.Fold(MakeObservation(0x33, 4, 44)).ok());
  }
  // The journal now carries per-query q-records appended after the (empty)
  // compacted state.
  {
    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("q "), std::string::npos);
  }
  // Reopening replays the q-records and rewrites the journal compacted to
  // one p-record per shape.
  {
    ProfileStore store;
    ASSERT_TRUE(store.OpenDir(dir).ok());
    auto profile = store.Lookup(0x33);
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->queries, 2);

    std::ifstream in(journal);
    ASSERT_TRUE(in.good());
    std::string line;
    int p_records = 0;
    int q_records = 0;
    while (std::getline(in, line)) {
      if (line.rfind("p ", 0) == 0) ++p_records;
      if (line.rfind("q ", 0) == 0) ++q_records;
    }
    EXPECT_EQ(p_records, 1);
    EXPECT_EQ(q_records, 0);
  }
  std::remove(journal.c_str());
}

TEST(ProfileStoreTest, CorruptLinesAreCountedNotFatal) {
  const std::string path = TempPath("perfdiff_corrupt.profile");
  {
    ProfileStore store;
    ASSERT_TRUE(store.Fold(MakeObservation(0x44, 2, 30)).ok());
    ASSERT_TRUE(store.SaveFile(path).ok());
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "this is not a record\n";
    out << "q zz nonsense\n";
    out << "p 00 truncated\n";
  }
  ProfileStore store;
  ASSERT_TRUE(store.LoadFile(path).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.corrupt_lines(), 3);
  auto profile = store.Lookup(0x44);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 1);

  ProfileStore missing;
  EXPECT_FALSE(missing.LoadFile(TempPath("does_not_exist.profile")).ok());
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, LoadsOlderRecordsWithBytesAndConcurrency) {
  // Records in the older per-pc format, which also carried live bytes and
  // concurrency: a p record cut from the original examples/c4_q1.profile
  // (pcs 0 and 2) and one q record.
  const ScratchDir scratch("perfdiff_old_format");
  ASSERT_FALSE(scratch.path().empty());
  const std::string path = scratch.path() + "/old.profile";
  {
    std::ofstream out(path);
    out << "p c873398ffe1e436f 194 1 1,19982,19982,19982,114:1 "
           "0=1,1,1,1,0:1/1,0,0,0,0:1/1,1,1,1,0:1 "
           "2=1,280,280,280,65:1/1,8635055,8635055,8635055,184:1/"
           "1,1,1,1,0:1\n";
    out << "q c873398ffe1e436f 194 20000 0:3:0:1 2:290:8635055:2\n";
  }
  ProfileStore store;
  ASSERT_TRUE(store.LoadFile(path).ok());
  EXPECT_EQ(store.corrupt_lines(), 0);
  auto profile = store.Lookup(0xc873398ffe1e436fULL);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, 2);
  EXPECT_EQ(profile->plan_size, 194u);
  EXPECT_EQ(profile->total_usec, StatOf({19982, 20000}));
  ASSERT_EQ(profile->pcs.size(), 3u);
  EXPECT_EQ(profile->pcs[0], StatOf({1, 3}));
  EXPECT_EQ(profile->pcs[1].count(), 0);
  EXPECT_EQ(profile->pcs[2], StatOf({280, 290}));

  // The dropped fields are still checked: a malformed one marks the line
  // corrupt, as it always did.
  {
    std::ofstream out(path);
    out << "q 0000000000000066 1 10 0:3:x:1\n";
    out << "p 0000000000000066 1 1 1,10,10,10,27:1 0=1,3,3,3,13:1/bad/"
           "1,1,1,1,0:1\n";
  }
  ProfileStore malformed;
  ASSERT_TRUE(malformed.LoadFile(path).ok());
  EXPECT_EQ(malformed.corrupt_lines(), 2);
  EXPECT_EQ(malformed.size(), 0u);
}

TEST(ProfileStoreTest, WritesDurationOnlyRecords) {
  const ScratchDir scratch("perfdiff_duration_only");
  ASSERT_FALSE(scratch.path().empty());
  QueryObservation observation;
  observation.shape_hash = 0x55;
  observation.plan_size = 2;
  observation.total_usec = 100;
  observation.pcs = {{0, 7}, {1, 9}};
  {
    ProfileStore store;
    ASSERT_TRUE(store.OpenDir(scratch.path()).ok());
    ASSERT_TRUE(store.Fold(observation).ok());
    ASSERT_TRUE(store.SaveFile(scratch.path() + "/saved.profile").ok());
  }
  EXPECT_EQ(ReadFile(scratch.path() + "/profile.journal"),
            "q 0000000000000055 2 100 0:7 1:9\n");
  EXPECT_EQ(ReadFile(scratch.path() + "/saved.profile"),
            "p 0000000000000055 2 1 1,100,100,100,53:1 0=1,7,7,7,22:1 "
            "1=1,9,9,9,25:1\n");
}

TEST(ProfileStoreTest, CapacityEvictsLeastRecentlyTouched) {
  ProfileStoreOptions options;
  options.capacity = 2;
  ProfileStore store(options);
  ASSERT_TRUE(store.Fold(MakeObservation(0x1, 2, 10)).ok());
  ASSERT_TRUE(store.Fold(MakeObservation(0x2, 2, 10)).ok());
  // Touch shape 1 so shape 2 is the eviction victim.
  ASSERT_NE(store.Lookup(0x1), nullptr);
  ASSERT_TRUE(store.Fold(MakeObservation(0x3, 2, 10)).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.Lookup(0x1), nullptr);
  EXPECT_EQ(store.Lookup(0x2), nullptr);
  EXPECT_NE(store.Lookup(0x3), nullptr);
}

TEST(ProfileStoreTest, ConcurrentFoldAndLookup) {
  ProfileStore store;
  constexpr int kThreads = 4;
  constexpr int kFolds = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (int i = 0; i < kFolds; ++i) {
        const uint64_t shape = 0x100 + static_cast<uint64_t>(i % 8);
        ASSERT_TRUE(store.Fold(MakeObservation(shape, 4, 10 + t)).ok());
        auto profile = store.Lookup(shape);
        ASSERT_NE(profile, nullptr);
        ASSERT_GE(profile->queries, 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(store.size(), 8u);
  auto profile = store.Lookup(0x100);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->queries, kThreads * kFolds / 8);
}

// --- Shape hashing + trace observation on the recorded artifacts ----------

class PerfdiffExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ifstream in(ExamplePath("c4_q1.mal"));
    ASSERT_TRUE(in.good()) << "missing " << ExamplePath("c4_q1.mal");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto program = mal::ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();

    auto events = scope::ReadTraceFile(ExamplePath("c4_q1.trace"));
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    trace_ = std::move(events).value();
    ASSERT_FALSE(trace_.empty());
  }

  mal::Program program_;
  std::vector<TraceEvent> trace_;
};

TEST_F(PerfdiffExampleTest, PlanAndTraceShapeHashesAgree) {
  const uint64_t plan_hash = PlanShapeHash(program_);
  EXPECT_NE(plan_hash, 0u);
  // The recorded trace covers every pc, so hashing its statement texts in
  // pc order reproduces the plan-shape key exactly.
  EXPECT_EQ(TraceShapeHash(TraceIndex(trace_)), plan_hash);
}

TEST_F(PerfdiffExampleTest, ShapeHashIsFunctionNameBlind) {
  std::string renamed = program_.ToString();
  const size_t at = renamed.find("user.main");
  ASSERT_NE(at, std::string::npos);
  renamed.replace(at, 9, "user.renamed");
  auto program = mal::ParseProgram(renamed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(PlanShapeHash(program.value()), PlanShapeHash(program_));
}

TEST_F(PerfdiffExampleTest, ObservationFromTraceCoversEveryPc) {
  QueryObservation observation = ObservationFromTrace(TraceIndex(trace_));
  EXPECT_EQ(observation.shape_hash, PlanShapeHash(program_));
  EXPECT_EQ(observation.plan_size, program_.size());
  EXPECT_EQ(observation.pcs.size(), program_.size());
  EXPECT_GT(observation.total_usec, 0);
  for (const PcSample& sample : observation.pcs) {
    EXPECT_GE(sample.usec, 0);
  }
}

// --- trace-perf-regression ------------------------------------------------

TEST_F(PerfdiffExampleTest, RegressionCheckIsQuietOnItsOwnBaseline) {
  ProfileStore store;
  QueryObservation observation = ObservationFromTrace(TraceIndex(trace_));
  observation.shape_hash = PlanShapeHash(program_);
  ASSERT_TRUE(store.Fold(observation).ok());

  auto check = MakeTracePerfRegressionCheck();
  CheckContext context;
  context.program = &program_;
  context.trace = &trace_;
  context.profile = &store;
  std::vector<Diagnostic> findings;
  check->Run(context, &findings);
  EXPECT_TRUE(findings.empty()) << findings.front().ToString();
}

TEST_F(PerfdiffExampleTest, RegressionCheckFlagsInjectedSlowdown) {
  ProfileStore store;
  QueryObservation observation = ObservationFromTrace(TraceIndex(trace_));
  observation.shape_hash = PlanShapeHash(program_);
  ASSERT_TRUE(store.Fold(observation).ok());

  // Find the slowest instruction and blow up its done event 5x — well past
  // both the 2.0x ratio gate and the 4*MAD jitter floor.
  int slow_pc = -1;
  int64_t slow_usec = 0;
  for (const PcSample& sample : observation.pcs) {
    if (sample.usec > slow_usec) {
      slow_usec = sample.usec;
      slow_pc = sample.pc;
    }
  }
  ASSERT_GE(slow_pc, 0);
  std::vector<TraceEvent> slow_trace = trace_;
  for (TraceEvent& event : slow_trace) {
    if (event.pc == slow_pc && event.state == EventState::kDone) {
      event.usec *= 5;
    }
  }

  auto check = MakeTracePerfRegressionCheck();
  CheckContext context;
  context.program = &program_;
  context.trace = &slow_trace;
  context.profile = &store;
  std::vector<Diagnostic> findings;
  check->Run(context, &findings);
  ASSERT_FALSE(findings.empty());
  bool flagged = false;
  for (const Diagnostic& finding : findings) {
    EXPECT_EQ(finding.check_id, "trace-perf-regression");
    if (finding.pc == slow_pc) {
      flagged = true;
      EXPECT_EQ(finding.severity, Severity::kError) << finding.ToString();
    }
  }
  EXPECT_TRUE(flagged);
}

TEST_F(PerfdiffExampleTest, RegressionCheckNotesMissingBaseline) {
  ProfileStore store;  // empty: shape never observed
  auto check = MakeTracePerfRegressionCheck();
  CheckContext context;
  context.program = &program_;
  context.trace = &trace_;
  context.profile = &store;
  std::vector<Diagnostic> findings;
  check->Run(context, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kNote);
  EXPECT_EQ(findings[0].check_id, "trace-perf-regression");
}

// --- DiffTraces -----------------------------------------------------------

TEST_F(PerfdiffExampleTest, DiffAgainstSelfIsFlat) {
  TraceDiff diff = DiffTraces(TraceIndex(trace_), TraceIndex(trace_), &program_);
  EXPECT_TRUE(diff.shapes_match);
  EXPECT_EQ(diff.a_hash, diff.b_hash);
  EXPECT_EQ(diff.a_makespan_usec, diff.b_makespan_usec);
  EXPECT_GT(diff.a_critical_usec, 0);
  EXPECT_EQ(diff.a_critical_usec, diff.b_critical_usec);
  EXPECT_TRUE(diff.only_a.empty());
  EXPECT_TRUE(diff.only_b.empty());
  for (const PcDelta& delta : diff.deltas) {
    EXPECT_EQ(delta.delta_usec, 0) << delta.pc;
    // ratio is b / max(a, 1), so a zero-duration pc self-diffs to 0.
    if (delta.a_usec > 0) EXPECT_DOUBLE_EQ(delta.ratio, 1.0) << delta.pc;
  }
}

TEST_F(PerfdiffExampleTest, DiffSurfacesInjectedSlowdownFirst) {
  QueryObservation observation = ObservationFromTrace(TraceIndex(trace_));
  int slow_pc = -1;
  int64_t slow_usec = 0;
  for (const PcSample& sample : observation.pcs) {
    if (sample.usec > slow_usec) {
      slow_usec = sample.usec;
      slow_pc = sample.pc;
    }
  }
  std::vector<TraceEvent> slow_trace = trace_;
  for (TraceEvent& event : slow_trace) {
    if (event.pc == slow_pc && event.state == EventState::kDone) {
      event.usec *= 5;
    }
  }

  TraceDiff diff =
      DiffTraces(TraceIndex(trace_), TraceIndex(slow_trace), &program_);
  EXPECT_TRUE(diff.shapes_match);
  ASSERT_FALSE(diff.deltas.empty());
  // Deltas sort by absolute change, so the injected pc leads the report.
  EXPECT_EQ(diff.deltas[0].pc, slow_pc);
  EXPECT_EQ(diff.deltas[0].delta_usec, slow_usec * 4);
  EXPECT_NEAR(diff.deltas[0].ratio, 5.0, 0.01);

  const std::string report = FormatTraceDiff(diff);
  EXPECT_NE(report.find("shape"), std::string::npos);
  EXPECT_NE(report.find("pc " + std::to_string(slow_pc)),
            std::string::npos);
}

TEST(DiffTracesTest, ReportsUnmatchedPcs) {
  auto make_pair = [](int pc, int64_t usec, const std::string& stmt) {
    TraceEvent start;
    start.pc = pc;
    start.state = EventState::kStart;
    start.time_us = pc * 100;
    start.stmt = stmt;
    TraceEvent done = start;
    done.state = EventState::kDone;
    done.time_us = start.time_us + usec;
    done.usec = usec;
    return std::vector<TraceEvent>{start, done};
  };
  std::vector<TraceEvent> a;
  std::vector<TraceEvent> b;
  for (const TraceEvent& e : make_pair(0, 10, "X_1 := a.b();")) {
    a.push_back(e);
    b.push_back(e);
  }
  for (const TraceEvent& e : make_pair(1, 20, "X_2 := c.d(X_1);"))
    a.push_back(e);
  for (const TraceEvent& e : make_pair(2, 30, "X_3 := e.f(X_1);"))
    b.push_back(e);

  TraceDiff diff = DiffTraces(TraceIndex(a), TraceIndex(b), nullptr);
  EXPECT_FALSE(diff.shapes_match);
  EXPECT_EQ(diff.a_critical_usec, -1);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].pc, 0);
  ASSERT_EQ(diff.only_a.size(), 1u);
  EXPECT_EQ(diff.only_a[0], 1);
  ASSERT_EQ(diff.only_b.size(), 1u);
  EXPECT_EQ(diff.only_b[0], 2);
}

/// Done events alone (a done-only profiler filter) still align: per-pc
/// deltas come back biggest mover first, with statement text and the pcs
/// only one side executed.
TEST(DiffTracesTest, FindsRegressions) {
  auto done = [](int pc, int64_t usec, const char* stmt) {
    TraceEvent e;
    e.pc = pc;
    e.state = EventState::kDone;
    e.usec = usec;
    e.stmt = stmt;
    return e;
  };
  std::vector<TraceEvent> a = {
      done(0, 100, "X_0 := sql.mvc();"),
      done(1, 500, "X_1 := algebra.join(X_0,X_0);"),
      done(2, 50, "io.print(X_1);"),
  };
  std::vector<TraceEvent> b = {
      done(0, 110, "X_0 := sql.mvc();"),
      done(1, 2500, "X_1 := algebra.join(X_0,X_0);"),
      done(3, 70, "language.pass(X_1);"),
  };
  TraceDiff diff = DiffTraces(TraceIndex(a), TraceIndex(b), nullptr);
  ASSERT_EQ(diff.deltas.size(), 2u);  // pcs 0 and 1 in both
  EXPECT_EQ(diff.deltas[0].pc, 1);    // biggest mover first
  EXPECT_EQ(diff.deltas[0].delta_usec, 2000);
  EXPECT_EQ(diff.deltas[0].stmt, "X_1 := algebra.join(X_0,X_0);");
  EXPECT_EQ(diff.deltas[1].delta_usec, 10);
  EXPECT_EQ(diff.only_a, (std::vector<int>{2}));
  EXPECT_EQ(diff.only_b, (std::vector<int>{3}));
  const std::string report = FormatTraceDiff(diff);
  EXPECT_NE(report.find("+2000us"), std::string::npos) << report;
  EXPECT_NE(report.find("algebra.join"), std::string::npos) << report;
}

}  // namespace
}  // namespace stetho::analysis
