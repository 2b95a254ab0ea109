#ifndef STETHO_OBS_PROFILE_STORE_H_
#define STETHO_OBS_PROFILE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace stetho::obs {

/// --- Cross-run performance baselining ---
///
/// The profile store folds every completed query into per-pc robust
/// duration statistics keyed by the plan's shape hash (the
/// function-name-blind content hash analysis::ProgressModelCache uses),
/// giving the platform a memory of past runs: the live straggler
/// comparator, the server's slow-query log, and the trace-perf-regression
/// lint check all read baselines from here. The store lives in obs (it depends on nothing
/// but common) and speaks plain observations; extracting an observation
/// from a plan or trace is the analysis layer's job (analysis/perfdiff.h).

/// Count-weighted distribution over non-negative integer samples
/// (microsecond durations) kept as a sparse fixed-log-bucket histogram:
/// bucket `round(8 * log2(v))` holds values within ~±4.5% of
/// `2^(i/8)`, so the structure is bounded, exactly mergeable (bucket-wise
/// add is associative and loss-free), and deterministic regardless of fold
/// order — the properties a streaming cross-run merge needs. Quantiles are
/// estimated at bucket centers; the ~9% bucket width is far below the 1.5×
/// ratios anything downstream alerts on.
class RobustStat {
 public:
  void Observe(int64_t value);
  void Merge(const RobustStat& other);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return max_; }

  /// Weighted quantile (q in [0,1]) at bucket centers; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Median absolute deviation from the median, over bucket centers —
  /// the robust spread the `median + k·MAD` comparators use.
  double Mad() const;

  /// "count,sum,min,max[,bucket:count]*" — the journal's stat token.
  std::string Serialize() const;
  /// Strict parse of Serialize() output; false on any malformed token.
  static bool Parse(const std::string& text, RobustStat* out);

  bool operator==(const RobustStat& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           min_ == other.min_ && max_ == other.max_ &&
           buckets_ == other.buckets_;
  }

 private:
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  std::map<int, int64_t> buckets_;  // sparse: log bucket -> observations
};

/// How far one observed duration sits above a baseline distribution.
struct Regression {
  enum Level { kNone, kSlow, kSevere };
  Level level = kNone;
  double median = 0;  ///< baseline median (bucket center)
  double mad = 0;     ///< baseline median absolute deviation
  double ratio = 0;   ///< observed / max(1, median)
};

/// The one duration gate every baseline consumer shares (the
/// trace-perf-regression lint check and the live straggler sweep). A
/// duration regresses when BOTH hold:
///   - ratio: observed >= 1.5x the median (kSlow) or >= 2.0x (kSevere), and
///   - excess: observed - median >= max(4 * MAD, 10us).
/// The AND keeps re-recordings of an unchanged workload quiet: bucket-center
/// quantiles are within ~4.5%, far below 1.5x, and the MAD/floor term
/// absorbs timer jitter on microsecond-scale kernels. An empty baseline
/// judges nothing.
Regression JudgeRegression(int64_t observed_usec, const RobustStat& baseline);

/// One instruction's duration from a single completed query.
struct PcSample {
  int pc = 0;
  int64_t usec = 0;
};

/// Everything one completed query contributes to the store.
struct QueryObservation {
  uint64_t shape_hash = 0;  ///< analysis::PlanShapeHash of the executed plan
  size_t plan_size = 0;
  int64_t total_usec = 0;   ///< end-to-end wall time
  std::vector<PcSample> pcs;
};

/// The folded baseline for one plan shape across every observed run.
struct PlanProfile {
  uint64_t shape_hash = 0;
  size_t plan_size = 0;
  int64_t queries = 0;      ///< observations folded in
  RobustStat total_usec;    ///< end-to-end distribution
  std::vector<RobustStat> pcs;  ///< per-pc duration, indexed by pc

  void Fold(const QueryObservation& observation);
  void Merge(const PlanProfile& other);
};

struct ProfileStoreOptions {
  /// Directory holding the append-only journal (profile.journal). "" keeps
  /// the store in-memory only.
  std::string dir;
  /// Plan shapes kept in memory; least recently touched shapes are evicted
  /// (the journal retains their history for the next load).
  size_t capacity = 256;
};

/// Process-wide persistable profile store. Fold() merges an observation
/// into the in-memory profile for its shape and appends one journal record;
/// loading replays the journal (tolerating corrupt lines) and rewrites it
/// compacted to one aggregate record per shape. Thread-safe; deterministic
/// — no clocks, no randomness, output sorted by shape hash.
///
/// Journal records, one per line:
///   q <hash> <plan_size> <total_usec> [<pc>:<usec>]*
///   p <hash> <plan_size> <queries> <total-stat> [<pc>=<stat>]*
/// Older journals also carried live bytes and concurrency per pc
/// (`<pc>:<usec>:<bytes>:<conc>` and `<pc>=<u>/<b>/<c>`); they still load,
/// and the two extra fields are dropped.
///
/// Metrics: stetho_profile_store_{queries,loads,evictions}_total and
/// stetho_profile_store_corrupt_lines_total.
class ProfileStore {
 public:
  explicit ProfileStore(ProfileStoreOptions options = {});
  ~ProfileStore();

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Merges one completed query into its shape's profile (journal-appended
  /// when a directory is configured). Observations with no shape hash are
  /// rejected; an unknown shape starts a fresh profile.
  Status Fold(const QueryObservation& observation);

  /// Immutable snapshot of the shape's profile, or nullptr when the store
  /// has never seen it. Refreshes the shape's LRU position.
  std::shared_ptr<const PlanProfile> Lookup(uint64_t shape_hash) const;

  /// Merges the records of `path` into memory. Corrupt lines are skipped
  /// and counted, never fatal; only an unreadable file is an error.
  Status LoadFile(const std::string& path);

  /// Writes every in-memory profile as one compacted record per shape,
  /// sorted by shape hash.
  Status SaveFile(const std::string& path) const;

  /// Points the store at `dir`: loads dir/profile.journal when present,
  /// rewrites it compacted, and appends subsequent folds to it.
  Status OpenDir(const std::string& dir);

  size_t size() const;
  int64_t corrupt_lines() const;

  /// Process-wide store: honors STETHO_PROFILE_DIR on first use (a load
  /// failure leaves the store in-memory; the corrupt-line counter tells).
  static ProfileStore* Default();

 private:
  struct Entry {
    PlanProfile profile;
    std::list<uint64_t>::iterator lru;  // this shape's place in lru_
  };

  Status FoldLocked(const QueryObservation& observation);
  /// The shape's profile, created empty when unknown; either way it becomes
  /// the most recently touched. Call EvictLocked() after filling it.
  PlanProfile* TouchLocked(uint64_t shape_hash);
  void EvictLocked();
  Status ParseLine(const std::string& line);
  Status AppendJournalLocked(const QueryObservation& observation);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<uint64_t, Entry> profiles_;
  mutable std::list<uint64_t> lru_;  // most recently touched first
  std::string journal_path_;         // "" = in-memory only
  std::FILE* journal_ = nullptr;
  int64_t corrupt_lines_ = 0;
};

}  // namespace stetho::obs

#endif  // STETHO_OBS_PROFILE_STORE_H_
