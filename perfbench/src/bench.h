// Shared pieces of the end-to-end benchmark: run options, the report
// every workload fills in, sample statistics, the span tracer, and the
// set-up helpers that turn a datagen preset into a database.
//
// Every workload calls the public API of src/ from outside, exactly as an
// application would. Timings always come from the same Span objects: an
// untraced run only keeps their durations (the end-to-end metrics), a
// traced run also records each span — name, start, end, parent span,
// request id and the counters read at that point — in memory and writes
// them out when the run ends (see README.md, "Traced run").

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/similarity.h"
#include "core/update.h"
#include "datagen/presets.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny presets: every correctness check in seconds of run time, for
  /// the benchmark's own tests. Off = the published scale.
  bool smoke = false;
  /// Directory for snapshot files (inside the checkout).
  std::string work_dir = ".";
  /// Where a traced run writes its spans (JSON lines).
  std::string spans_path;
};

/// One reported value.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // timings: how many samples the value summarises
};

/// What a workload produces. `slots` are the four end-to-end metrics of
/// BENCHMARK.json (every workload fills every one, with medians as
/// measured; main() scales them by the Yardstick factor); `named` are the
/// workload's own metrics under their own names (cold_join_ms,
/// probe_p99_ms, ...; see README.md), printed for people.
struct Report {
  std::map<std::string, Metric> slots;
  std::map<std::string, Metric> named;
  /// Host and configuration, recorded with every result.
  std::vector<std::pair<std::string, std::string>> config;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed operation or check (first few are printed).
  std::vector<std::string> failures;

  void Slot(const std::string& name, double value, const char* unit,
            size_t samples);
  void Named(const std::string& name, double value, const char* unit,
             size_t samples);
  void Config(const std::string& key, const std::string& value);
  /// Counts one attempted operation; `ok == false` counts it as failed
  /// and records `what`.
  void Attempt(bool ok, const std::string& what);
};

/// Sample statistics over a set of timings.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Nanoseconds on the steady clock since the process's first call.
int64_t NowNanos();

/// Collects spans in memory (traced runs only) and writes them out once,
/// at the end of the run. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A fresh id, unique among span and request ids (spans of one request
  /// share its request id).
  uint64_t NewId();

  struct Record {
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // 0 = not part of a request
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> counters;
  };
  void Add(Record record);

  /// Writes one JSON object per line. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  uint64_t next_id_ = 1;
};

/// Times one call into a layer. Always measures (untraced runs need the
/// duration); records a span — parented to the thread's enclosing Span —
/// only when the tracer is enabled. Spans nest by scope on one thread.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a counter read at this point (kept only when tracing).
  void Count(std::string_view name, double value);
  /// Ends the span (idempotent) and returns its duration in ms.
  double End();

 private:
  Tracer& tracer_;
  Span* const enclosing_;
  Tracer::Record record_;
  bool ended_ = false;
  double ms_ = 0.0;
};

/// A generated dataset as the rows an application would have fed in:
/// every object in its original insertion order, with the generated
/// database's user id of each row alongside.
struct RawDataset {
  std::vector<stps::RawObject> rows;
  std::vector<stps::UserId> row_user;
  size_t num_users = 0;
};

/// Set-up of every workload: GenerateDataset on the preset (span
/// datagen.generate), extraction of its rows, then a DatabaseBuilder
/// replay of the rows of every user with keep_user[u] (all users when
/// empty) in insertion order (span core.build), stopping after
/// `max_objects` rows when it is not 0. Returns the built database and
/// leaves every generated row in *raw.
stps::ObjectDatabase GenerateAndBuild(Tracer& tracer, stps::DatasetKind kind,
                                      size_t users, uint64_t seed,
                                      RawDataset* raw,
                                      const std::vector<bool>& keep_user = {},
                                      size_t max_objects = 0);

/// Traced runs only: re-runs the two sub-steps of core.build that get
/// their own layer metrics (spans sketch.build and planner.stats) on `db`,
/// outside any timed window.
void TraceBuildSubsteps(Tracer& tracer, const stps::ObjectDatabase& db);

/// Order- and bit-exact fingerprint of a result list.
uint64_t ResultChecksum(const std::vector<stps::ScoredUserPair>& result);

/// How fast the host ran during a run, measured with a fixed kernel the
/// program never touches: 100,000 reads at pseudo-random places in a
/// 4 MB table (~1 ms), run every 20 ms on a background thread at idle
/// scheduling priority and timed in thread CPU time. The host is shared:
/// its memory system slows down by up to 2x for tens of seconds at a time
/// while other tenants run, and every workload here is memory-bound, so a
/// slow spell moves a whole run. The end-to-end slots are multiplied by
/// Factor(), reference / measured: they read as on a host where the
/// kernel takes kReferenceMs.
class Yardstick {
 public:
  static constexpr double kReferenceMs = 1.0;

  /// Starts timing the kernel.
  Yardstick();
  ~Yardstick();
  Yardstick(const Yardstick&) = delete;
  Yardstick& operator=(const Yardstick&) = delete;

  /// Stops the background thread and waits for it (idempotent).
  void Stop();
  /// Median kernel time in ms over the samples taken until Stop().
  double MedianMs() const { return samples_.Median(); }
  size_t samples() const { return samples_.size(); }
  /// kReferenceMs / MedianMs(); 1 when no sample was taken.
  double Factor() const;

 private:
  std::vector<uint32_t> table_;
  Samples samples_;  // written by the thread, read after Stop()
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Records the host and build configuration shared by every workload.
void RecordHostConfig(const RunOptions& options, Report* report);

/// The three workloads (join_sweep.cc, serve_rw.cc, snapshot_restart.cc).
void RunJoinSweep(const RunOptions& options, Tracer& tracer, Report* report);
void RunServeRw(const RunOptions& options, Tracer& tracer, Report* report);
void RunSnapshotRestart(const RunOptions& options, Tracer& tracer,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
