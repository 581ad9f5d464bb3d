#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/database.h"
#include "datagen/generator.h"
#include "planner/planner_stats.h"
#include "sketch/sketch.h"

namespace perfbench {

using stps::DatabaseBuilder;
using stps::ObjectDatabase;

void Report::Slot(const std::string& name, double value, const char* unit,
                  size_t samples) {
  slots[name] = Metric{value, unit, samples};
}

void Report::Named(const std::string& name, double value, const char* unit,
                   size_t samples) {
  named[name] = Metric{value, unit, samples};
}

void Report::Config(const std::string& key, const std::string& value) {
  config.emplace_back(key, value);
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int64_t NowNanos() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Add(Record record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Record& r : records_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"counters\":{",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.name.c_str(),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
    for (size_t i = 0; i < r.counters.size(); ++i) {
      std::fprintf(out, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                   r.counters[i].first.c_str(), r.counters[i].second);
    }
    std::fprintf(out, "}}\n");
  }
  return std::fclose(out) == 0;
}

namespace {
// The innermost open Span of each thread: the parent of the next one.
thread_local Span* current_span = nullptr;
}  // namespace

Span::Span(Tracer& tracer, std::string_view name, uint64_t request)
    : tracer_(tracer), enclosing_(current_span) {
  record_.name = name;
  if (tracer_.enabled()) {
    record_.id = tracer_.NewId();
    if (enclosing_ != nullptr) {
      record_.parent = enclosing_->record_.id;
      if (request == 0) request = enclosing_->record_.request;
    }
    record_.request = request;
  }
  current_span = this;
  record_.start_ns = NowNanos();
}

Span::~Span() { End(); }

void Span::Count(std::string_view name, double value) {
  if (tracer_.enabled()) record_.counters.emplace_back(name, value);
}

double Span::End() {
  if (ended_) return ms_;
  record_.end_ns = NowNanos();
  ended_ = true;
  ms_ = static_cast<double>(record_.end_ns - record_.start_ns) / 1e6;
  current_span = enclosing_;
  if (tracer_.enabled()) tracer_.Add(std::move(record_));
  return ms_;
}

ObjectDatabase GenerateAndBuild(Tracer& tracer, stps::DatasetKind kind,
                                size_t users, uint64_t seed, RawDataset* raw,
                                const std::vector<bool>& keep_user,
                                size_t max_objects) {
  ObjectDatabase generated;
  {
    Span span(tracer, "datagen.generate");
    generated = stps::GenerateDataset(stps::PresetSpec(kind, users, seed));
    span.Count("objects", static_cast<double>(generated.num_objects()));
  }
  {
    // Rows in AddObject order, recovered through insertion_order(), the
    // same walk UpdatableDatabase::SeedFrom does.
    Span span(tracer, "bench.extract");
    const auto seq = generated.insertion_order();
    std::vector<uint32_t> by_seq(generated.num_objects());
    for (uint32_t slot = 0; slot < by_seq.size(); ++slot) {
      by_seq[seq[slot]] = slot;
    }
    const stps::Dictionary& dict = generated.dictionary();
    raw->rows.clear();
    raw->row_user.clear();
    raw->rows.reserve(by_seq.size());
    raw->row_user.reserve(by_seq.size());
    raw->num_users = generated.num_users();
    for (const uint32_t slot : by_seq) {
      const stps::STObject& o = generated.object(slot);
      stps::RawObject row;
      row.user = generated.UserName(o.user);
      row.loc = o.loc;
      row.time = o.time;
      for (const stps::TokenId t : o.doc) {
        row.keywords.emplace_back(dict.TokenString(t));
      }
      raw->rows.push_back(std::move(row));
      raw->row_user.push_back(o.user);
    }
  }
  Span span(tracer, "core.build");
  DatabaseBuilder builder;
  size_t kept = 0;
  for (size_t i = 0; i < raw->rows.size(); ++i) {
    if (!keep_user.empty() && !keep_user[raw->row_user[i]]) continue;
    if (max_objects != 0 && kept++ == max_objects) break;
    const stps::RawObject& row = raw->rows[i];
    builder.AddObject(row.user, row.loc,
                      std::span<const std::string>(row.keywords), row.time);
  }
  ObjectDatabase db = std::move(builder).Build();
  span.Count("objects", static_cast<double>(db.num_objects()));
  span.Count("users", static_cast<double>(db.num_users()));
  return db;
}

void TraceBuildSubsteps(Tracer& tracer, const ObjectDatabase& db) {
  if (!tracer.enabled()) return;
  {
    Span span(tracer, "sketch.build");
    const auto sketches = stps::BuildUserSketches(db);
    span.End();
  }
  Span span(tracer, "planner.stats");
  [[maybe_unused]] const stps::PlannerStats stats =
      stps::ComputePlannerStats(db);
  span.End();
}

uint64_t ResultChecksum(const std::vector<stps::ScoredUserPair>& result) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ result.size();
  for (const stps::ScoredUserPair& p : result) {
    const uint64_t words[2] = {(static_cast<uint64_t>(p.a) << 32) | p.b,
                               std::bit_cast<uint64_t>(p.score)};
    for (const uint64_t w : words) {
      h ^= w + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h *= 0xBF58476D1CE4E5B9ull;
    }
  }
  return h;
}

namespace {
double ThreadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}
}  // namespace

Yardstick::Yardstick() : table_(size_t{1} << 20) {
  for (size_t i = 0; i < table_.size(); ++i) {
    table_[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  thread_ = std::thread([this] {
    // Idle priority: the kernel only runs when a core would otherwise
    // idle, so it takes no core from the workload (it still shares the
    // memory system). Timing it in thread CPU time leaves out the moments
    // it waits for a core.
    const sched_param idle{};
    ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle);
    const size_t mask = table_.size() - 1;
    uint64_t x = 1;
    uint32_t sum = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const double start = ThreadCpuMs();
      for (int i = 0; i < 100000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        sum += table_[(x >> 20) & mask];
      }
      samples_.Add(ThreadCpuMs() - start);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    volatile uint32_t sink = sum;
    (void)sink;
  });
}

Yardstick::~Yardstick() { Stop(); }

void Yardstick::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double Yardstick::Factor() const {
  return samples_.empty() ? 1.0 : kReferenceMs / samples_.Median();
}

void RecordHostConfig(const RunOptions& options, Report* report) {
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  report->Config("host", host);
  report->Config("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->Config("compiler", PERFBENCH_COMPILER);
  report->Config("build_type", PERFBENCH_BUILD_TYPE);
  report->Config("workload", options.workload);
  report->Config("scale", options.smoke ? "smoke" : "full");
  report->Config("seed", std::to_string(options.seed));
  report->Config("seconds", std::to_string(options.seconds));
  report->Config("trace", options.trace ? "1" : "0");
  // WriteBinary streams through std::ofstream and checks flush/close; it
  // never calls fsync, so checkpoint times include no device flush.
  report->Config("flush_policy", "ofstream flush+close, no fsync");
}

}  // namespace perfbench
