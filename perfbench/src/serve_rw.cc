// serve_rw: an online LBSN service with writes beside reads. An
// in-process QueryServer (default ServerOptions: 4 workers) serves an
// UpdatableDatabase seeded with 90% of the users of CheckinSparse at
// 10,000 users. Four loopback connections come from this process:
//
//   * three closed-loop readers: ~97% PROBE <user> .001 .4 .4 for seeded
//     random users, ~3% TOPK .001 .4 10;
//   * one open-loop writer at 250 INSERT/s, inserting the held-out 10% of
//     users' objects in generator order, with a DELETE every 50 inserts
//     and a PUBLISH every 25. INSERT lateness is measured from the
//     schedule (bench.writer_lag_p99_ms: the run is valid while it stays
//     small).
//
// There is no JOIN here: whole-database joins are join_sweep's job, and a
// cold kAuto JOIN would take tens of seconds on this preset. The writer
// deletes only users from a reserved set the readers never probe, so
// "ERR unknown user" can only mean a real fault. The default ServerOptions
// hold one worker per connection, so the four connections use all four;
// STATS and the final checks go over the writer's connection.
//
// Set-up (generate + build + seed + server start) runs 3 times. Untimed
// checks: after the window the writer publishes once more, STATS
// live_objects must equal the writer's own count, and socket PROBE
// replies for a seeded sample of users must equal in-process
// FindSimilarUsers on the served snapshot, row for row.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "client.h"
#include "core/stpsjoin.h"
#include "server/server.h"

namespace perfbench {
namespace {

using stps::ObjectDatabase;
using stps::QueryServer;
using stps::UpdatableDatabase;

constexpr double kEpsLoc = 0.001;
constexpr double kEpsDoc = 0.4;  // also eps_u
constexpr double kInsertsPerSecond = 250.0;
constexpr size_t kDeleteEvery = 50;
constexpr size_t kPublishEvery = 25;
constexpr int kReaders = 3;
constexpr int kTopKPerMille = 30;

std::string ProbeLine(const std::string& user) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %g %g %g", kEpsLoc, kEpsDoc, kEpsDoc);
  return "PROBE " + user + buf;
}

std::string TopKLine() {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "TOPK %g %g 10", kEpsLoc, kEpsDoc);
  return buf;
}

std::string InsertLine(const stps::RawObject& row) {
  std::string kw;
  for (const std::string& t : row.keywords) {
    if (!kw.empty()) kw.push_back(',');
    kw += t;
  }
  if (kw.empty()) kw = "-";
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %.17g %.17g ", row.loc.x, row.loc.y);
  char time[40];
  std::snprintf(time, sizeof(time), " %.17g", row.time);
  return "INSERT " + row.user + buf + kw + time;
}

// The rows the server would send for a PROBE, computed in-process.
std::vector<std::string> ExpectedProbeRows(const ObjectDatabase& db,
                                           const std::string& user) {
  std::vector<std::string> rows;
  stps::UserId id = 0;
  if (!db.FindUser(user, &id)) return rows;
  stps::STPSQuery query;
  query.eps_loc = kEpsLoc;
  query.eps_doc = kEpsDoc;
  query.eps_u = kEpsDoc;
  for (const stps::ScoredUserPair& p : stps::FindSimilarUsers(db, id, query)) {
    char score[32];
    std::snprintf(score, sizeof(score), " %.6f", p.score);
    rows.push_back(std::string(db.UserName(p.a)) + " " +
                   std::string(db.UserName(p.b)) + score);
  }
  return rows;
}

// "OK key=value ..." -> map.
std::map<std::string, double> ParseStats(const std::string& head) {
  std::map<std::string, double> out;
  std::istringstream in(head);
  std::string field;
  while (in >> field) {
    const size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    out[field.substr(0, eq)] = std::strtod(field.c_str() + eq + 1, nullptr);
  }
  return out;
}

// STATS at the start (phase 0) or end (phase 1) of the timed window; the
// span carries every counter so the traced run can take differences.
std::map<std::string, double> WindowStats(Tracer& tracer, LineClient* client,
                                          int phase) {
  Span span(tracer, "server.STATS", tracer.NewId());
  Reply reply;
  if (!client->Request("STATS", false, &reply)) return {};
  std::map<std::string, double> stats = ParseStats(reply.head);
  span.Count("phase", phase);
  for (const auto& [key, value] : stats) span.Count(key, value);
  return stats;
}

// Per-thread tallies, merged into the Report after the threads join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  void Attempt(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }
  void MergeInto(Report* report) const {
    report->attempted += attempted;
    report->failed += failed;
    report->failures.insert(report->failures.end(), failures.begin(),
                            failures.end());
  }
};

struct ReaderResult {
  Samples probe_ms;
  Samples topk_ms;
  Tally tally;
};

void ReaderLoop(Tracer& tracer, int port, const UpdatableDatabase& db,
                const std::vector<std::string>& probe_users, uint64_t seed,
                int64_t deadline, ReaderResult* out) {
  LineClient client;
  if (!client.Connect(port)) {
    out->tally.Attempt(false, "reader cannot connect");
    return;
  }
  std::mt19937_64 rng(seed);
  const std::string topk = TopKLine();
  Reply reply;
  for (uint64_t n = 0; NowNanos() < deadline; ++n) {
    if (tracer.enabled() && n % 16 == 0) {
      Span ping(tracer, "server.PING", tracer.NewId());
      const bool sent = client.Request("PING", false, &reply);
      ping.End();
      out->tally.Attempt(sent && reply.head == "OK pong", "PING failed");
    }
    const bool is_topk = static_cast<int>(rng() % 1000) < kTopKPerMille;
    const std::string& user = probe_users[rng() % probe_users.size()];
    const uint64_t request = tracer.NewId();
    Span span(tracer, is_topk ? "server.TOPK" : "server.PROBE", request);
    const bool sent =
        client.Request(is_topk ? topk : ProbeLine(user), true, &reply);
    const double ms = span.End();
    uint64_t rows = 0;
    uint64_t epoch = 0;
    const bool ok = sent && ParseRowHead(reply.head, &rows, &epoch) &&
                    (!is_topk || rows == 10);
    out->tally.Attempt(ok, (is_topk ? "TOPK: " : "PROBE " + user + ": ") +
                               reply.head);
    (is_topk ? out->topk_ms : out->probe_ms).Add(ms);
    // Traced runs: the same probe in-process on the served snapshot, so
    // server.overhead_ms = round trip - core.probe for this request.
    if (tracer.enabled() && !is_topk && n % 8 == 0) {
      const auto snapshot = db.snapshot();
      stps::UserId id = 0;
      if (snapshot->db.FindUser(user, &id)) {
        Span core(tracer, "core.probe", request);
        stps::STPSQuery query;
        query.eps_loc = kEpsLoc;
        query.eps_doc = kEpsDoc;
        query.eps_u = kEpsDoc;
        stps::FindSimilarUsers(snapshot->db, id, query);
      }
    }
  }
}

struct WriterResult {
  Samples lag_ms;
  Samples publish_ms;       // round trip
  Samples publish_self_ms;  // the ms field of the reply
  uint64_t delta_publishes = 0;
  uint64_t inserted = 0;
  uint64_t deleted_objects = 0;
  std::map<std::string, double> stats_before;
  std::map<std::string, double> stats_after;
  Tally tally;
};

// The server side of the four connections plus the database it serves.
struct Service {
  std::unique_ptr<UpdatableDatabase> db;
  std::unique_ptr<QueryServer> server;
};

}  // namespace

void RunServeRw(const RunOptions& options, Tracer& tracer, Report* report) {
  const size_t users = options.smoke ? 300 : 10000;
  const int setups = 3;
  const stps::DatasetKind kind = stps::DatasetKind::kCheckinSparse;
  const stps::ServerOptions server_options;
  report->Config("preset", stps::DatasetKindName(kind));
  report->Config("users", std::to_string(users));
  report->Config("server_workers", std::to_string(server_options.num_workers));
  report->Config("thread_budget", "1");
  report->Config("readers", std::to_string(kReaders));
  report->Config("insert_rate_per_s", std::to_string(kInsertsPerSecond));

  // User roles, by a seeded shuffle of the generated user ids: 10% held
  // out for the writer, 5% of the seeded users reserved for DELETE, the
  // rest probed by the readers.
  std::vector<uint32_t> order(users);
  for (uint32_t u = 0; u < users; ++u) order[u] = u;
  std::shuffle(order.begin(), order.end(),
               std::mt19937_64(options.seed * 0x9E3779B97F4A7C15ull + 11));
  const size_t held_count = users / 10;
  const size_t reserved_count = users / 20;
  std::vector<bool> seeded(users, true);
  for (size_t i = 0; i < held_count; ++i) seeded[order[i]] = false;

  Samples setup_ms;
  Service service;
  RawDataset raw;
  size_t seeded_objects = 0;
  for (int rep = 0; rep < setups; ++rep) {
    if (service.server) service.server->Shutdown();
    service = Service{};
    Span setup(tracer, "bench.setup");
    ObjectDatabase base =
        GenerateAndBuild(tracer, kind, users, options.seed, &raw, seeded);
    seeded_objects = base.num_objects();
    service.db = std::make_unique<UpdatableDatabase>();
    {
      Span seed_span(tracer, "update.seed");
      service.db->SeedFrom(base);
    }
    {
      Span start(tracer, "server.start");
      service.server =
          std::make_unique<QueryServer>(service.db.get(), server_options);
      report->Attempt(service.server->Start().ok(), "server did not start");
    }
    setup_ms.Add(setup.End());
    if (rep + 1 == setups) TraceBuildSubsteps(tracer, base);
  }
  report->Config("objects", std::to_string(raw.rows.size()));
  const int port = service.server->port();

  std::vector<std::string> probe_users;
  std::vector<std::string> reserved_users;
  std::map<std::string, size_t> objects_of;
  for (size_t i = 0; i < raw.rows.size(); ++i) ++objects_of[raw.rows[i].user];
  std::vector<std::string> name_of(users);
  for (size_t i = 0; i < raw.rows.size(); ++i) {
    name_of[raw.row_user[i]] = raw.rows[i].user;
  }
  for (size_t i = held_count; i < users; ++i) {
    (i < held_count + reserved_count ? reserved_users : probe_users)
        .push_back(name_of[order[i]]);
  }
  std::vector<const stps::RawObject*> held_rows;
  for (size_t i = 0; i < raw.rows.size(); ++i) {
    if (!seeded[raw.row_user[i]]) held_rows.push_back(&raw.rows[i]);
  }

  // --- timed window ---------------------------------------------------------
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<ReaderResult> readers(kReaders);
  WriterResult writer;
  LineClient control;  // the writer's connection, reused for the checks
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, std::ref(tracer), port,
                         std::cref(*service.db), std::cref(probe_users),
                         options.seed * 1000003 + static_cast<uint64_t>(r),
                         deadline, &readers[r]);
  }
  threads.emplace_back([&] {
    if (!control.Connect(port)) {
      writer.tally.Attempt(false, "writer cannot connect");
      return;
    }
    Reply reply;
    writer.stats_before = WindowStats(tracer, &control, 0);
    const double period_ns = 1e9 / kInsertsPerSecond;
    const int64_t t0 = NowNanos();
    size_t next_delete = 0;
    for (size_t i = 0; i < held_rows.size(); ++i) {
      const int64_t due = t0 + static_cast<int64_t>(period_ns * i);
      if (due >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNanos()));
      const double lag_ms = static_cast<double>(NowNanos() - due) / 1e6;
      writer.lag_ms.Add(lag_ms);
      {
        Span span(tracer, "server.INSERT", tracer.NewId());
        span.Count("lag_ms", lag_ms);
        const bool ok = control.Request(InsertLine(*held_rows[i]), false,
                                        &reply) && reply.ok();
        writer.tally.Attempt(ok, "INSERT: " + reply.head);
        writer.inserted += ok;
      }
      if ((i + 1) % kDeleteEvery == 0 && next_delete < reserved_users.size()) {
        const std::string& victim = reserved_users[next_delete++];
        Span span(tracer, "server.DELETE", tracer.NewId());
        const bool ok =
            control.Request("DELETE " + victim, false, &reply) && reply.ok();
        writer.tally.Attempt(ok, "DELETE " + victim + ": " + reply.head);
        if (ok) writer.deleted_objects += objects_of[victim];
      }
      if ((i + 1) % kPublishEvery == 0) {
        Span span(tracer, "server.PUBLISH", tracer.NewId());
        const bool sent = control.Request("PUBLISH", false, &reply);
        unsigned long long epoch = 0;
        char path[16] = {0};
        double self_ms = 0.0;
        const bool ok = sent && std::sscanf(reply.head.c_str(),
                                            "OK %llu %15s %lf", &epoch, path,
                                            &self_ms) == 3;
        span.Count("delta", std::string(path) == "delta");
        span.Count("publish_ms", self_ms);
        const double ms = span.End();
        writer.tally.Attempt(ok, "PUBLISH: " + reply.head);
        if (!ok) continue;
        writer.publish_ms.Add(ms);
        writer.publish_self_ms.Add(self_ms);
        writer.delta_publishes += std::string(path) == "delta";
      }
    }
    writer.stats_after = WindowStats(tracer, &control, 1);
  });
  for (std::thread& t : threads) t.join();
  const double window_s = static_cast<double>(NowNanos() - start) / 1e9;

  // --- untimed checks --------------------------------------------------------
  Samples probe_ms;
  Samples topk_ms;
  for (const ReaderResult& r : readers) {
    probe_ms.Append(r.probe_ms);
    topk_ms.Append(r.topk_ms);
    r.tally.MergeInto(report);
  }
  writer.tally.MergeInto(report);
  Reply reply;
  report->Attempt(control.Request("PUBLISH", false, &reply) && reply.ok(),
                  "final PUBLISH: " + reply.head);
  report->Attempt(control.Request("STATS", false, &reply) && reply.ok(),
                  "final STATS: " + reply.head);
  const auto final_stats = ParseStats(reply.head);
  const double expected_live = static_cast<double>(
      seeded_objects + writer.inserted - writer.deleted_objects);
  report->Attempt(final_stats.count("live_objects") &&
                      final_stats.at("live_objects") == expected_live,
                  "live_objects " + reply.head + " != writer count " +
                      std::to_string(expected_live));
  {
    const auto snapshot = service.db->snapshot();
    std::mt19937_64 rng(options.seed + 77);
    std::vector<std::string> sample;
    for (int i = 0; i < 40; ++i) {
      sample.push_back(probe_users[rng() % probe_users.size()]);
    }
    for (size_t i = 0; i < 10 && i < held_rows.size() && writer.inserted > 0;
         ++i) {
      sample.push_back(held_rows[rng() % writer.inserted]->user);
    }
    for (const std::string& user : sample) {
      const bool sent = control.Request(ProbeLine(user), true, &reply);
      report->Attempt(sent && reply.ok() &&
                          reply.rows == ExpectedProbeRows(snapshot->db, user),
                      "PROBE " + user + " differs from FindSimilarUsers");
    }
  }
  control.Close();
  service.server->Shutdown();

  // --- metrics ------------------------------------------------------------
  const auto delta = [&](const char* key) {
    const auto a = writer.stats_after.find(key);
    const auto b = writer.stats_before.find(key);
    if (a == writer.stats_after.end() || b == writer.stats_before.end()) {
      return 0.0;
    }
    return a->second - b->second;
  };
  const double publishes = delta("publishes");
  const double per_publish = publishes > 0 ? 1.0 / publishes : 0.0;
  const double reads = static_cast<double>(probe_ms.size() + topk_ms.size());
  report->Named("probe_p50_ms", probe_ms.Median(), "ms", probe_ms.size());
  report->Named("probe_p99_ms", probe_ms.Quantile(0.99), "ms",
                probe_ms.size());
  report->Named("topk_p50_ms", topk_ms.Median(), "ms", topk_ms.size());
  report->Named("publish_p50_ms", writer.publish_ms.Median(), "ms",
                writer.publish_ms.size());
  report->Named("publish_p90_ms", writer.publish_ms.Quantile(0.9), "ms",
                writer.publish_ms.size());
  report->Named("read_qps", reads / window_s, "req/s",
                static_cast<size_t>(reads));
  report->Named("bench.writer_lag_p99_ms", writer.lag_ms.Quantile(0.99), "ms",
                writer.lag_ms.size());
  report->Named("update.publish_ms", writer.publish_self_ms.Median(), "ms",
                writer.publish_self_ms.size());
  report->Named("update.delta_frac",
                writer.publish_ms.empty()
                    ? 0.0
                    : static_cast<double>(writer.delta_publishes) /
                          static_cast<double>(writer.publish_ms.size()),
                "fraction", writer.publish_ms.size());
  report->Named("update.blocks_rebuilt_per_publish",
                delta("blocks_rebuilt") * per_publish, "count",
                static_cast<size_t>(publishes));
  report->Named("update.dirty_users_per_publish",
                delta("dirty_users_published") * per_publish, "count",
                static_cast<size_t>(publishes));
  report->Named("server.requests_failed", delta("failed"), "count", 1);
  report->Named("server.connections_rejected", delta("rejected"), "count", 1);

  report->Slot("setup_s", setup_ms.Median() / 1e3, "s", setup_ms.size());
  report->Slot("main_ms", probe_ms.Median(), "ms", probe_ms.size());
  report->Slot("side_ms", writer.publish_ms.Median(), "ms",
               writer.publish_ms.size());
  report->Slot("heavy_ms", topk_ms.Median(), "ms", topk_ms.size());
}

}  // namespace perfbench
