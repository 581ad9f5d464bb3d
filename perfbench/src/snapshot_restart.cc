// snapshot_restart: checkpoint and restart on FlickrLike, the largest
// token arena of the presets: generated for 1,600 users and cut to its
// first 110,000 objects (~1,300 users; see RunSnapshotRestart). Each
// cycle:
//
//   1. checkpoint: WriteBinary in the default v3 format, with today's
//      flush policy (flush + close, no fsync) (side_ms);
//   2. restart: MappedSnapshot::Open + Load + one FindSimilarUsers for
//      a small user (below): first-answer time under
//      `stps_cli serve --mapped` (main_ms);
//   3. verified restart: ReadBinary (every checksum, sketch rebuild) +
//      the same probe (heavy_ms).
//
// io does nearly all the work; join, server and update do none. A change
// to the snapshot bytes, to the verified read or to the write path (an
// fsync, an atomic rename) shows here and nowhere else.
//
// Set-up (generate + build + first checkpoint) runs 3 times. Untimed
// checks: every status is OK and both readers' probe answers equal the
// answer on the original database, bit for bit.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/stpsjoin.h"
#include "io/binary.h"

namespace perfbench {
namespace {

using stps::ObjectDatabase;


uint64_t Probe(Tracer& tracer, const ObjectDatabase& db, stps::UserId user,
               const stps::STPSQuery& query) {
  Span span(tracer, "core.probe");
  const auto result = stps::FindSimilarUsers(db, user, query);
  span.End();
  return ResultChecksum(result);
}

}  // namespace

void RunSnapshotRestart(const RunOptions& options, Tracer& tracer,
                        Report* report) {
  // The preset's user count varies the object count by ~10% between
  // seeds (objects per user are heavy-tailed), and every io cost follows
  // the object count. So more users are generated than needed and the
  // database keeps exactly the first `objects` rows in generator order:
  // the seed changes the content, not the size.
  const size_t users = options.smoke ? 100 : 1600;
  const size_t objects = options.smoke ? 5000 : 110000;
  const int setups = 3;
  const stps::DatasetKind kind = stps::DatasetKind::kFlickrLike;
  const stps::STPSQuery query = stps::DefaultQuery(kind);
  const std::string path = options.work_dir + "/snapshot_restart." +
                           std::to_string(::getpid()) + ".stpsdb";
  report->Config("preset", stps::DatasetKindName(kind));
  report->Config("generated_users", std::to_string(users));
  report->Config("object_cap", std::to_string(objects));
  report->Config("thread_budget", "1");
  report->Config("snapshot_format", "v3");

  // Set-up: generate + build, then the first checkpoint.
  Samples setup_ms;
  ObjectDatabase db;
  for (int rep = 0; rep < setups; ++rep) {
    db = ObjectDatabase();
    Span setup(tracer, "bench.setup");
    RawDataset raw;
    db = GenerateAndBuild(tracer, kind, users, options.seed, &raw, {},
                          objects);
    stps::Status status;
    {
      Span write(tracer, "io.write");
      status = stps::WriteBinary(db, path);
    }
    setup_ms.Add(setup.End());
    report->Attempt(status.ok(), "first WriteBinary: " + status.ToString());
  }
  report->Config("users", std::to_string(db.num_users()));
  report->Config("objects", std::to_string(db.num_objects()));
  TraceBuildSubsteps(tracer, db);

  // The probed user: the one at the 10th percentile of object count
  // (ties by id). A probe's cost grows with its user's size and depends
  // on the user's neighbourhood, which the seed changes: between seeds,
  // the median user's probe cost varied by ~25% and the 90th
  // percentile's by ~70%. A small user's probe is cheap and varies
  // mostly with the object count, which the cut above fixes, so the
  // restart figure stays about the io (Open + Load).
  std::vector<std::pair<size_t, stps::UserId>> by_size;
  for (stps::UserId u = 0; u < db.num_users(); ++u) {
    by_size.emplace_back(db.UserObjectCount(u), u);
  }
  std::sort(by_size.begin(), by_size.end());
  const stps::UserId probed = by_size[by_size.size() / 10].second;
  const uint64_t expected =
      ResultChecksum(stps::FindSimilarUsers(db, probed, query));

  Samples write_ms;
  Samples restart_ms;
  Samples verified_ms;
  uint64_t file_bytes = 0;
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(options.seconds * 1e9);
  size_t cycles = 0;
  while (cycles == 0 || NowNanos() < deadline) {
    ++cycles;
    {
      Span write(tracer, "io.write", tracer.NewId());
      const stps::Status status = stps::WriteBinary(db, path);
      write_ms.Add(write.End());
      report->Attempt(status.ok(), "WriteBinary: " + status.ToString());
    }
    {
      // Scoped: the mapping must be gone before the next write.
      Span restart(tracer, "bench.restart", tracer.NewId());
      Span open(tracer, "io.open");
      const stps::Result<stps::MappedSnapshot> snapshot =
          stps::MappedSnapshot::Open(path);
      if (snapshot.ok()) {
        open.Count("file_bytes",
                   static_cast<double>(snapshot.value().file_size()));
      }
      open.End();
      stps::Status status = snapshot.status();
      uint64_t got = 0;
      if (snapshot.ok()) {
        Span load(tracer, "io.load");
        const stps::Result<ObjectDatabase> mapped = snapshot.value().Load();
        load.End();
        status = mapped.status();
        if (mapped.ok()) got = Probe(tracer, mapped.value(), probed, query);
      }
      restart_ms.Add(restart.End());
      if (snapshot.ok()) file_bytes = snapshot.value().file_size();
      report->Attempt(status.ok() && got == expected,
                      "mapped restart: " + status.ToString());
    }
    {
      Span restart(tracer, "bench.verified_restart", tracer.NewId());
      Span read(tracer, "io.read_verified");
      const stps::Result<ObjectDatabase> heap = stps::ReadBinary(path);
      read.End();
      const uint64_t got =
          heap.ok() ? Probe(tracer, heap.value(), probed, query) : 0;
      verified_ms.Add(restart.End());
      report->Attempt(heap.ok() && got == expected,
                      "verified restart: " + heap.status().ToString());
    }
  }
  std::remove(path.c_str());

  const double bytes_per_object =
      static_cast<double>(file_bytes) / static_cast<double>(db.num_objects());
  report->Named("checkpoint_ms", write_ms.Median(), "ms", write_ms.size());
  report->Named("restart_ms", restart_ms.Median(), "ms", restart_ms.size());
  report->Named("verified_restart_ms", verified_ms.Median(), "ms",
                verified_ms.size());
  report->Named("snapshot_bytes_per_object", bytes_per_object, "B", 1);
  report->Named("io.file_bytes", static_cast<double>(file_bytes), "B", 1);

  report->Slot("setup_s", setup_ms.Median() / 1e3, "s", setup_ms.size());
  report->Slot("main_ms", restart_ms.Median(), "ms", restart_ms.size());
  report->Slot("side_ms", write_ms.Median(), "ms", write_ms.size());
  report->Slot("heavy_ms", verified_ms.Median(), "ms", verified_ms.size());
}

}  // namespace perfbench
