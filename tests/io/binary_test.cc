#include "io/binary.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/stpsjoin.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "io/format_v3.h"
#include "planner/planner_stats.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExpectSameDatabases(const ObjectDatabase& a, const ObjectDatabase& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_objects(), b.num_objects());
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.UserName(u), b.UserName(u));
    const auto oa = a.UserObjects(u);
    const auto ob = b.UserObjects(u);
    ASSERT_EQ(oa.size(), ob.size());
    for (size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].loc, ob[i].loc);
      EXPECT_DOUBLE_EQ(oa[i].time, ob[i].time);
      std::vector<std::string> sa, sb;
      for (const TokenId t : oa[i].doc) {
        sa.emplace_back(a.dictionary().TokenString(t));
      }
      for (const TokenId t : ob[i].doc) {
        sb.emplace_back(b.dictionary().TokenString(t));
      }
      std::sort(sa.begin(), sa.end());
      std::sort(sb.begin(), sb.end());
      EXPECT_EQ(sa, sb);
    }
  }
}

TEST(BinaryIoTest, RoundTripRandomDatabase) {
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("roundtrip.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripGeneratedDatasetWithTimestamps) {
  const ObjectDatabase original =
      GenerateDataset(PresetSpec(DatasetKind::kGeoTextLike, 40, 3));
  const std::string path = TempPath("geotext.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripEmptyDatabase) {
  DatabaseBuilder builder;
  const ObjectDatabase original = std::move(builder).Build();
  const std::string path = TempPath("empty.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_objects(), 0u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripPreservesPlannerStats) {
  RandomDbSpec spec;
  spec.seed = 77;
  const ObjectDatabase original = BuildRandomDatabase(spec);
  ASSERT_TRUE(original.has_planner_stats());
  const std::string path = TempPath("stats.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The snapshot carries the stats block and the reader cross-checks it
  // against the rebuilt database, so a successful load means the cached
  // summary is byte-equal to a fresh computation.
  ASSERT_TRUE(loaded.value().has_planner_stats());
  EXPECT_TRUE(loaded.value().planner_stats() == original.planner_stats());
  EXPECT_TRUE(loaded.value().planner_stats() ==
              ComputePlannerStats(loaded.value()));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyDatabaseStatsRoundTrip) {
  DatabaseBuilder builder;
  const ObjectDatabase original = std::move(builder).Build();
  const std::string path = TempPath("emptystats.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (original.has_planner_stats()) {
    ASSERT_TRUE(loaded.value().has_planner_stats());
    EXPECT_TRUE(loaded.value().planner_stats() == original.planner_stats());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileFails) {
  const Result<ObjectDatabase> r = ReadBinary("/nonexistent/x.stpsdb");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(BinaryIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("notadb.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a snapshot";
  }
  const Result<ObjectDatabase> r = ReadBinary(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DetectsTruncation) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("trunc.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  // Chop the file at several points; every prefix must be rejected.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (const double fraction : {0.05, 0.3, 0.7, 0.99}) {
    const std::string cut = TempPath("cut.stpsdb");
    {
      std::ofstream out(cut, std::ios::binary);
      out.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() * fraction));
    }
    const Result<ObjectDatabase> r = ReadBinary(cut);
    EXPECT_FALSE(r.ok()) << "fraction " << fraction;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(cut.c_str());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DetectsBitFlips) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("flip.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one byte deep in the payload (past header and dictionary).
  const size_t position = bytes.size() * 3 / 4;
  bytes[position] = static_cast<char>(bytes[position] ^ 0x5A);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result<ObjectDatabase> r = ReadBinary(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripV2StreamFormat) {
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("roundtrip_v2.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path, SnapshotFormat::kV2Stream).ok());
  Result<ObjectDatabase> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripMapped) {
  const ObjectDatabase original = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("roundtrip_mapped.stpsdb");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<ObjectDatabase> loaded = ReadBinaryMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabases(original, loaded.value());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MappedOpenRejectsV2Stream) {
  // The mmap fast path is v3-only; a v2 stream must fail cleanly, not be
  // misparsed as an arena.
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("v2_for_mmap.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path, SnapshotFormat::kV2Stream).ok());
  const Result<ObjectDatabase> r = ReadBinaryMapped(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Regression: a 32-byte file whose header claims 2^39 tokens used to be
// bounded only by a 2^40 sanity limit — the reader pre-allocated half a
// terabyte of string headers before discovering the file was empty. The
// counts must be bounded by what the file could possibly hold.
TEST(BinaryIoTest, ImplausibleHeaderCountsRejectedBeforeAllocation) {
  const std::string path = TempPath("huge_counts.stpsdb");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("STPSDB02", 8);
    const uint64_t users = 0, objects = 0, tokens = 1ULL << 39;
    out.write(reinterpret_cast<const char*>(&users), 8);
    out.write(reinterpret_cast<const char*>(&objects), 8);
    out.write(reinterpret_cast<const char*>(&tokens), 8);
  }
  const Result<ObjectDatabase> r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().ToString().find("implausible"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

// Regression: the reader verified the trailing checksum but accepted any
// bytes appended after it — a concatenation of two snapshots read as the
// first. Trailing data is corruption.
TEST(BinaryIoTest, RejectsTrailingBytesAfterChecksum) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  for (const SnapshotFormat format :
       {SnapshotFormat::kV2Stream, SnapshotFormat::kV3Arena}) {
    const std::string path = TempPath("trailing.stpsdb");
    ASSERT_TRUE(WriteBinary(db, path, format).ok());
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out << "extra";
    }
    const Result<ObjectDatabase> r = ReadBinary(path);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
}

// The guard behind the silent-truncation bugfix: on-disk counts are
// 32-bit, and the writers refuse (Status::InvalidArgument) anything that
// FitsU32 rejects instead of static_cast'ing it to garbage. Building a
// >4G-object user in a test is impractical, so the boundary is pinned
// here and the writer paths assert on it.
TEST(BinaryIoTest, FitsU32Boundary) {
  EXPECT_TRUE(FitsU32(0));
  EXPECT_TRUE(FitsU32(0xFFFFFFFFull));
  EXPECT_FALSE(FitsU32(0x100000000ull));
  EXPECT_FALSE(FitsU32(~0ull));
}

TEST(BinaryIoTest, WriteToUnwritablePathFails) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  // Nonexistent directory: the open itself fails.
  const Status missing = WriteBinary(
      db, std::string(::testing::TempDir()) + "/no_such_dir/out.stpsdb");
  EXPECT_FALSE(missing.ok());
  // /dev/full (when present) accepts the open but fails every flush with
  // ENOSPC — the disk-full case. Before the close-time stream check the
  // writer reported OkStatus here and the caller shipped a torn file.
  if (std::ifstream("/dev/full").good()) {
    const Status full = WriteBinary(db, "/dev/full");
    EXPECT_FALSE(full.ok());
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

HeaderV3 ParseHeader(const std::string& bytes) {
  HeaderV3 h = {};
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

SectionEntry FindSection(const std::string& bytes, uint32_t kind) {
  const HeaderV3 h = ParseHeader(bytes);
  for (uint64_t i = 0; i < h.section_count; ++i) {
    SectionEntry e = {};
    std::memcpy(&e, bytes.data() + h.table_offset + i * sizeof(e),
                sizeof(e));
    if (e.kind == kind) return e;
  }
  return SectionEntry{};
}

// Replays `db`'s objects through DatabaseBuilder in their original
// AddObject order: the fresh build a loaded snapshot must equal.
ObjectDatabase RebuildFromObjects(const ObjectDatabase& db) {
  std::vector<ObjectId> by_seq(db.num_objects());
  for (ObjectId slot = 0; slot < db.num_objects(); ++slot) {
    by_seq[db.insertion_order()[slot]] = slot;
  }
  DatabaseBuilder builder;
  std::vector<std::string_view> keywords;
  for (const ObjectId slot : by_seq) {
    const STObject& o = db.object(slot);
    keywords.clear();
    for (const TokenId t : o.doc) {
      keywords.push_back(db.dictionary().TokenString(t));
    }
    builder.AddObject(db.UserName(o.user), o.loc,
                      std::span<const std::string_view>(keywords), o.time);
  }
  return std::move(builder).Build();
}

// Column-level equality with a fresh build: same slots, token ids,
// signatures, insertion order, dictionary, and planner stats.
void ExpectEqualsFreshBuild(const ObjectDatabase& db) {
  const ObjectDatabase fresh = RebuildFromObjects(db);
  ExpectSameDatabases(fresh, db);
  ASSERT_EQ(fresh.num_objects(), db.num_objects());
  for (ObjectId id = 0; id < db.num_objects(); ++id) {
    const std::span<const TokenId> a = fresh.ObjectTokens(id);
    const std::span<const TokenId> b = db.ObjectTokens(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    EXPECT_EQ(fresh.sigs()[id], db.sigs()[id]);
    EXPECT_EQ(fresh.insertion_order()[id], db.insertion_order()[id]);
  }
  ASSERT_EQ(fresh.dictionary().size(), db.dictionary().size());
  for (TokenId t = 0; t < db.dictionary().size(); ++t) {
    EXPECT_EQ(fresh.dictionary().TokenString(t),
              db.dictionary().TokenString(t));
    EXPECT_EQ(fresh.dictionary().Frequency(t), db.dictionary().Frequency(t));
  }
  ASSERT_TRUE(db.has_planner_stats());
  EXPECT_TRUE(fresh.planner_stats() == db.planner_stats());
}

// A v3 snapshot written while databases carried the sketch layer (20
// users, flags bit 1 set, all eleven sketch sections present).
const std::string kLegacySketchFixture =
    std::string(STPS_TEST_DATA_DIR) + "/legacy_v3_sketch.stpsdb";

TEST(BinaryIoTest, LegacySketchFixtureHasSketchSections) {
  const std::string bytes = ReadFileBytes(kLegacySketchFixture);
  ASSERT_GE(bytes.size(), sizeof(HeaderV3));
  const HeaderV3 h = ParseHeader(bytes);
  EXPECT_NE(h.flags & kFlagSketches, 0u);
  EXPECT_EQ(h.section_count, 26u);
  EXPECT_EQ(FindSection(bytes, kSecSketchMinhash).kind, kSecSketchMinhash);
}

TEST(BinaryIoTest, LegacySketchFixtureOpensInBothReaders) {
  Result<MappedSnapshot> snapshot = MappedSnapshot::Open(kLegacySketchFixture);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<ObjectDatabase> mapped = snapshot.value().Load();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().num_users(), 20u);
  ExpectEqualsFreshBuild(mapped.value());

  Result<ObjectDatabase> verified = ReadBinary(kLegacySketchFixture);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ExpectEqualsFreshBuild(verified.value());
}

TEST(BinaryIoTest, LegacySketchFixtureSketchJoinMatchesPlainJoin) {
  Result<ObjectDatabase> loaded = ReadBinary(kLegacySketchFixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ObjectDatabase& db = loaded.value();
  STPSQuery query{0.1, 0.3, 0.2};
  JoinOptions options;
  options.algorithm = JoinAlgorithm::kSPPJF;
  const std::vector<ScoredUserPair> plain = RunSTPSJoin(db, query, options);
  query.sketch.enabled = true;
  JoinStats stats;
  const std::vector<ScoredUserPair> sketched =
      RunSTPSJoin(db, query, options, &stats);
  EXPECT_FALSE(plain.empty());
  EXPECT_GT(stats.sketch_candidate_pairs, 0u);
  EXPECT_TRUE(SameResults(plain, sketched, 0.0));
  EXPECT_TRUE(SameResults(plain, BruteForceSTPSJoin(db, STPSQuery{0.1, 0.3,
                                                                  0.2}),
                          0.0));

  TopKQuery topk{0.1, 0.3, 5};
  const std::vector<ScoredUserPair> plain_topk =
      RunTopKSTPSJoin(db, topk, TopKAlgorithm::kP);
  topk.sketch.enabled = true;
  EXPECT_TRUE(SameResults(plain_topk,
                          RunTopKSTPSJoin(db, topk, TopKAlgorithm::kP), 0.0));
}

TEST(BinaryIoTest, LegacySketchFixtureSketchByteFlipIsCorruption) {
  const std::string bytes = ReadFileBytes(kLegacySketchFixture);
  for (const uint32_t kind : {kSecSketchMeta, kSecSketchMinhash,
                              kSecSketchPostUsers, kSecSketchRowSalts}) {
    const SectionEntry e = FindSection(bytes, kind);
    ASSERT_EQ(e.kind, kind);
    ASSERT_GT(e.size, 0u);
    std::string flipped = bytes;
    const size_t position = static_cast<size_t>(e.offset + e.size / 2);
    flipped[position] = static_cast<char>(flipped[position] ^ 0x20);
    const std::string path = TempPath("legacy_flip.stpsdb");
    WriteFileBytes(path, flipped);
    const Result<ObjectDatabase> r = ReadBinary(path);
    EXPECT_FALSE(r.ok()) << "section kind " << kind;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    std::remove(path.c_str());
  }
}

TEST(BinaryIoTest, NewV3FilesCarryNoSketchSections) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("no_sketch.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  const std::string bytes = ReadFileBytes(path);
  const HeaderV3 h = ParseHeader(bytes);
  EXPECT_EQ(h.flags & kFlagSketches, 0u);
  EXPECT_EQ(h.section_count, 15u);  // 14 core + planner stats
  for (uint32_t kind = kSecSketchMeta; kind <= kSecSketchRowSalts; ++kind) {
    EXPECT_EQ(FindSection(bytes, kind).kind, 0u) << "kind " << kind;
  }
  std::remove(path.c_str());
}

// A fresh v3 file announces XXH64 payload sums (flags bit 2), its
// section and trailing checksums are XXH64, and the verified read
// catches a one-byte flip in a section payload, in alignment padding
// and in the trailing checksum word.
TEST(BinaryIoTest, NewV3FilesUseXxh64AndEveryByteIsVerified) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("xxh64.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  const std::string bytes = ReadFileBytes(path);
  const HeaderV3 h = ParseHeader(bytes);
  EXPECT_NE(h.flags & kFlagXxh64, 0u);
  const SectionEntry tokens = FindSection(bytes, kSecTokenData);
  ASSERT_GT(tokens.size, 0u);
  EXPECT_EQ(tokens.checksum,
            Xxh64(bytes.data() + tokens.offset, tokens.size));
  uint64_t trailing = 0;
  std::memcpy(&trailing, bytes.data() + bytes.size() - 8, 8);
  EXPECT_EQ(trailing, Xxh64(bytes.data(), bytes.size() - 8));

  // The first section whose payload does not end on the alignment leaves
  // padding before the next one.
  size_t padding = 0;
  for (uint32_t kind = kSecUserBegin; kind < kSecDictFreq; ++kind) {
    const SectionEntry e = FindSection(bytes, kind);
    if ((e.offset + e.size) % kV3Alignment != 0) {
      padding = static_cast<size_t>(e.offset + e.size);
      break;
    }
  }
  ASSERT_GT(padding, 0u);
  const struct {
    size_t position;
    const char* message;
  } flips[] = {
      {static_cast<size_t>(tokens.offset + tokens.size / 2),
       "section checksum mismatch"},
      {padding, "file checksum mismatch"},
      {bytes.size() - 3, "file checksum mismatch"},
  };
  for (const auto& flip : flips) {
    std::string flipped = bytes;
    flipped[flip.position] = static_cast<char>(flipped[flip.position] ^ 0x01);
    const std::string flipped_path = TempPath("xxh64_flip.stpsdb");
    WriteFileBytes(flipped_path, flipped);
    const Result<ObjectDatabase> heap = ReadBinary(flipped_path);
    ASSERT_FALSE(heap.ok()) << "byte " << flip.position;
    EXPECT_EQ(heap.status().message(), flip.message);
    Result<MappedSnapshot> snapshot = MappedSnapshot::Open(flipped_path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const Result<ObjectDatabase> verified = snapshot.value().LoadVerified();
    ASSERT_FALSE(verified.ok()) << "byte " << flip.position;
    EXPECT_EQ(verified.status().message(), flip.message);
    std::remove(flipped_path.c_str());
  }
  std::remove(path.c_str());
}

// Files written before XXH64 (no flags bit 2) keep FNV-1a payload sums.
TEST(BinaryIoTest, LegacyFixtureKeepsFnvPayloadSums) {
  const std::string bytes = ReadFileBytes(kLegacySketchFixture);
  ASSERT_GE(bytes.size(), sizeof(HeaderV3));
  EXPECT_EQ(ParseHeader(bytes).flags & kFlagXxh64, 0u);
  const SectionEntry tokens = FindSection(bytes, kSecTokenData);
  EXPECT_EQ(tokens.checksum, Fnv(bytes.data() + tokens.offset, tokens.size));
  uint64_t trailing = 0;
  std::memcpy(&trailing, bytes.data() + bytes.size() - 8, 8);
  EXPECT_EQ(trailing, Fnv(bytes.data(), bytes.size() - 8));
}

// A header flag bit this reader does not know (here bit 3, with the
// header checksum resealed) is corruption for both readers: the file
// follows rules this reader cannot check.
TEST(BinaryIoTest, UnknownHeaderFlagsRejected) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::string path = TempPath("unknown_flags.stpsdb");
  ASSERT_TRUE(WriteBinary(db, path).ok());
  std::string bytes = ReadFileBytes(path);
  HeaderV3 h = ParseHeader(bytes);
  h.flags |= 1ull << 3;
  h.header_checksum = Fnv(&h, offsetof(HeaderV3, header_checksum));
  std::memcpy(bytes.data(), &h, sizeof(h));
  WriteFileBytes(path, bytes);

  const Result<MappedSnapshot> snapshot = MappedSnapshot::Open(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(snapshot.status().message(), "unknown header flags");
  EXPECT_FALSE(ReadBinaryMapped(path).ok());
  const Result<ObjectDatabase> heap = ReadBinary(path);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(heap.status().message(), "unknown header flags");
  std::remove(path.c_str());
}

// A checkpoint killed mid-write must leave the previous snapshot intact:
// WriteBinary writes a temporary next to the target and renames it into
// place only after a successful close. A child process rewrites a large
// database to the same path in a tight loop and is SIGKILLed at several
// points; after every kill the file at `path` must still verify.
TEST(BinaryIoTest, KilledRewriteLeavesLastSnapshotReadable) {
  const ObjectDatabase db =
      GenerateDataset(PresetSpec(DatasetKind::kGeoTextLike, 1500, 11));
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "crash_safe_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "snap.stpsdb").string();
  for (const SnapshotFormat format :
       {SnapshotFormat::kV3Arena, SnapshotFormat::kV2Stream}) {
    ASSERT_TRUE(WriteBinary(db, path, format).ok());
    for (const int delay_ms : {3, 11, 23, 37, 52, 71}) {
      const pid_t child = ::fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        for (;;) {
          if (!WriteBinary(db, path, format).ok()) ::_exit(1);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      ASSERT_EQ(::kill(child, SIGKILL), 0);
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFSIGNALED(status)) << "writer failed before the kill";
      const Result<ObjectDatabase> r = ReadBinary(path);
      ASSERT_TRUE(r.ok()) << "delay " << delay_ms << " ms: "
                          << r.status().ToString();
      EXPECT_EQ(r.value().num_objects(), db.num_objects());
    }
    // The killed writers' temporaries go with the next checkpoint.
    ASSERT_TRUE(WriteBinary(db, path, format).ok());
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    EXPECT_EQ(names, std::vector<std::string>{"snap.stpsdb"});
  }
  std::filesystem::remove_all(dir);
}

// Stale-temporary cleanup removes only `<name>.tmp.<pid>.<n>` files of
// dead processes: a live writer's temporary (here this process's) and
// names outside the pattern stay.
TEST(BinaryIoTest, WriteRemovesOnlyDeadWritersTemporaries) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "stale_temporaries";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
  const std::string live = std::to_string(::getpid());
  const std::vector<std::string> kept = {
      "snap.stpsdb.tmp." + live + ".999",   // live writer
      "snap.stpsdb.tmp.notes",              // not a temporary name
      "snap.stpsdb.tmp." + std::to_string(dead) + ".x",  // malformed
      "other.stpsdb.tmp." + std::to_string(dead) + ".0",  // other target
  };
  const std::string stale = "snap.stpsdb.tmp." + std::to_string(dead) + ".3";
  for (const std::string& name : kept) WriteFileBytes((dir / name).string(), "x");
  WriteFileBytes((dir / stale).string(), "partial snapshot");
  ASSERT_TRUE(WriteBinary(db, (dir / "snap.stpsdb").string()).ok());
  EXPECT_FALSE(std::filesystem::exists(dir / stale));
  for (const std::string& name : kept) {
    EXPECT_TRUE(std::filesystem::exists(dir / name)) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(BinaryIoTest, FailedWriteKeepsPreviousFileAndLeavesNoTemporary) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "failed_write";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "snap.stpsdb").string();
  for (const SnapshotFormat format :
       {SnapshotFormat::kV3Arena, SnapshotFormat::kV2Stream}) {
    ASSERT_TRUE(WriteBinary(db, path, format).ok());
    const std::string before = ReadFileBytes(path);
    // The child caps its own file size below the snapshot's, so every
    // rewrite fails part-way (EFBIG) — a disk-full stand-in that holds
    // for root too.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::signal(SIGXFSZ, SIG_IGN);
      const rlimit limit = {before.size() / 2, before.size() / 2};
      if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(2);
      if (WriteBinary(db, path, format).ok()) ::_exit(3);
      if (ReadFileBytes(path) != before) ::_exit(4);
      size_t entries = 0;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++entries;
      }
      ::_exit(entries == 1 ? 0 : 5);  // only snap.stpsdb, no temporary
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "2: setrlimit, 3: write succeeded, 4: file changed, "
           "5: temporary left behind";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stps
