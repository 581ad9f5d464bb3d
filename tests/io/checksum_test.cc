// XXH64 (seed 0) and FNV-1a as the v3 snapshot format uses them. The
// digests are an on-disk contract: known answers from the published
// xxHash test vectors, golden values pinned for fixed inputs, and
// streaming-vs-one-shot agreement at every split point.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/format_v3.h"

namespace stps {
namespace {

// The xxHash reference sanity buffer: byte i is the top byte of
// 2654435761 * 11400714785074694797^i (mod 2^64).
std::vector<unsigned char> SanityBuffer(size_t size) {
  std::vector<unsigned char> buffer(size);
  uint64_t generator = 2654435761ULL;
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(generator >> 56);
    generator *= 11400714785074694797ULL;
  }
  return buffer;
}

uint64_t Xxh64Of(const std::string& s) { return Xxh64(s.data(), s.size()); }

TEST(ChecksumTest, Xxh64KnownAnswers) {
  EXPECT_EQ(Xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64(nullptr, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64Of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Xxh64Of("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(Xxh64Of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  // The reference implementation's own sanity checks (seed 0): 1 byte,
  // the 4-byte tail, 8+4+1+1 tails, and 222 = 6 stripes + 8+8+8+4+1+1.
  const std::vector<unsigned char> sanity = SanityBuffer(222);
  EXPECT_EQ(Xxh64(sanity.data(), 1), 0xE934A84ADB052768ULL);
  EXPECT_EQ(Xxh64(sanity.data(), 4), 0x9136A0DCA57457EEULL);
  EXPECT_EQ(Xxh64(sanity.data(), 14), 0x8282DCC4994E35C8ULL);
  EXPECT_EQ(Xxh64(sanity.data(), 222), 0xB641AE8CB691C174ULL);
}

// Pinned digests of fixed inputs: a change here breaks every snapshot
// written with kFlagXxh64.
TEST(ChecksumTest, Xxh64GoldenValues) {
  const std::vector<unsigned char> zeros(64, 0);
  EXPECT_EQ(Xxh64(zeros.data(), zeros.size()), 0x257B09A147B82A19ULL);
  const std::vector<unsigned char> sanity = SanityBuffer(4096);
  EXPECT_EQ(Xxh64(sanity.data(), 32), 0x18B216492BB44B70ULL);
  EXPECT_EQ(Xxh64(sanity.data(), 4096), 0xAB77F4AF85F4E70BULL);
  EXPECT_EQ(Xxh64Of("STPSDB03"), 0x940564EE235AABC8ULL);
}

TEST(ChecksumTest, FnvKnownAnswers) {
  EXPECT_EQ(Fnv("", 0), kFnvSeed);
  EXPECT_EQ(Fnv("a", 1), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(Fnv("foobar", 6), 0x85944171F73967E8ULL);
}

TEST(ChecksumTest, PayloadSumFollowsTheFlag) {
  const std::vector<unsigned char> data = SanityBuffer(300);
  EXPECT_EQ(PayloadSum(kFlagXxh64, data.data(), data.size()),
            Xxh64(data.data(), data.size()));
  EXPECT_EQ(PayloadSum(kFlagXxh64 | kFlagPlannerStats | kFlagSketches,
                       data.data(), data.size()),
            Xxh64(data.data(), data.size()));
  EXPECT_EQ(PayloadSum(0, data.data(), data.size()),
            Fnv(data.data(), data.size()));
  EXPECT_EQ(PayloadSum(kFlagPlannerStats | kFlagSketches, data.data(),
                       data.size()),
            Fnv(data.data(), data.size()));
}

TEST(ChecksumTest, StreamingEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> data = SanityBuffer(100);
  for (size_t length = 0; length <= data.size(); ++length) {
    const uint64_t expected = Xxh64(data.data(), length);
    for (size_t split = 0; split <= length; ++split) {
      Xxh64Stream stream;
      stream.Update(data.data(), split);
      stream.Update(data.data() + split, length - split);
      ASSERT_EQ(stream.Digest(), expected)
          << "length " << length << " split " << split;
    }
    Xxh64Stream bytewise;
    for (size_t i = 0; i < length; ++i) bytewise.Update(&data[i], 1);
    ASSERT_EQ(bytewise.Digest(), expected) << "length " << length;
  }
}

TEST(ChecksumTest, DigestDoesNotDisturbTheStream) {
  const std::vector<unsigned char> data = SanityBuffer(77);
  Xxh64Stream stream;
  stream.Update(data.data(), 40);
  EXPECT_EQ(stream.Digest(), Xxh64(data.data(), 40));
  stream.Update(data.data() + 40, 37);
  EXPECT_EQ(stream.Digest(), Xxh64(data.data(), 77));
}

// The v3 writer's call pattern: a 112-byte header, the section table,
// its 8-byte checksum, then per section zero padding in chunks of at
// most 64 bytes up to the next 64-byte boundary and the payload.
TEST(ChecksumTest, StreamingEqualsOneShotForTheWriterPattern) {
  Rng rng(20240);
  const std::vector<unsigned char> source = SanityBuffer(5000);
  for (int round = 0; round < 50; ++round) {
    std::string file;
    Xxh64Stream stream;
    const auto write = [&](const void* p, size_t n) {
      file.append(static_cast<const char*>(p), n);
      stream.Update(p, n);
    };
    const size_t sections = 1 + rng.NextBelow(15);
    write(source.data(), 112);
    write(source.data() + 112, sections * 40);
    write(source.data() + 7, 8);
    static constexpr unsigned char kZeros[kV3Alignment] = {};
    for (size_t s = 0; s < sections; ++s) {
      const size_t target = (file.size() + kV3Alignment - 1) / kV3Alignment *
                            kV3Alignment;
      while (file.size() < target) {
        write(kZeros, std::min(sizeof(kZeros), target - file.size()));
      }
      const size_t size = rng.NextBelow(300);
      write(source.data() + rng.NextBelow(source.size() - size), size);
    }
    ASSERT_EQ(stream.Digest(), Xxh64(file.data(), file.size()))
        << "round " << round;
  }
}

}  // namespace
}  // namespace stps
