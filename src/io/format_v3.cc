// XXH64 (seed 0) as specified by xxHash's published algorithm, for the
// v3 snapshot checksums (see io/format_v3.h).

#include "io/format_v3.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace stps {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;
constexpr size_t kStripe = 32;

uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

// The four accumulators at their seed-0 starting values.
void InitLanes(uint64_t lanes[4]) {
  lanes[0] = kPrime1 + kPrime2;
  lanes[1] = kPrime2;
  lanes[2] = 0;
  lanes[3] = 0 - kPrime1;
}

// Consumes every whole stripe of [p, p + size) into `lanes`; returns the
// number of bytes consumed (a multiple of kStripe).
size_t ConsumeStripes(uint64_t lanes[4], const unsigned char* p,
                      size_t size) {
  uint64_t v1 = lanes[0], v2 = lanes[1], v3 = lanes[2], v4 = lanes[3];
  size_t consumed = 0;
  for (; size - consumed >= kStripe; consumed += kStripe) {
    const unsigned char* stripe = p + consumed;
    v1 = Round(v1, Load64(stripe));
    v2 = Round(v2, Load64(stripe + 8));
    v3 = Round(v3, Load64(stripe + 16));
    v4 = Round(v4, Load64(stripe + 24));
  }
  lanes[0] = v1;
  lanes[1] = v2;
  lanes[2] = v3;
  lanes[3] = v4;
  return consumed;
}

// Folds the lanes (when at least one stripe was consumed), the total
// length and the < 32-byte tail into the final digest.
uint64_t Finish(const uint64_t lanes[4], uint64_t total,
                const unsigned char* tail, size_t tail_size) {
  uint64_t h;
  if (total >= kStripe) {
    h = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
        std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
    for (int i = 0; i < 4; ++i) h = MergeRound(h, lanes[i]);
  } else {
    h = kPrime5;  // seed 0
  }
  h += total;
  size_t i = 0;
  for (; i + 8 <= tail_size; i += 8) {
    h ^= Round(0, Load64(tail + i));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (i + 4 <= tail_size) {
    h ^= static_cast<uint64_t>(Load32(tail + i)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    i += 4;
  }
  for (; i < tail_size; ++i) {
    h ^= tail[i] * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

uint64_t Xxh64(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t lanes[4];
  InitLanes(lanes);
  const size_t consumed = ConsumeStripes(lanes, bytes, size);
  return Finish(lanes, size, bytes + consumed, size - consumed);
}

Xxh64Stream::Xxh64Stream() { InitLanes(lanes_); }

void Xxh64Stream::Update(const void* data, size_t size) {
  static_assert(sizeof(buffer_) == kStripe);
  if (size == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += size;
  if (buffered_ > 0) {  // top up the partial stripe first
    const size_t take = std::min(size, kStripe - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    size -= take;
    if (buffered_ < kStripe) return;
    ConsumeStripes(lanes_, buffer_, kStripe);
    buffered_ = 0;
  }
  const size_t consumed = ConsumeStripes(lanes_, p, size);
  buffered_ = size - consumed;
  if (buffered_ > 0) std::memcpy(buffer_, p + consumed, buffered_);
}

uint64_t Xxh64Stream::Digest() const {
  return Finish(lanes_, total_, buffer_, buffered_);
}

}  // namespace stps
