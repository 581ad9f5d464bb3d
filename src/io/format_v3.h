// On-disk layout of the v3 "STPSDB03" snapshot: one relocatable,
// 64-byte-aligned arena addressed entirely by offsets, so a reader can
// mmap the file and point the in-memory columns straight at it.
//
//   HeaderV3 (112 bytes, at offset 0; header_checksum: FNV-1a)
//   SectionEntry[section_count] (40 bytes each, at header.table_offset;
//       each entry's checksum: payload sum over that section's bytes)
//   u64 table_checksum (FNV-1a over the table bytes)
//   sections, each zero-padded up to 64-byte alignment
//   u64 file_checksum (payload sum over bytes [0, file_size - 8))
//
// The "payload sum" is XXH64 (seed 0) when header flag bit 2
// (kFlagXxh64) is set — every writer since the switch sets it — and
// FNV-1a in older files without the bit, which still read and verify
// (PayloadSum() below is the one place that choice is made). The header
// and table checksums stay FNV-1a in every file: they are small, and the
// header checksum protects the flag itself, so it must be checkable
// before the flag is trusted. The v2 stream keeps FNV-1a throughout.
//
// Conventions:
//  * Everything is little-endian; the format refuses to build on
//    big-endian hosts (static_assert below) rather than byte-swap.
//  * Offsets are absolute file offsets; section payloads never contain
//    pointers, only indices — the arena is position-independent.
//  * Every section's payload is a flat array of fixed-size elements
//    (ElementSize() below); entry.size == entry.count * ElementSize().
//  * The header and table carry their own checksums so an O(1) open can
//    validate them without touching section payloads; per-section and
//    whole-file checksums exist for the verifying reader. The trailing
//    whole-file checksum also covers the alignment padding, so no byte
//    of the file is outside some checksum's span.
//
// See DESIGN.md §10 for the rationale and the v1/v2 compatibility story.

#ifndef STPS_IO_FORMAT_V3_H_
#define STPS_IO_FORMAT_V3_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace stps {

static_assert(std::endian::native == std::endian::little,
              "STPSDB03 snapshots are little-endian on disk");

inline constexpr char kMagicV3[8] = {'S', 'T', 'P', 'S', 'D', 'B', '0', '3'};
inline constexpr size_t kV3Alignment = 64;

/// Incremental FNV-1a: the v2 stream's checksum, the v3 header and table
/// checksums, and the v3 payload sum of files without kFlagXxh64.
inline uint64_t FnvUpdate(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}
inline constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ULL;

inline uint64_t Fnv(const void* data, size_t size) {
  return FnvUpdate(kFnvSeed, data, size);
}

/// XXH64 with seed 0, per the published xxHash specification: four
/// 64-bit lanes over 32-byte stripes, then 8/4/1-byte tails and the
/// final avalanche (io/format_v3.cc). Portable (memcpy word loads, no
/// intrinsics); it hashes a 64-bit word per multiply where FNV-1a hashes
/// a byte. The digest is part of the v3 on-disk contract (kFlagXxh64).
uint64_t Xxh64(const void* data, size_t size);

/// Streaming XXH64 (seed 0): Update in pieces of any size, Digest at any
/// point; the digest equals Xxh64 over the concatenated pieces. Buffers
/// at most one partial 32-byte stripe between calls.
class Xxh64Stream {
 public:
  Xxh64Stream();
  void Update(const void* data, size_t size);
  uint64_t Digest() const;

 private:
  uint64_t lanes_[4];
  uint64_t total_ = 0;
  unsigned char buffer_[32] = {};
  size_t buffered_ = 0;
};

/// True when `v` survives a cast to the 32-bit on-disk field. The v2
/// stream and the v3 CSR begin-arrays both store 32-bit counts; writers
/// must check this instead of letting static_cast truncate silently.
inline bool FitsU32(uint64_t v) { return v <= 0xFFFFFFFFull; }

/// Section identifiers. Values are stable on-disk contract; new kinds
/// append, existing values never change meaning.
enum SectionKind : uint32_t {
  kSecUserBegin = 1,        // u32 x (num_users + 1)
  kSecTokenBegin = 2,       // u32 x (num_objects + 1)
  kSecTokenData = 3,        // u32 (TokenId) x total_tokens
  kSecXs = 4,               // f64 x num_objects
  kSecYs = 5,               // f64 x num_objects
  kSecTimes = 6,            // f64 x num_objects
  kSecUsers = 7,            // u32 (UserId) x num_objects
  kSecSigs = 8,             // u64 (TokenSignature) x num_objects
  kSecInsertionOrder = 9,   // u32 x num_objects
  kSecUserNameOffsets = 10,  // u64 x (num_users + 1)
  kSecUserNameBlob = 11,     // char x user_name_offsets.back()
  kSecDictOffsets = 12,      // u64 x (num_dict_tokens + 1)
  kSecDictBlob = 13,         // char x dict_offsets.back()
  kSecDictFreq = 14,         // u64 x num_dict_tokens
  kSecPlannerStats = 15,     // 65 x u64/f64 fields (520 bytes); flags bit 0
  // Legacy kinds 16-26: the sketch layer, present (all eleven, flags
  // bit 1) in files written while the database carried one. Writers no
  // longer emit them; readers check their table entries, the verified
  // read checksums their payloads, and both skip them.
  kSecSketchMeta = 16,       // SketchMetaV3 (88 bytes); flags bit 1
  kSecSketchMinhash = 17,    // u64 x (num_users * num_hashes)
  kSecSketchOccCells = 18,   // u32, CSR data
  kSecSketchOccBegin = 19,   // u32 x (num_users + 1)
  kSecSketchMasks = 20,      // u64 x num_users
  kSecSketchUserKeys = 21,   // u64, CSR data
  kSecSketchUserKeyBegin = 22,  // u32 x (num_users + 1)
  kSecSketchPostKeys = 23,      // u64
  kSecSketchPostBegin = 24,     // u32 x (post_keys + 1)
  kSecSketchPostUsers = 25,     // u32 (UserId)
  kSecSketchRowSalts = 26,      // u64 x num_hashes
  kSecMaxKind = 26,
};

/// Fixed-size file header. memcpy'd to/from the mapped bytes (every
/// field is naturally aligned; the struct has no padding).
struct HeaderV3 {
  char magic[8];        // kMagicV3
  uint64_t file_size;   // exact file size in bytes, checksum included
  uint64_t flags;       // bit 0: planner stats, bit 1: legacy sketches,
                        // bit 2: XXH64 payload sums (else FNV-1a)
  uint64_t num_users;
  uint64_t num_objects;
  uint64_t num_dict_tokens;
  uint64_t total_tokens;
  double min_x, min_y, max_x, max_y;  // Rect bounds (Empty() sentinel ok)
  uint64_t section_count;
  uint64_t table_offset;      // == sizeof(HeaderV3)
  uint64_t header_checksum;   // FNV-1a over the preceding 104 bytes
};
static_assert(sizeof(HeaderV3) == 112);

inline constexpr uint64_t kFlagPlannerStats = 1ull << 0;
inline constexpr uint64_t kFlagSketches = 1ull << 1;  // legacy, read-only
inline constexpr uint64_t kFlagXxh64 = 1ull << 2;     // set by every writer
/// Readers refuse any other bit: a file from a newer writer would
/// otherwise be verified, or trust-loaded, under rules it does not follow.
inline constexpr uint64_t kKnownFlags =
    kFlagPlannerStats | kFlagSketches | kFlagXxh64;

/// The checksum of section payloads and of the trailing whole-file word,
/// chosen by the header flags: XXH64 under kFlagXxh64, FNV-1a otherwise.
inline uint64_t PayloadSum(uint64_t flags, const void* data, size_t size) {
  return (flags & kFlagXxh64) != 0 ? Xxh64(data, size) : Fnv(data, size);
}

/// One section-table row.
struct SectionEntry {
  uint32_t kind;      // SectionKind
  uint32_t reserved;  // zero
  uint64_t offset;    // absolute, kV3Alignment-aligned
  uint64_t size;      // payload bytes == count * ElementSize(kind)
  uint64_t count;     // element count
  uint64_t checksum;  // PayloadSum over the payload bytes
};
static_assert(sizeof(SectionEntry) == 40);

/// Fixed-size scalar block of the legacy sketch sections
/// (kSecSketchMeta); kept for ElementSize, never decoded.
struct SketchMetaV3 {
  uint64_t num_hashes;
  uint64_t num_bands;
  uint64_t index_grid_bits;
  uint64_t occupancy_grid_bits;
  uint64_t seed;
  uint64_t band_salt;
  uint64_t num_users;
  double min_x, min_y, width_x, width_y;
};
static_assert(sizeof(SketchMetaV3) == 88);

inline constexpr size_t kPlannerStatsBlockSize = 65 * 8;  // 520 bytes

/// Bytes per element of a section's payload array. Blob/meta sections
/// are byte arrays (element size 1 / the block itself).
inline size_t ElementSize(uint32_t kind) {
  switch (kind) {
    case kSecUserBegin:
    case kSecTokenBegin:
    case kSecTokenData:
    case kSecUsers:
    case kSecInsertionOrder:
    case kSecSketchOccCells:
    case kSecSketchOccBegin:
    case kSecSketchUserKeyBegin:
    case kSecSketchPostBegin:
    case kSecSketchPostUsers:
      return 4;
    case kSecXs:
    case kSecYs:
    case kSecTimes:
    case kSecSigs:
    case kSecUserNameOffsets:
    case kSecDictOffsets:
    case kSecDictFreq:
    case kSecSketchMinhash:
    case kSecSketchMasks:
    case kSecSketchUserKeys:
    case kSecSketchPostKeys:
    case kSecSketchRowSalts:
      return 8;
    case kSecUserNameBlob:
    case kSecDictBlob:
      return 1;
    case kSecPlannerStats:
      return kPlannerStatsBlockSize;
    case kSecSketchMeta:
      return sizeof(SketchMetaV3);
    default:
      return 0;  // unknown kind
  }
}

}  // namespace stps

#endif  // STPS_IO_FORMAT_V3_H_
