// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte strings.
//
// Used by the persistence layer (serialize/plan.cc, serve/plan_cache.cc) to
// detect corruption — bit flips, torn writes, truncation — in stored plan
// artifacts before any parser consumes them, and by the serve wire framing
// (serve/wire.h) for every frame. Integrity first, parsing second: once a
// payload's checksum verifies, the strict parsers' internal CHECKs are back
// to guarding programming errors only (DESIGN.md "Failure taxonomy").
//
// Slice-by-8: eight 256-entry tables, built at compile time, fold eight
// input bytes per step instead of one. The values are zlib's crc32() for
// the same bytes, so frames and persisted checksum records do not depend on
// which loop computed them.
#ifndef SERENITY_UTIL_CRC32_H_
#define SERENITY_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace serenity::util {

namespace internal {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte-at-a-time table; tables[k][i] is the CRC
// contribution of byte i followed by k zero bytes.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Bytes p[0..3] as a little-endian word, independent of host byte order.
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace internal

// CRC-32 of `data`. Matches zlib's crc32() for the same bytes. Passing the
// CRC of a prefix as `previous` continues it, so
// Crc32(b, Crc32(a)) == Crc32(a + b) — the same chaining as zlib's crc32().
inline std::uint32_t Crc32(std::string_view data,
                           std::uint32_t previous = 0) {
  const auto& t = internal::kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = ~previous;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = internal::LoadLe32(p) ^ crc;
    const std::uint32_t hi = internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

}  // namespace serenity::util

#endif  // SERENITY_UTIL_CRC32_H_
