// Byte-order helpers shared by every wire codec and on-disk format.
//
// Three families, all operating on explicit byte sequences so the code is
// host-endianness-agnostic by construction:
//
//   * be_put_* / be_get_* — network byte order (big-endian), used by the
//     IPFIX codec and the packet-header serializers.
//   * le_put_* / le_get_* — little-endian, the byte order of the telescope
//     snapshot format (DESIGN.md §10): snapshots are written once and
//     served many times on x86-class hardware, so the on-disk layout
//     matches the dominant load target.
//   * crc32 — IEEE 802.3 polynomial (reflected, init/xorout 0xffffffff),
//     the per-section checksum of the snapshot format.
//
// Getters deliberately take (span, offset) instead of a raw pointer: all
// callers already hold a span, and the span's bounds are the only defence
// a parser has.  Callers are responsible for offset+width <= size (the
// codecs all check lengths up front).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mtscope::util {

// --- big-endian (network order) -------------------------------------------

inline void be_put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

inline void be_put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  be_put_u16(out, static_cast<std::uint16_t>(v >> 16));
  be_put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

inline void be_put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  be_put_u32(out, static_cast<std::uint32_t>(v >> 32));
  be_put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
}

[[nodiscard]] inline std::uint16_t be_get_u16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>((std::uint16_t{b[at]} << 8) | b[at + 1]);
}

[[nodiscard]] inline std::uint32_t be_get_u32(std::span<const std::uint8_t> b, std::size_t at) {
  return (std::uint32_t{be_get_u16(b, at)} << 16) | be_get_u16(b, at + 2);
}

[[nodiscard]] inline std::uint64_t be_get_u64(std::span<const std::uint8_t> b, std::size_t at) {
  return (std::uint64_t{be_get_u32(b, at)} << 32) | be_get_u32(b, at + 4);
}

// --- little-endian (snapshot on-disk order) -------------------------------

inline void le_put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void le_put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  le_put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  le_put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

inline void le_put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  le_put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
  le_put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

[[nodiscard]] inline std::uint16_t le_get_u16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>(std::uint16_t{b[at]} | (std::uint16_t{b[at + 1]} << 8));
}

[[nodiscard]] inline std::uint32_t le_get_u32(std::span<const std::uint8_t> b, std::size_t at) {
  return std::uint32_t{le_get_u16(b, at)} | (std::uint32_t{le_get_u16(b, at + 2)} << 16);
}

[[nodiscard]] inline std::uint64_t le_get_u64(std::span<const std::uint8_t> b, std::size_t at) {
  return std::uint64_t{le_get_u32(b, at)} | (std::uint64_t{le_get_u32(b, at + 4)} << 32);
}

/// Overwrite already-emitted little-endian fields in place — for length /
/// checksum fields patched after their section is serialized, and for
/// writing into fixed-width frames held in stack arrays (serve/wire.hpp).
inline void le_patch_u16(std::span<std::uint8_t> b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::uint8_t>(v & 0xff);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

inline void le_patch_u32(std::span<std::uint8_t> b, std::size_t at, std::uint32_t v) {
  le_patch_u16(b, at, static_cast<std::uint16_t>(v & 0xffff));
  le_patch_u16(b, at + 2, static_cast<std::uint16_t>(v >> 16));
}

inline void le_patch_u64(std::span<std::uint8_t> b, std::size_t at, std::uint64_t v) {
  le_patch_u32(b, at, static_cast<std::uint32_t>(v & 0xffffffff));
  le_patch_u32(b, at + 4, static_cast<std::uint32_t>(v >> 32));
}

// --- CRC32 (IEEE 802.3) ---------------------------------------------------

namespace detail {
inline constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

/// Incremental form: pass the previous return value as `seed` to checksum a
/// logically contiguous stream in pieces.  Start with the default seed.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c = detail::kCrc32Table[(c ^ byte) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace mtscope::util
