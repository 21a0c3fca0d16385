//===- persist/Crc32.h - CRC-32 for durable records -------------*- C++ -*-===//
///
/// \file
/// CRC-32 (the IEEE 802.3 polynomial, reflected form 0xEDB88320 — the
/// same checksum zlib and ethernet use) for per-record corruption
/// detection in WALs, snapshots and checkpoint files. A torn write or a
/// bit flip must be *detected and skipped*, never silently decoded into
/// a wrong cached tree. Self-contained table implementation: the repo
/// takes no dependency on zlib.
///
/// Every durable byte passes through it, so it runs slicing-by-8: eight
/// bytes per step through eight 256-entry tables, about five times the
/// speed of the byte-at-a-time loop. The words are assembled from bytes,
/// so the checksum (and every frame on disk) is the same on any host.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_PERSIST_CRC32_H
#define MUTK_PERSIST_CRC32_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mutk::persist {

/// CRC-32 of `Bytes[0..Size)`. `Seed` chains incremental computation:
/// `crc32(B, crc32(A))` equals `crc32(A ++ B)`.
std::uint32_t crc32(const std::uint8_t *Bytes, std::size_t Size,
                    std::uint32_t Seed = 0);

inline std::uint32_t crc32(const std::vector<std::uint8_t> &Bytes,
                           std::uint32_t Seed = 0) {
  return crc32(Bytes.data(), Bytes.size(), Seed);
}

} // namespace mutk::persist

#endif // MUTK_PERSIST_CRC32_H
