//===- persist/Crc32.cpp - CRC-32 for durable records ---------------------===//

#include "persist/Crc32.h"

#include <array>

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built
/// once at first use. `T[0]` is the byte-at-a-time table; `T[K][B]` is
/// the CRC register after byte B followed by K zero bytes, so the eight
/// bytes of one step each take one lookup and the results XOR together.
Tables makeTables() {
  Tables T{};
  for (std::uint32_t I = 0; I < 256; ++I) {
    std::uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1u) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
    T[0][I] = C;
  }
  for (std::size_t K = 1; K < 8; ++K)
    for (std::size_t I = 0; I < 256; ++I)
      T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFFu];
  return T;
}

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t le32(const std::uint8_t *P) {
  return static_cast<std::uint32_t>(P[0]) |
         (static_cast<std::uint32_t>(P[1]) << 8) |
         (static_cast<std::uint32_t>(P[2]) << 16) |
         (static_cast<std::uint32_t>(P[3]) << 24);
}

} // namespace

std::uint32_t mutk::persist::crc32(const std::uint8_t *Bytes,
                                   std::size_t Size, std::uint32_t Seed) {
  static const Tables T = makeTables();
  std::uint32_t C = Seed ^ 0xFFFFFFFFu;
  for (; Size >= 8; Bytes += 8, Size -= 8) {
    // The register folds into the first four bytes (reflected, so as a
    // little-endian word); byte I of the eight is followed by 7 - I more
    // and looks up T[7 - I].
    const std::uint32_t Lo = C ^ le32(Bytes);
    const std::uint32_t Hi = le32(Bytes + 4);
    C = T[7][Lo & 0xFFu] ^ T[6][(Lo >> 8) & 0xFFu] ^
        T[5][(Lo >> 16) & 0xFFu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xFFu] ^
        T[2][(Hi >> 8) & 0xFFu] ^ T[1][(Hi >> 16) & 0xFFu] ^ T[0][Hi >> 24];
  }
  for (; Size > 0; ++Bytes, --Size)
    C = T[0][(C ^ *Bytes) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}
