// FNV-1a 64, the one hash behind every behavioural digest (span record,
// fault plan, serve report, fleet rows) and the NVM image trailer.  Words
// are mixed byte by byte, least significant first, and doubles by their
// raw bits, so a digest is a pure function of the values on any host and
// any one-bit difference shows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace zeiot {

class Fnv1a {
 public:
  void mix_bytes(const std::uint8_t* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= data[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_bits(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    mix(u);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a 64 of a byte buffer.
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  Fnv1a h;
  h.mix_bytes(data, size);
  return h.value();
}

}  // namespace zeiot
