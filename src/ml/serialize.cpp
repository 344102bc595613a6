#include "ml/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>

namespace zeiot::ml {

namespace {

constexpr std::uint32_t kMagic = 0x5A45494F;  // "ZEIO"
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& os, std::uint32_t v) {
  // Little-endian, explicitly.
  const unsigned char b[4] = {
      static_cast<unsigned char>(v & 0xff),
      static_cast<unsigned char>((v >> 8) & 0xff),
      static_cast<unsigned char>((v >> 16) & 0xff),
      static_cast<unsigned char>((v >> 24) & 0xff)};
  os.write(reinterpret_cast<const char*>(b), 4);
}

std::uint32_t read_u32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  ZEIOT_CHECK_MSG(is.good(), "weight stream truncated");
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

void write_f32(std::ostream& os, float f) {
  std::uint32_t bits;
  static_assert(sizeof(bits) == sizeof(f));
  __builtin_memcpy(&bits, &f, sizeof(bits));
  write_u32(os, bits);
}

float read_f32(std::istream& is) {
  const std::uint32_t bits = read_u32(is);
  float f;
  __builtin_memcpy(&f, &bits, sizeof(f));
  return f;
}

}  // namespace

void save_weights(const Network& net, std::ostream& os) {
  auto params = const_cast<Network&>(net).params();
  write_u32(os, kMagic);
  write_u32(os, kVersion);
  write_u32(os, static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    const auto& shape = p->value.shape();
    write_u32(os, static_cast<std::uint32_t>(shape.size()));
    for (int d : shape) write_u32(os, static_cast<std::uint32_t>(d));
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      write_f32(os, p->value[i]);
    }
  }
  ZEIOT_CHECK_MSG(os.good(), "weight stream write failed");
}

void save_weights(const Network& net, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  ZEIOT_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_weights(net, os);
}

void load_weights(Network& net, std::istream& is) {
  ZEIOT_CHECK_MSG(read_u32(is) == kMagic, "not a zeiot weight stream");
  const std::uint32_t version = read_u32(is);
  ZEIOT_CHECK_MSG(version == kVersion,
                  "unsupported weight version " << version);
  auto params = net.params();
  const std::uint32_t count = read_u32(is);
  ZEIOT_CHECK_MSG(count == params.size(),
                  "parameter count mismatch: stream has "
                      << count << ", network has " << params.size());
  for (Param* p : params) {
    const std::uint32_t rank = read_u32(is);
    const auto& shape = p->value.shape();
    ZEIOT_CHECK_MSG(rank == shape.size(), "parameter rank mismatch");
    for (int d : shape) {
      const std::uint32_t sd = read_u32(is);
      ZEIOT_CHECK_MSG(sd == static_cast<std::uint32_t>(d),
                      "parameter shape mismatch: stream dim "
                          << sd << " vs network dim " << d);
    }
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] = read_f32(is);
    }
  }
  ZEIOT_CHECK_MSG(is.good(), "weight stream read failed");
  // Strict framing: the stream must end exactly at the last tensor value.
  // Trailing bytes mean the payload does not belong to this architecture.
  is.peek();
  ZEIOT_CHECK_MSG(is.eof(), "trailing bytes after weight stream");
}

void load_weights(Network& net, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ZEIOT_CHECK_MSG(is.is_open(), "cannot open " << path << " for reading");
  load_weights(net, is);
}

}  // namespace zeiot::ml
