#include "netexec/checkpoint.hpp"

#include <cstring>

#include "common/hash.hpp"

namespace zeiot::netexec {

namespace {

constexpr char kMagic[4] = {'Z', 'N', 'V', 'M'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 20;   // magic + version + flags + 3*u32
constexpr std::size_t kTrailerBytes = 8;   // FNV-1a 64 of everything before
static_assert(kHeaderBytes + kTrailerBytes == kNvmImageOverheadBytes);

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.insert(out.end(), buf, buf + sizeof(T));
}

template <typename T>
T get(const std::uint8_t* data, std::size_t& off) {
  T v;
  std::memcpy(&v, data + off, sizeof(T));
  off += sizeof(T);
  return v;
}

}  // namespace

std::size_t checkpoint_image_bytes(const NodeCheckpointState& state) {
  std::size_t bytes = kHeaderBytes + kTrailerBytes;
  for (const CheckpointEntry& e : state.entries) {
    bytes += kNvmEntryOverheadBytes + e.values.size() * kNvmBytesPerActivation;
  }
  return bytes;
}

std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpointState& state) {
  std::vector<std::uint8_t> out;
  out.reserve(checkpoint_image_bytes(state));
  // Byte by byte: GCC 12 misreads a range insert into the reserved buffer
  // as an overflow (-Wstringop-overflow, -Warray-bounds).
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put<std::uint16_t>(out, kVersion);
  put<std::uint16_t>(out, 0);  // flags, reserved
  put<std::uint32_t>(out, state.node);
  put<std::uint32_t>(out, state.plans_done);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(state.entries.size()));
  for (const CheckpointEntry& e : state.entries) {
    put<std::uint32_t>(out, e.unit);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(e.values.size()));
    for (float v : e.values) put<float>(out, v);
  }
  put<std::uint64_t>(out, fnv1a64(out.data(), out.size()));
  return out;
}

bool decode_checkpoint(const std::uint8_t* data, std::size_t size,
                       NodeCheckpointState& out) {
  out = NodeCheckpointState{};
  if (data == nullptr || size < kHeaderBytes + kTrailerBytes) return false;
  if (std::memcmp(data, kMagic, 4) != 0) return false;
  // Checksum first: after it passes, the length walk can only fail on a
  // frame that was malformed when written (still rejected below).
  const std::uint64_t stored =
      [&] { std::size_t off = size - kTrailerBytes;
            return get<std::uint64_t>(data, off); }();
  if (stored != fnv1a64(data, size - kTrailerBytes)) return false;

  std::size_t off = 4;
  const auto version = get<std::uint16_t>(data, off);
  const auto flags = get<std::uint16_t>(data, off);
  if (version != kVersion || flags != 0) return false;
  NodeCheckpointState st;
  st.node = get<std::uint32_t>(data, off);
  st.plans_done = get<std::uint32_t>(data, off);
  const auto n_entries = get<std::uint32_t>(data, off);
  const std::size_t payload_end = size - kTrailerBytes;
  st.entries.reserve(n_entries);
  std::uint32_t prev_unit = 0;
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    if (payload_end - off < 2 * sizeof(std::uint32_t)) return false;
    CheckpointEntry e;
    e.unit = get<std::uint32_t>(data, off);
    if (i > 0 && e.unit <= prev_unit) return false;  // canonical order
    prev_unit = e.unit;
    const auto len = get<std::uint32_t>(data, off);
    if ((payload_end - off) / sizeof(float) < len) return false;
    e.values.resize(len);
    if (len > 0) {
      std::memcpy(e.values.data(), data + off, len * sizeof(float));
      off += len * sizeof(float);
    }
    st.entries.push_back(std::move(e));
  }
  if (off != payload_end) return false;  // trailing payload garbage
  out = std::move(st);
  return true;
}

NodeCheckpointState restore_node_from_nvm(
    const std::vector<std::uint8_t>& image, std::uint32_t node) {
  NodeCheckpointState st;
  if (decode_checkpoint(image.data(), image.size(), st) && st.node == node) {
    return st;
  }
  // Corrupt, truncated, or foreign image: clean restart for this node.
  st = NodeCheckpointState{};
  st.node = node;
  return st;
}

}  // namespace zeiot::netexec
