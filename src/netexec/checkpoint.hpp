// NVM checkpointing for the distributed executor — the intermittent-
// computing layer of netexec (paper Sec. III.A brought to the network).
//
// Each node owns a bounded non-volatile region holding one checkpoint
// image: the sensed inputs and computed unit outputs resident on the node
// plus the latched remote inbox, framed as
//
//   "ZNVM" | version u16 | flags u16 | node u32 | plans_done u32 |
//   n_entries u32 | entries... | fnv1a64 trailer
//   entry := unit u32 | len u32 | len x float (raw little-endian bits)
//
// Values are committed as raw float bits so a resumed inference replays
// bit-identically to the uninterrupted run.  Decoding is strict: any
// truncation or bit flip fails the frame (length walk + FNV-1a trailer)
// and the node falls back to a clean restart instead of consuming garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "energy/device.hpp"

namespace zeiot::netexec {

/// Image framing sizes (see above).  NVM always stores floats: even a
/// deployment with quantized transport commits dequantized activations,
/// so resume is bit-identical to the uninterrupted run.
inline constexpr std::size_t kNvmImageOverheadBytes = 28;  // header + trailer
inline constexpr std::size_t kNvmEntryOverheadBytes = 8;   // unit id + len
inline constexpr std::size_t kNvmBytesPerActivation = 4;   // raw float bits

/// Storage ceiling of every node's capacitor under the harvest model.
inline constexpr double kCapacitorJ = 1e-3;
/// EnergyAdaptive commits compute outputs only while the capacitor holds
/// less than this reserve.
inline constexpr double kAdaptiveReserveJ = 50e-6;

/// Checkpointing knobs for NetExecConfig.  Commits are priced by the
/// default energy::CheckpointCosts, the same joules per byte run_chain
/// charges.
struct CheckpointConfig {
  energy::CheckpointPolicy policy = energy::CheckpointPolicy::None;

  bool enabled() const { return policy != energy::CheckpointPolicy::None; }
};

/// Per-node energy-harvesting model for the harvest-aware scheduler: a
/// capacitor of kCapacitorJ trickle-charged at `harvest_watt` (scaled by
/// any active HarvestDrought fault window), debited by compute/TX/
/// checkpoint work.  EnergyAdaptive checkpointing requires it.
struct HarvestConfig {
  bool enabled = false;
  double harvest_watt = 100e-6;  // ambient RF/solar intake, tens of µW
  double initial_j = 0.0;        // capacitor charge at t = 0

  bool valid() const {
    return harvest_watt >= 0.0 && initial_j >= 0.0 &&
           initial_j <= kCapacitorJ;
  }
};

/// One durable activation slot: a unit's output channels as raw floats.
struct CheckpointEntry {
  std::uint32_t unit = 0;
  std::vector<float> values;

  friend bool operator==(const CheckpointEntry& a, const CheckpointEntry& b) {
    return a.unit == b.unit && a.values == b.values;
  }
};

/// The full durable state of one node mid-inference.
struct NodeCheckpointState {
  std::uint32_t node = 0;
  /// Unit layers 0..plans_done-1 are complete on this node (resume skips
  /// them); layers >= plans_done re-enter the scheduler.
  std::uint32_t plans_done = 0;
  /// Sorted by unit id (the codec enforces the order on decode so the
  /// image bytes are a canonical function of the state).
  std::vector<CheckpointEntry> entries;

  friend bool operator==(const NodeCheckpointState& a,
                         const NodeCheckpointState& b) {
    return a.node == b.node && a.plans_done == b.plans_done &&
           a.entries == b.entries;
  }
};

/// Serializes `state` into one NVM image (see framing above).
std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpointState& state);

/// Strict decode: returns false (and clears `out`) on any truncation,
/// framing violation, unsorted entries, or checksum mismatch.
bool decode_checkpoint(const std::uint8_t* data, std::size_t size,
                       NodeCheckpointState& out);

/// What a reviving node does: decode its NVM image, falling back to a
/// clean state for `node` (no progress, no entries) when the image is
/// empty, corrupt, or belongs to a different node.
NodeCheckpointState restore_node_from_nvm(const std::vector<std::uint8_t>& image,
                                          std::uint32_t node);

/// Image size of `state` without serializing (header + trailer + entries).
std::size_t checkpoint_image_bytes(const NodeCheckpointState& state);

}  // namespace zeiot::netexec
