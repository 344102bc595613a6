// Weight (de)serialization for trained networks.
//
// A deployed MicroDeep network is trained once and then distributed to
// sensor nodes; persisting and reloading the learned parameters is the
// bridge between the two phases.  The format is a small, versioned,
// endian-explicit binary container of the network's parameter tensors
// (architecture is code, weights are data — the loaded network must be
// constructed with the same topology).
#pragma once

#include <iosfwd>
#include <string>

#include "ml/network.hpp"

namespace zeiot::ml {

/// Writes all trainable parameters of `net` to `os`.
/// Throws zeiot::Error on stream failure.
void save_weights(const Network& net, std::ostream& os);
void save_weights(const Network& net, const std::string& path);

/// Loads parameters into `net`, which must have the exact same parameter
/// structure (count and shapes) as the network that was saved.
/// Throws zeiot::Error on format mismatch or stream failure.
void load_weights(Network& net, std::istream& is);
void load_weights(Network& net, const std::string& path);

}  // namespace zeiot::ml
