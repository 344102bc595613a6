// Minimal streaming JSON writer for observability exports.
//
// The library keeps zero third-party dependencies, so metrics/span
// serialization uses this small writer: a comma-tracking stack over an
// std::ostream.  It only *writes* JSON (the repo never parses it); readers
// are the perf-trajectory tooling and notebooks outside the tree.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace zeiot::obs {

/// Escapes `s` for inclusion in a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number.  Non-finite values (which JSON cannot
/// represent) become `null`.
std::string json_number(double v);

/// Streaming JSON writer.  The caller is responsible for well-formed
/// nesting; the writer handles commas and key/value separators.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; must be followed by a value or container.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }

 private:
  void pre_value();

  std::ostream& out_;
  // One flag per open container: has it already emitted an element?
  std::vector<bool> has_elem_;
  bool pending_key_ = false;
};

}  // namespace zeiot::obs
