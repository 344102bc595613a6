// Deterministic-structure wall-clock profiler: named regions with
// self/total time attribution.
//
// Spans attribute *virtual* time; the profiler attributes *host wall*
// time, answering "which instrumented region is the process actually
// spending its seconds in".  Regions nest through an explicit stack, so a
// region's `self` time excludes the time spent in instrumented callees
// while `total` includes it — the two numbers a flame view needs.
//
// Conventions:
//  * region ids are interned once (analogous to resolving a metric handle)
//    and then entering/leaving a region is O(1) with no allocation;
//  * `ScopedTimer` given a null registry is a no-op beyond one pointer
//    test — the zero-overhead-when-null contract shared with the rest of
//    zeiot::obs;
//  * not thread-safe: instrument caller-thread phases (epochs, evaluate
//    calls, bench stages), not per-shard worker bodies.  Wall times are
//    inherently non-deterministic, so profiler output lands in metrics
//    gauges (`prof.<region>.*`), never in span digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace zeiot::obs {

class ProfilerRegistry {
 public:
  using RegionId = std::size_t;

  /// Interns `name` (idempotent) and returns its id.
  RegionId region(const std::string& name);

  /// Number of interned regions.
  std::size_t size() const { return regions_.size(); }

  struct Region {
    std::string name;
    double total_s = 0.0;  // wall time inside the region, callees included
    double self_s = 0.0;   // wall time minus instrumented callees
    std::uint64_t count = 0;
  };
  const Region& at(RegionId id) const;

  /// Publishes every region as gauges: prof.<name>.total_s / .self_s /
  /// .count.  Call once, after the measured phase (bench_report does).
  void report(MetricsRegistry& metrics) const;

 private:
  friend class ScopedTimer;
  void enter(RegionId id);
  void leave(double elapsed_s);

  struct Frame {
    RegionId id;
    double child_s = 0.0;  // accumulated elapsed time of direct callees
  };
  std::vector<Region> regions_;
  std::vector<Frame> stack_;
};

/// RAII region timer.  `reg == nullptr` disables it entirely.
class ScopedTimer {
 public:
  ScopedTimer(ProfilerRegistry* reg, ProfilerRegistry::RegionId id)
      : reg_(reg) {
    if (reg_ == nullptr) return;
    reg_->enter(id);
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (reg_ == nullptr) return;
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    reg_->leave(d.count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfilerRegistry* reg_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace zeiot::obs
