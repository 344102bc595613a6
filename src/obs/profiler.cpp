#include "obs/profiler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace zeiot::obs {

ProfilerRegistry::RegionId ProfilerRegistry::region(const std::string& name) {
  ZEIOT_CHECK_MSG(!name.empty(), "profiler region needs a name");
  for (RegionId id = 0; id < regions_.size(); ++id) {
    if (regions_[id].name == name) return id;
  }
  regions_.push_back(Region{name, 0.0, 0.0, 0});
  return regions_.size() - 1;
}

const ProfilerRegistry::Region& ProfilerRegistry::at(RegionId id) const {
  ZEIOT_CHECK_MSG(id < regions_.size(), "unknown profiler region " << id);
  return regions_[id];
}

void ProfilerRegistry::enter(RegionId id) {
  ZEIOT_CHECK_MSG(id < regions_.size(), "unknown profiler region " << id);
  stack_.push_back(Frame{id, 0.0});
}

void ProfilerRegistry::leave(double elapsed_s) {
  ZEIOT_CHECK_MSG(!stack_.empty(), "profiler leave without enter");
  const Frame f = stack_.back();
  stack_.pop_back();
  Region& r = regions_[f.id];
  r.total_s += elapsed_s;
  r.self_s += std::max(0.0, elapsed_s - f.child_s);
  ++r.count;
  if (!stack_.empty()) stack_.back().child_s += elapsed_s;
}

void ProfilerRegistry::report(MetricsRegistry& metrics) const {
  for (const Region& r : regions_) {
    if (r.count == 0) continue;
    metrics.gauge("prof." + r.name + ".total_s").set(r.total_s);
    metrics.gauge("prof." + r.name + ".self_s").set(r.self_s);
    metrics.gauge("prof." + r.name + ".count")
        .set(static_cast<double>(r.count));
  }
}

}  // namespace zeiot::obs
