#include "energy/device.hpp"

#include <algorithm>

namespace zeiot::energy {

const char* checkpoint_policy_name(CheckpointPolicy policy) {
  switch (policy) {
    case CheckpointPolicy::None: return "none";
    case CheckpointPolicy::EveryUnit: return "every_unit";
    case CheckpointPolicy::EnergyAdaptive: return "adaptive";
  }
  return "unknown";
}

void EnergyLedger::record(const std::string& activity, double joules) {
  ZEIOT_CHECK_MSG(joules >= 0.0, "ledger energy must be >= 0");
  entries_[activity] += joules;
}

double EnergyLedger::total_joule() const {
  double s = 0.0;
  for (const auto& [_, j] : entries_) s += j;
  return s;
}

double EnergyLedger::of(const std::string& activity) const {
  const auto it = entries_.find(activity);
  return it == entries_.end() ? 0.0 : it->second;
}

IntermittentDevice::IntermittentDevice(std::unique_ptr<Harvester> harvester,
                                       Capacitor cap, HysteresisSwitch sw,
                                       ActivityCosts costs)
    : harvester_(std::move(harvester)),
      cap_(cap),
      switch_(sw),
      costs_(costs) {
  ZEIOT_CHECK_MSG(harvester_ != nullptr, "device requires a harvester");
}

void IntermittentDevice::set_observability(obs::Observability* obs,
                                           std::uint32_t device_id) {
  obs_ = obs;
  device_id_ = device_id;
  if (obs_ == nullptr) {
    harvested_ctr_ = boots_ctr_ = brownouts_ctr_ = nullptr;
    return;
  }
  const obs::Labels dev{{"device", std::to_string(device_id_)}};
  harvested_ctr_ = &obs_->metrics().counter("energy.harvested_j", dev);
  boots_ctr_ = &obs_->metrics().counter("energy.boots", dev);
  brownouts_ctr_ = &obs_->metrics().counter("energy.brownouts", dev);
}

void IntermittentDevice::advance(double t_seconds) {
  ZEIOT_CHECK_MSG(t_seconds >= last_t_, "advance() must be monotonic");
  // Integrate in small steps so duty-cycled harvesters and the hysteresis
  // state are tracked with reasonable fidelity.
  constexpr double kMaxStep = 0.05;  // 50 ms
  double t = last_t_;
  while (t < t_seconds) {
    const double dt = std::min(kMaxStep, t_seconds - t);
    const double p = harvester_->power_watt(t);
    cap_.charge(p, dt);
    if (switch_.is_on()) {
      // Sleep leakage while powered (best effort; device browns out if the
      // capacitor cannot even sustain sleep).
      cap_.draw(std::min(cap_.energy_joule(), costs_.sleep_watt * dt));
    }
    if (harvested_ctr_ != nullptr) harvested_ctr_->inc(p * dt);
    const bool was_on = switch_.is_on();
    switch_.update(cap_.voltage());
    if (!was_on && switch_.is_on()) {
      ++boots_;
      if (obs_ != nullptr) {
        boots_ctr_->inc();
        obs_->spans().instant(obs::SpanKind::EnergyBoot, t, device_id_, 0,
                              cap_.voltage());
      }
    } else if (was_on && !switch_.is_on() && obs_ != nullptr) {
      brownouts_ctr_->inc();
      obs_->spans().instant(obs::SpanKind::EnergyBrownout, t, device_id_, 0,
                            cap_.voltage());
    }
    t += dt;
  }
  last_t_ = t_seconds;
}

bool IntermittentDevice::try_spend(const std::string& activity,
                                   double power_watt, double duration_s) {
  ZEIOT_CHECK_MSG(power_watt >= 0.0 && duration_s >= 0.0,
                  "activity power/duration must be >= 0");
  if (!switch_.is_on()) return false;
  const double e = power_watt * duration_s;
  if (!cap_.draw(e)) return false;
  const bool was_on = switch_.is_on();
  switch_.update(cap_.voltage());
  if (was_on && !switch_.is_on()) {
    // The draw browned the device out; the activity still happened (energy
    // was available) but the device must re-boot before the next one.
    if (obs_ != nullptr) {
      brownouts_ctr_->inc();
      obs_->spans().instant(obs::SpanKind::EnergyBrownout, last_t_,
                            device_id_, 0, cap_.voltage());
    }
  }
  ledger_.record(activity, e);
  if (obs_ != nullptr) {
    obs_->metrics()
        .counter("energy.activity_j",
                 {{"device", std::to_string(device_id_)},
                  {"activity", activity}})
        .inc(e);
  }
  return true;
}

bool IntermittentDevice::try_sense(double duration_s) {
  return try_spend("sense", costs_.sense_watt, duration_s);
}
bool IntermittentDevice::try_backscatter(double duration_s) {
  return try_spend("backscatter_tx", costs_.backscatter_tx_watt, duration_s);
}
bool IntermittentDevice::try_active_tx(double duration_s) {
  return try_spend("active_tx", costs_.active_tx_watt, duration_s);
}

}  // namespace zeiot::energy
