#include "backscatter/coexistence.hpp"

#include <algorithm>
#include <cmath>

namespace zeiot::backscatter {

CoexistenceSimulator::CoexistenceSimulator(CoexistenceConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  ZEIOT_CHECK_MSG(cfg.duration_s > 0.0, "duration must be > 0");
  ZEIOT_CHECK_MSG(cfg.wlan_rate_hz >= 0.0, "wlan rate must be >= 0");
  ZEIOT_CHECK_MSG(cfg.num_devices > 0, "need at least one device");
  ZEIOT_CHECK_MSG(cfg.device_period_s > 0.0, "device period must be > 0");
  ZEIOT_CHECK_MSG(cfg.naive_persistence > 0.0 && cfg.naive_persistence <= 1.0,
                  "persistence in (0,1]");
  for (std::size_t i = 0; i < cfg.num_devices; ++i) {
    DeviceState d;
    d.id = static_cast<DeviceId>(i);
    d.period_s = cfg.device_period_s;
    d.frame_bytes = cfg.device_frame_bytes;
    devices_.push_back(d);
    scheduler_.register_device(
        {d.id, d.period_s, d.frame_bytes});
  }
}

double CoexistenceSimulator::backscatter_airtime(std::size_t bytes) const {
  return bs_phy_.frame_airtime_s(bytes);
}

void CoexistenceSimulator::set_fault_injector(fault::FaultInjector* fault) {
  fault_ = fault;
  fault_driver_.reset();
  if (fault_ != nullptr) {
    fault_driver_ = std::make_unique<fault::FaultDriver>(sim_, *fault_);
  }
}

bool CoexistenceSimulator::frame_faulted(double t, DeviceId dev) {
  if (fault_ == nullptr) return false;
  // A tag that died after registering its frame cannot backscatter it, but
  // the AP, which cannot know, still granted the window.  The death check
  // comes last and draws nothing, so the injector's draws are as before.
  if (fault_->should_drop(t, dev, fault::kInfrastructure) ||
      fault_->should_corrupt(t, dev, fault::kInfrastructure) ||
      fault_->node_dead(t, dev)) {
    ++metrics_.frames_faulted;
    return true;
  }
  return false;
}

void CoexistenceSimulator::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ != nullptr) {
    probe_ = std::make_unique<obs::SimulatorProbe>(*obs_);
    sim_.set_observer(probe_.get());
  } else {
    sim_.set_observer(nullptr);
    probe_.reset();
  }
}

void CoexistenceSimulator::schedule_wlan_arrival() {
  if (cfg_.wlan_rate_hz <= 0.0) return;
  const double dt = rng_.exponential(cfg_.wlan_rate_hz);
  const double t = sim_.now() + dt;
  if (t > cfg_.duration_s) return;
  sim_.schedule(dt, [this] {
    ++metrics_.wlan_offered;
    wlan_queue_.emplace(cfg_.wlan_payload_bytes, false);
    try_start_wlan();
    schedule_wlan_arrival();
  });
}

void CoexistenceSimulator::schedule_device_cycle(std::size_t dev_index,
                                                 double at) {
  if (at > cfg_.duration_s) return;
  sim_.schedule_at(at, [this, dev_index] {
    DeviceState& d = devices_[dev_index];
    const double now = sim_.now();
    if (fault_ != nullptr && fault_->node_dead(now, d.id)) {
      // A dead tag neither harvests nor registers this cycle.
      ++metrics_.frames_suppressed;
      schedule_device_cycle(dev_index, now + d.period_s);
      return;
    }
    ++metrics_.frames_generated;
    if (cfg_.mode == MacMode::Proposed) {
      scheduler_.enqueue({d.id, now, now + d.period_s});
      // Deadline guard: if WLAN traffic does not offer a carrier in time,
      // the AP injects a dummy carrier shortly before the deadline.
      const double tb = backscatter_airtime(d.frame_bytes);
      const double guard_at = std::max(now, now + d.period_s - 2.0 * tb);
      sim_.schedule_at(guard_at, [this] { proposed_check_deadlines(); });
    } else {
      if (d.has_frame) {
        // Previous frame missed its cycle.
        ++metrics_.frames_expired;
      }
      d.has_frame = true;
      d.ready_at = now;
      d.deadline = now + d.period_s;
      d.remaining_airtime_s = backscatter_airtime(d.frame_bytes);
      d.last_carrier_end = -1.0;
    }
    schedule_device_cycle(dev_index, now + d.period_s);
  });
}

void CoexistenceSimulator::try_start_wlan() {
  const double now = sim_.now();
  if (now < channel_free_at_ || wlan_queue_.empty()) return;
  auto [bytes, is_retry] = wlan_queue_.front();
  wlan_queue_.pop();
  ++metrics_.wlan_attempts;
  const double airtime = wlan_phy_.exchange_airtime_s(bytes);
  channel_free_at_ = now + airtime;
  channel_.add(now, airtime, 0, mac::Medium::Wlan);

  bool corrupted;
  if (cfg_.mode == MacMode::Proposed) {
    const bool rode = proposed_on_carrier(now, airtime);
    corrupted = rode && rng_.bernoulli(cfg_.proposed_corruption);
  } else {
    naive_on_carrier(now, airtime);
    corrupted = last_carrier_corrupted_;
  }
  if (fault_ != nullptr && !corrupted &&
      fault_->should_corrupt(now, fault::kInfrastructure,
                             fault::kInfrastructure)) {
    corrupted = true;  // injected interference on the WLAN exchange
  }

  const bool retry = is_retry;
  sim_.schedule_at(channel_free_at_, [this, corrupted, retry, bytes] {
    if (corrupted) {
      ++metrics_.wlan_corrupted;
      if (!retry) {
        wlan_queue_.emplace(bytes, true);  // one retransmission attempt
      }
    } else {
      ++metrics_.wlan_delivered;
    }
    try_start_wlan();
  });
}

bool CoexistenceSimulator::proposed_on_carrier(double start,
                                               double carrier_airtime) {
  std::size_t expired = 0;
  metrics_.frames_expired += scheduler_.drop_expired(start);
  // The AP can extend the carrier with a dummy tail, so a grant only needs
  // the deadline to accommodate the full backscatter frame from now.
  const double tb = backscatter_airtime(cfg_.device_frame_bytes);
  auto f = scheduler_.pop_earliest_deadline(start, tb, expired);
  metrics_.frames_expired += expired;
  if (!f.has_value()) return false;
  channel_.add(start, tb, f->device + 1, mac::Medium::Backscatter);
  if (obs_ != nullptr) {
    obs_->spans().instant(obs::SpanKind::BackscatterWindowOpen, start,
                          f->device, 0, tb);
    obs_->spans().instant(obs::SpanKind::BackscatterWindowClose, start + tb,
                          f->device);
  }
  if (tb > carrier_airtime) {
    // Extend the carrier with a dummy tail so the tag finishes its frame.
    const double extension = tb - carrier_airtime;
    channel_.add(channel_free_at_, extension, 0, mac::Medium::Dummy);
    if (obs_ != nullptr) {
      obs_->metrics().counter("backscatter.dummy.injections").inc();
      obs_->spans().instant(obs::SpanKind::DummyCarrierInjected,
                            channel_free_at_, f->device, 0, extension);
    }
    channel_free_at_ += extension;
    dummy_airtime_ += extension;
  }
  if (!rng_.bernoulli(1.0 - cfg_.backscatter_noise_per)) {
    ++metrics_.frames_collided;  // noise loss (counted as link failure)
  } else if (!frame_faulted(start + tb, f->device)) {
    ++metrics_.frames_delivered;
    const double latency = start + tb - f->ready_at;
    latency_sum_ += latency;
    if (obs_ != nullptr) {
      obs_->metrics()
          .histogram("backscatter.latency_s", 0.0, cfg_.device_period_s, 50)
          .observe(latency);
    }
  }
  return true;
}

void CoexistenceSimulator::proposed_check_deadlines() {
  const double now = sim_.now();
  metrics_.frames_expired += scheduler_.drop_expired(now);
  if (!scheduler_.has_pending()) return;
  const double tb = backscatter_airtime(cfg_.device_frame_bytes);
  // Only act when the earliest deadline is actually at risk.
  if (scheduler_.next_deadline() - now > 4.0 * tb) return;
  if (now < channel_free_at_) {
    // Channel busy: re-check as soon as it frees.
    sim_.schedule_at(channel_free_at_, [this] { proposed_check_deadlines(); });
    return;
  }
  std::size_t expired = 0;
  auto f = scheduler_.pop_earliest_deadline(now, tb, expired);
  metrics_.frames_expired += expired;
  if (!f.has_value()) return;
  // Dedicated dummy carrier for this frame.
  channel_free_at_ = now + tb;
  channel_.add(now, tb, 0, mac::Medium::Dummy);
  dummy_airtime_ += tb;
  channel_.add(now, tb, f->device + 1, mac::Medium::Backscatter);
  if (obs_ != nullptr) {
    obs_->metrics().counter("backscatter.dummy.injections").inc();
    obs_->spans().instant(obs::SpanKind::DummyCarrierInjected, now,
                          f->device, 0, tb);
    obs_->spans().instant(obs::SpanKind::BackscatterWindowOpen, now,
                          f->device, 0, tb);
    obs_->spans().instant(obs::SpanKind::BackscatterWindowClose,
                          channel_free_at_, f->device);
  }
  const PendingFrame frame = *f;
  sim_.schedule_at(channel_free_at_, [this, frame, tb] {
    if (!rng_.bernoulli(1.0 - cfg_.backscatter_noise_per)) {
      ++metrics_.frames_collided;
    } else if (!frame_faulted(sim_.now(), frame.device)) {
      ++metrics_.frames_delivered;
      const double latency = sim_.now() - frame.ready_at;
      latency_sum_ += latency;
      if (obs_ != nullptr) {
        obs_->metrics()
            .histogram("backscatter.latency_s", 0.0, cfg_.device_period_s, 50)
            .observe(latency);
      }
    }
    try_start_wlan();
  });
}

void CoexistenceSimulator::naive_on_carrier(double start,
                                            double carrier_airtime) {
  last_carrier_corrupted_ = false;
  std::vector<std::size_t> riders;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    DeviceState& d = devices_[i];
    if (!d.has_frame) continue;
    if (start >= d.deadline) {
      d.has_frame = false;
      ++metrics_.frames_expired;
      continue;
    }
    if (rng_.bernoulli(cfg_.naive_persistence)) riders.push_back(i);
  }
  if (riders.empty()) return;
  // Tag modulation appears as interference to the WLAN receiver.
  const double corrupt_p =
      1.0 - std::pow(1.0 - cfg_.naive_corruption_per_tag,
                     static_cast<double>(riders.size()));
  last_carrier_corrupted_ = rng_.bernoulli(corrupt_p);

  if (riders.size() > 1) {
    // Tags cannot hear each other: simultaneous backscatter collides and
    // the in-flight frames must start over.
    if (obs_ != nullptr) {
      obs_->spans().instant(obs::SpanKind::PacketCollision, start,
                            static_cast<std::uint32_t>(riders.size()));
    }
    for (std::size_t i : riders) {
      DeviceState& d = devices_[i];
      d.remaining_airtime_s = backscatter_airtime(d.frame_bytes);
      d.last_carrier_end = start + carrier_airtime;
      ++metrics_.frames_collided;
    }
    return;
  }

  DeviceState& d = devices_[riders.front()];
  // A long carrier gap loses the partial frame.
  if (d.last_carrier_end >= 0.0 &&
      start - d.last_carrier_end > cfg_.naive_gap_tolerance_s &&
      d.remaining_airtime_s < backscatter_airtime(d.frame_bytes)) {
    d.remaining_airtime_s = backscatter_airtime(d.frame_bytes);
  }
  channel_.add(start, carrier_airtime, d.id + 1, mac::Medium::Backscatter);
  if (obs_ != nullptr) {
    obs_->spans().instant(obs::SpanKind::BackscatterWindowOpen, start, d.id,
                          0, carrier_airtime);
    obs_->spans().instant(obs::SpanKind::BackscatterWindowClose,
                          start + carrier_airtime, d.id);
  }
  d.remaining_airtime_s -= carrier_airtime;
  d.last_carrier_end = start + carrier_airtime;
  if (d.remaining_airtime_s <= 0.0) {
    const double finish = start + carrier_airtime + d.remaining_airtime_s;
    d.has_frame = false;
    if (finish > d.deadline) {
      ++metrics_.frames_expired;
    } else if (!rng_.bernoulli(1.0 - cfg_.backscatter_noise_per)) {
      ++metrics_.frames_collided;  // noise loss
    } else if (!frame_faulted(finish, d.id)) {
      ++metrics_.frames_delivered;
      const double latency = finish - d.ready_at;
      latency_sum_ += latency;
      if (obs_ != nullptr) {
        obs_->metrics()
            .histogram("backscatter.latency_s", 0.0, cfg_.device_period_s, 50)
            .observe(latency);
      }
    }
  }
}

CoexistenceMetrics CoexistenceSimulator::run() {
  if (fault_driver_ != nullptr) fault_driver_->arm();
  schedule_wlan_arrival();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    // Stagger cycle phases uniformly.
    schedule_device_cycle(i, rng_.uniform(0.0, devices_[i].period_s));
  }
  sim_.run();
  if (probe_ != nullptr) probe_->flush_steps(cfg_.duration_s);

  if (metrics_.frames_delivered > 0) {
    metrics_.mean_latency_s =
        latency_sum_ / static_cast<double>(metrics_.frames_delivered);
  }
  metrics_.wlan_goodput_bps =
      static_cast<double>(metrics_.wlan_delivered) *
      static_cast<double>(cfg_.wlan_payload_bytes) * 8.0 / cfg_.duration_s;
  metrics_.utilization = channel_.utilization(cfg_.duration_s);
  metrics_.dummy_airtime_fraction = dummy_airtime_ / cfg_.duration_s;

  if (obs_ != nullptr) {
    const obs::Labels mode{
        {"mac", cfg_.mode == MacMode::Proposed ? "proposed" : "naive"}};
    auto& m = obs_->metrics();
    m.counter("backscatter.frames.generated", mode)
        .inc(static_cast<double>(metrics_.frames_generated));
    m.counter("backscatter.frames.delivered", mode)
        .inc(static_cast<double>(metrics_.frames_delivered));
    m.counter("backscatter.frames.expired", mode)
        .inc(static_cast<double>(metrics_.frames_expired));
    m.counter("backscatter.frames.collided", mode)
        .inc(static_cast<double>(metrics_.frames_collided));
    m.counter("backscatter.wlan.attempts", mode)
        .inc(static_cast<double>(metrics_.wlan_attempts));
    m.counter("backscatter.wlan.corrupted", mode)
        .inc(static_cast<double>(metrics_.wlan_corrupted));
    if (fault_ != nullptr) {
      m.counter("backscatter.frames.suppressed", mode)
          .inc(static_cast<double>(metrics_.frames_suppressed));
      m.counter("backscatter.frames.faulted", mode)
          .inc(static_cast<double>(metrics_.frames_faulted));
    }
    m.counter("backscatter.dummy.airtime_s").inc(dummy_airtime_);
    m.gauge("backscatter.delivery_ratio", mode)
        .set(metrics_.delivery_ratio());
    m.gauge("backscatter.wlan.error_rate", mode)
        .set(metrics_.wlan_error_rate());
    m.gauge("backscatter.channel.utilization", mode)
        .set(metrics_.utilization);
    m.gauge("backscatter.dummy.airtime_fraction", mode)
        .set(metrics_.dummy_airtime_fraction);
  }
  return metrics_;
}

}  // namespace zeiot::backscatter
