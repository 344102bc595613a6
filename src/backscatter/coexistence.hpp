// Event-driven coexistence simulator: IEEE 802.11 WLAN traffic and ambient
// backscatter IoT devices sharing one channel through a full-duplex AP
// (paper Sec. IV.A, Fig. 4, and the MAC protocol of ref [64]).
//
// Two MAC modes are compared:
//  * Proposed — the cycle-registration MAC: the AP grants exactly one
//    device per carrier opportunity, EDF over the pending frames (the AP
//    takes each frame's deadline from its device's cycle), rides WLAN
//    packets when available, extends/injects dummy carrier packets when
//    WLAN traffic alone cannot meet a deadline.  Full-duplex
//    self-interference cancellation keeps WLAN corruption negligible.
//  * Naive — uncoordinated: every device with a pending frame backscatters
//    on any passing WLAN packet with some persistence probability;
//    simultaneous tags collide, modulation corrupts the carrier WLAN
//    packet, and frames needing more airtime than one WLAN packet must
//    catch follow-up packets before a gap timeout.
#pragma once

#include <memory>
#include <queue>

#include "backscatter/bmac.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "mac/channel.hpp"
#include "obs/sim_probe.hpp"
#include "sim/simulator.hpp"

namespace zeiot::backscatter {

enum class MacMode { Proposed, Naive };

struct CoexistenceConfig {
  MacMode mode = MacMode::Proposed;
  double duration_s = 60.0;
  /// Offered WLAN load: Poisson packet arrivals.
  double wlan_rate_hz = 200.0;
  std::size_t wlan_payload_bytes = 1500;
  /// IoT devices: all share this acquisition cycle and send 8-byte
  /// frames.  The naive MAC's persistence, gap tolerance and corruption
  /// and the proposed MAC's residual corruption are fixed in
  /// coexistence.cpp.
  std::size_t num_devices = 8;
  double device_period_s = 1.0;
  /// Noise-floor error probability of a granted backscatter frame.
  double backscatter_noise_per = 0.02;
  std::uint64_t seed = 7;
};

struct CoexistenceMetrics {
  // Backscatter side.
  std::size_t frames_generated = 0;
  std::size_t frames_delivered = 0;
  std::size_t frames_expired = 0;
  std::size_t frames_collided = 0;
  // Injected-fault outcomes (zero without an injector).
  std::size_t frames_suppressed = 0;  // cycles skipped: device was dead
  std::size_t frames_faulted = 0;     // clean deliveries lost to drop,
                                      // corrupt, or a tag dead at the
                                      // window's close
  double mean_latency_s = 0.0;  // ready -> delivered, delivered frames only
  // WLAN side.
  std::size_t wlan_offered = 0;    // packet arrivals
  std::size_t wlan_attempts = 0;   // transmissions (arrivals + retries)
  std::size_t wlan_delivered = 0;
  std::size_t wlan_corrupted = 0;
  double wlan_goodput_bps = 0.0;
  // Channel.
  double utilization = 0.0;
  double dummy_airtime_fraction = 0.0;

  double delivery_ratio() const {
    return frames_generated == 0
               ? 0.0
               : static_cast<double>(frames_delivered) /
                     static_cast<double>(frames_generated);
  }
  /// Fraction of WLAN transmission attempts corrupted by tag modulation.
  double wlan_error_rate() const {
    return wlan_attempts == 0 ? 0.0
                              : static_cast<double>(wlan_corrupted) /
                                    static_cast<double>(wlan_attempts);
  }
};

class CoexistenceSimulator {
 public:
  explicit CoexistenceSimulator(CoexistenceConfig cfg);

  /// Installs an observability context (or clears it with nullptr).  The
  /// internal event kernel gets a SimulatorProbe (whose last SimStep span
  /// `run()` closes at the scenario horizon), backscatter scheduling
  /// decisions record window-open/close and dummy-carrier instants, and
  /// `run()` publishes the coexistence counters/gauges labeled with the
  /// MAC mode.  Must be called before `run()`.
  void set_observability(obs::Observability* obs);

  /// Installs (or clears) a fault injector.  Dead devices skip their
  /// acquisition cycles (frames_suppressed), successful backscatter
  /// deliveries can be dropped or corrupted in flight, or lost because
  /// their tag died before its window closed (frames_faulted),
  /// and WLAN packets can be corrupted by infrastructure-side windows.
  /// The injector's plan is armed on the event kernel at `run()` so fault
  /// transitions appear in the record at their exact simulation time.
  /// Must be called before `run()`; the injector must outlive it.
  void set_fault_injector(fault::FaultInjector* fault);

  /// Runs the full scenario and returns the metrics.
  CoexistenceMetrics run();

  /// Read-only view of the medium occupancy log (valid after run()) —
  /// the MAC property tests audit grant exclusivity, carrier coverage,
  /// and dummy/WLAN separation from these intervals.
  const mac::Channel& channel() const { return channel_; }

 private:
  struct DeviceState {
    DeviceId id = 0;
    // Naive mode per-frame progress.
    bool has_frame = false;
    double ready_at = 0.0;
    double deadline = 0.0;
    double remaining_airtime_s = 0.0;
    double last_carrier_end = -1.0;
  };

  void schedule_wlan_arrival();
  void schedule_device_cycle(std::size_t dev_index, double at);
  void try_start_wlan();
  /// Returns true if a backscatter grant rode this carrier.
  bool proposed_on_carrier(double start, double carrier_airtime);
  void proposed_check_deadlines();
  void naive_on_carrier(double start, double carrier_airtime);
  /// Consults the injector (if any) about an in-flight backscatter frame.
  bool frame_faulted(double t, DeviceId dev);

  CoexistenceConfig cfg_;
  sim::Simulator sim_;
  Rng rng_;
  mac::Channel channel_;
  CycleScheduler scheduler_;  // proposed mode
  std::vector<DeviceState> devices_;
  // WLAN queue: payload sizes awaiting the channel.
  std::queue<std::pair<std::size_t, bool>> wlan_queue_;  // (bytes, is_retry)
  double channel_free_at_ = 0.0;
  bool last_carrier_corrupted_ = false;
  CoexistenceMetrics metrics_;
  double latency_sum_ = 0.0;
  double dummy_airtime_ = 0.0;
  obs::Observability* obs_ = nullptr;
  std::unique_ptr<obs::SimulatorProbe> probe_;
  fault::FaultInjector* fault_ = nullptr;
  std::unique_ptr<fault::FaultDriver> fault_driver_;
};

}  // namespace zeiot::backscatter
