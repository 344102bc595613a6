// Zero-energy IoT device model: harvester + capacitor + hysteresis switch +
// a ledger of per-activity energy costs.
//
// The cost table defaults reflect the paper's Sec. I numbers: active radio
// ~tens of mW, BLE ~mW, ambient backscatter ~10 µW ("about 1/10,000").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "energy/harvester.hpp"
#include "energy/storage.hpp"
#include "obs/obs.hpp"

namespace zeiot::energy {

/// Per-activity power draw table (watts) and helpers to convert to energy.
struct ActivityCosts {
  double sense_watt = 20e-6;          // tens of µW (paper Sec. I)
  double compute_watt = 50e-6;        // MCU active, low clock
  double backscatter_tx_watt = 10e-6; // ~10 µW (paper Sec. I)
  double active_tx_watt = 50e-3;      // conventional radio, tens of mW
  double ble_tx_watt = 5e-3;          // order of mW
  double rx_watt = 2e-3;              // receive/listen
  double sleep_watt = 0.5e-6;         // deep sleep leakage
};

/// When an intermittent executor commits progress to non-volatile memory.
/// One policy enum for both intermittent paths: the single-device task
/// chains (`intermittent_task`) and the distributed executor (`netexec`).
enum class CheckpointPolicy : std::uint8_t {
  /// Volatile only: a brown-out wipes all progress.
  None,
  /// Commit after every unit of work: each chain task (run_chain); each
  /// computed unit layer, plus every sensed input (netexec).
  EveryUnit,
  /// netexec only (run_chain has no capacitor reserve and rejects it):
  /// commit sensed inputs and the inbox always (they are unrecoverable),
  /// but compute outputs only while the capacitor is low — when energy is
  /// plentiful, re-execution is cheaper than the write burst.
  EnergyAdaptive,
};

/// "none", "every_unit" or "adaptive" (report labels and metric keys).
const char* checkpoint_policy_name(CheckpointPolicy policy);

/// Cost model for committing state to non-volatile memory (FRAM-class).
/// Shared by the single-device task chains (`intermittent_task`) and the
/// distributed executor's per-unit checkpoints (`netexec`) so both paths
/// charge the same joules per checkpointed byte.
struct CheckpointCosts {
  double base_j = 0.4e-6;           // fixed commit overhead (controller wake)
  double write_j_per_byte = 25e-9;  // FRAM write energy per byte
  double write_s_per_byte = 2e-7;   // commit bandwidth (~5 MB/s)

  double energy_j(std::size_t bytes) const {
    return base_j + write_j_per_byte * static_cast<double>(bytes);
  }
  double duration_s(std::size_t bytes) const {
    return write_s_per_byte * static_cast<double>(bytes);
  }
};

/// Cumulative per-activity energy bookkeeping.
class EnergyLedger {
 public:
  void record(const std::string& activity, double joules);
  double total_joule() const;
  double of(const std::string& activity) const;
  const std::map<std::string, double>& entries() const { return entries_; }

 private:
  std::map<std::string, double> entries_;
};

/// A batteryless device operating intermittently off harvested energy.
///
/// Usage: advance time with `advance(t)`, then attempt activities with
/// `try_spend(...)`.  Activities fail (return false) when the device is OFF
/// or the capacitor cannot supply the energy — the caller models the lost
/// sensing/communication opportunity.
class IntermittentDevice {
 public:
  IntermittentDevice(std::unique_ptr<Harvester> harvester, Capacitor cap,
                     HysteresisSwitch sw, ActivityCosts costs = {});

  /// Installs an observability context (or clears it with nullptr).
  /// `device_id` labels this device's metrics and instant spans so one
  /// registry can hold a whole fleet.  Emits:
  ///   energy.harvested_j{device=N}            (counter)
  ///   energy.activity_j{device=N,activity=A}  (counters)
  ///   energy.boots{device=N} / energy.brownouts{device=N}
  /// plus EnergyBoot / EnergyBrownout instant spans (a = device id,
  /// value = capacitor voltage at the transition) when the context records
  /// spans.
  void set_observability(obs::Observability* obs, std::uint32_t device_id = 0);

  /// Integrates harvesting (and sleep leakage while ON) up to time `t`
  /// (must be >= the previous call).  Updates the ON/OFF state.
  void advance(double t_seconds);

  /// Attempts to run `activity` drawing `power_watt` for `duration_s`.
  /// Returns true and debits the capacitor on success.
  bool try_spend(const std::string& activity, double power_watt,
                 double duration_s);

  /// Convenience wrappers using the cost table.
  bool try_sense(double duration_s);
  bool try_backscatter(double duration_s);
  bool try_active_tx(double duration_s);

  bool is_on() const { return switch_.is_on(); }
  double voltage() const { return cap_.voltage(); }
  double stored_joule() const { return cap_.energy_joule(); }
  const EnergyLedger& ledger() const { return ledger_; }
  const ActivityCosts& costs() const { return costs_; }
  /// Number of OFF->ON transitions observed (power-failure reboots).
  std::size_t boot_count() const { return boots_; }

 private:
  std::unique_ptr<Harvester> harvester_;
  Capacitor cap_;
  HysteresisSwitch switch_;
  ActivityCosts costs_;
  EnergyLedger ledger_;
  double last_t_ = 0.0;
  std::size_t boots_ = 0;
  obs::Observability* obs_ = nullptr;
  std::uint32_t device_id_ = 0;
  // Handles resolved once per set_observability so advance()'s inner loop
  // does not rebuild label keys every 50 ms step.
  obs::Counter* harvested_ctr_ = nullptr;
  obs::Counter* boots_ctr_ = nullptr;
  obs::Counter* brownouts_ctr_ = nullptr;
};

}  // namespace zeiot::energy
