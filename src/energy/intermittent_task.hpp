// Intermittent task-chain execution — the computing model of batteryless
// devices (paper Sec. III.A: devices that live off harvested energy and
// die whenever the capacitor drains).
//
// A context-recognition device runs a chain of tasks per sensing cycle
// (sense -> extract features -> classify -> backscatter the verdict).  On
// an intermittent device a power failure wipes volatile state: without
// checkpoints the whole chain restarts from the first task; with
// checkpointing, completed tasks persist in non-volatile memory at a
// per-checkpoint energy cost.  This module executes such chains against
// the IntermittentDevice model and reports the classic intermittent-
// computing tradeoff: checkpoint overhead vs re-execution waste.
#pragma once

#include <string>
#include <vector>

#include "energy/device.hpp"

namespace zeiot::energy {

/// One task of the chain.
struct Task {
  std::string name;
  double power_watt = 50e-6;
  double duration_s = 0.01;
  /// Volatile state the task produces; a checkpoint commit writes this many
  /// bytes to NVM.  The default keeps the historical 2 µJ commit cost under
  /// the default CheckpointCosts (0.4 µJ base + 64 B * 25 nJ/B).
  std::size_t state_bytes = 64;

  double energy_j() const { return power_watt * duration_s; }
};

/// The standard context-recognition chain of the paper's devices.
std::vector<Task> default_context_chain();

struct IntermittentRunConfig {
  /// None restarts the chain from task 0 on any brown-out; EveryUnit
  /// commits progress after every task.  EnergyAdaptive is rejected.
  CheckpointPolicy policy = CheckpointPolicy::EveryUnit;
  /// NVM commit cost model; one commit of task `t` charges
  /// `checkpoint.energy_j(t.state_bytes)`.  Shared with netexec so both
  /// intermittent paths price a checkpointed byte identically.
  CheckpointCosts checkpoint{};
  /// Wall-clock granularity of the execution loop.
  double tick_s = 0.01;
  /// Give up after this much wall-clock time per chain.
  double chain_timeout_s = 600.0;
};

struct ChainStats {
  bool completed = false;
  double completion_time_s = 0.0;   // wall clock from chain start
  std::size_t power_failures = 0;   // brown-outs during the chain
  std::size_t tasks_reexecuted = 0; // work lost to restarts
  double checkpoint_energy_j = 0.0;
  double useful_energy_j = 0.0;     // energy of distinct completed tasks
};

/// Executes one chain on `device` starting at `start_time_s` (the device
/// is advanced along the way).  Returns per-chain statistics.
ChainStats run_chain(IntermittentDevice& device, const std::vector<Task>& chain,
                     const IntermittentRunConfig& cfg, double start_time_s);

struct WorkloadStats {
  std::size_t chains_attempted = 0;
  std::size_t chains_completed = 0;
  double mean_completion_s = 0.0;
  double total_reexecutions = 0.0;
  double checkpoint_overhead_j = 0.0;

  double completion_ratio() const {
    return chains_attempted == 0
               ? 0.0
               : static_cast<double>(chains_completed) /
                     static_cast<double>(chains_attempted);
  }
};

/// Runs `num_chains` back-to-back sensing cycles of `period_s` each and
/// aggregates the statistics.
WorkloadStats run_workload(IntermittentDevice& device,
                           const std::vector<Task>& chain,
                           const IntermittentRunConfig& cfg, double period_s,
                           std::size_t num_chains);

}  // namespace zeiot::energy
