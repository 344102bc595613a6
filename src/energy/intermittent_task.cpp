#include "energy/intermittent_task.hpp"

#include <algorithm>

namespace zeiot::energy {

namespace {

/// Wall-clock granularity of the execution loop.
constexpr double kTickS = 0.01;

}  // namespace

std::vector<Task> default_context_chain() {
  return {
      {"sense", 20e-6, 0.02},
      {"filter", 50e-6, 0.03},
      {"features", 50e-6, 0.05},
      {"classify", 80e-6, 0.04},
      {"backscatter", 10e-6, 0.01},
  };
}

ChainStats run_chain(IntermittentDevice& device,
                     const std::vector<Task>& chain,
                     const IntermittentRunConfig& cfg, double start_time_s) {
  ZEIOT_CHECK_MSG(!chain.empty(), "empty task chain");
  ZEIOT_CHECK_MSG(cfg.chain_timeout_s > 0.0, "timeout must be > 0");
  ZEIOT_CHECK_MSG(cfg.policy != CheckpointPolicy::EnergyAdaptive,
                  "run_chain has no capacitor reserve for EnergyAdaptive "
                  "checkpointing; use None or EveryUnit");

  ChainStats st;
  std::size_t next_task = 0;        // first not-yet-durable task
  std::size_t volatile_done = 0;    // tasks finished since the last boot
  std::vector<bool> counted(chain.size(), false);
  bool was_on = device.is_on();
  double t = start_time_s;
  const double deadline = start_time_s + cfg.chain_timeout_s;

  while (next_task < chain.size() && t < deadline) {
    device.advance(t);
    const bool on = device.is_on();
    if (!on) {
      if (was_on) {
        // Brown-out: volatile progress evaporates — everything since the
        // last durable checkpoint (or the whole chain without one).
        ++st.power_failures;
        st.tasks_reexecuted += volatile_done;
        if (cfg.policy == CheckpointPolicy::None) {
          next_task = 0;
        } else {
          ZEIOT_CHECK(next_task >= volatile_done);
          next_task -= volatile_done;  // roll back un-committed tasks
        }
        volatile_done = 0;
      }
      was_on = false;
      t += kTickS;
      continue;
    }
    was_on = true;

    const Task& task = chain[next_task];
    if (device.try_spend(task.name, task.power_watt, task.duration_s)) {
      if (!counted[next_task]) {
        st.useful_energy_j += task.energy_j();
        counted[next_task] = true;
      }
      if (cfg.policy == CheckpointPolicy::EveryUnit) {
        // Commit to non-volatile memory; failure to afford the commit
        // leaves the task volatile (it may be lost to the next brown-out).
        const double commit_j = kCheckpointCosts.energy_j(task.state_bytes);
        if (device.try_spend("checkpoint", commit_j,
                             1.0)) {  // energy = power*1s = the commit cost
          st.checkpoint_energy_j += commit_j;
          ++next_task;
          volatile_done = 0;
        } else {
          ++volatile_done;
          ++next_task;  // completed, but only in RAM
        }
      } else {
        ++volatile_done;
        ++next_task;
      }
      t += task.duration_s;
    } else {
      // Not enough charge yet; wait for harvest.
      t += kTickS;
    }
  }

  st.completed = next_task >= chain.size();
  st.completion_time_s = t - start_time_s;
  return st;
}

WorkloadStats run_workload(IntermittentDevice& device,
                           const std::vector<Task>& chain,
                           const IntermittentRunConfig& cfg, double period_s,
                           std::size_t num_chains) {
  ZEIOT_CHECK_MSG(period_s > 0.0, "period must be > 0");
  ZEIOT_CHECK_MSG(num_chains > 0, "need at least one chain");
  WorkloadStats ws;
  double completion_sum = 0.0;
  double cursor = 0.0;  // device time is monotonic across chains
  for (std::size_t k = 0; k < num_chains; ++k) {
    ++ws.chains_attempted;
    const double start = std::max(cursor, static_cast<double>(k) * period_s);
    const auto st = run_chain(device, chain, cfg, start);
    cursor = start + st.completion_time_s;
    if (st.completed) {
      ++ws.chains_completed;
      completion_sum += st.completion_time_s;
    }
    ws.total_reexecutions += static_cast<double>(st.tasks_reexecuted);
    ws.checkpoint_overhead_j += st.checkpoint_energy_j;
  }
  if (ws.chains_completed > 0) {
    ws.mean_completion_s =
        completion_sum / static_cast<double>(ws.chains_completed);
  }
  return ws;
}

}  // namespace zeiot::energy
