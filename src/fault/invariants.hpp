// Cross-subsystem invariant checking at simulation-step boundaries.
//
// Fault injection is only trustworthy when the system under test stays
// physically sensible while being broken: energy stores must never go
// negative, dead nodes must never source traffic, and the distributed CNN
// must keep every unit assigned exactly once no matter which nodes died.
// The `InvariantChecker` collects those assertions behind one interface:
// built-in checks take plain data (so the fault library depends on nothing
// above obs/sim), callers register custom predicates, and
// `attach_to_simulator` runs the registered set at event boundaries via the
// kernel's post-step hook.  Violations are accumulated (not thrown) so a
// chaos sweep can report every breakage of a run; `require_clean()`
// escalates to an exception for tests and CI.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace zeiot::fault {

struct Violation {
  double t = 0.0;
  std::string invariant;
  std::string detail;
};

class InvariantChecker {
 public:
  /// Violations emit fault.invariant.violations{invariant=...} counters and
  /// InvariantViolation instant spans when `obs` is non-null.
  explicit InvariantChecker(obs::Observability* obs = nullptr);

  /// Registers a named predicate run by `run(t)`.  The predicate returns a
  /// violation description, or nullopt when the invariant holds.
  void add_check(std::string name,
                 std::function<std::optional<std::string>(double t)> check);

  /// Runs every registered predicate at time `t`; returns the number of
  /// new violations.
  std::size_t run(double t);

  /// Runs the registered predicates after every `stride`-th executed kernel
  /// event via the kernel's post-step hook, chaining any hook already
  /// installed (the observer/metrics probe is untouched).  The checker must
  /// outlive the simulator run.
  void attach_to_simulator(sim::Simulator& sim, std::size_t stride = 1);

  // -- Built-in cross-subsystem checks (record a violation, return ok) -----

  /// Energy sanity: stored energy and voltage must be finite and >= 0.
  bool check_energy_bounds(double t, std::uint32_t device, double stored_j,
                           double voltage_v);

  /// No traffic-sourcing instant (PacketTx, MicroDeepHop) in `record` may
  /// have been recorded while its source was dead under `inj`'s plan.
  bool check_no_dead_sender(const obs::SpanRecorder& record,
                            const FaultInjector& inj);

  /// Assignment cover under dropout: every unit mapped to exactly one node,
  /// that node in range, and not dead.  `unit_to_node[u]` is the hosting
  /// node of unit `u`; `dead` may be empty (no failures).
  bool check_unit_cover(double t,
                        const std::vector<std::uint32_t>& unit_to_node,
                        std::size_t num_nodes, const std::vector<bool>& dead);

  /// Forward/backward conservation: the distributed execution value must
  /// match the centralized reference within `tol` (use 0 faults => exact
  /// dataflow equivalence; under dropout both sides must agree on the same
  /// masked inputs).
  bool check_forward_conservation(double t, double distributed,
                                  double centralized, double tol);

  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::size_t checks_run() const { return checks_run_; }

  /// Throws zeiot::Error describing the first violation (all are listed in
  /// the message up to a small cap) unless clean.
  void require_clean() const;

 private:
  void record_violation(double t, const std::string& invariant,
                        const std::string& detail);

  struct Named {
    std::string name;
    std::function<std::optional<std::string>(double)> fn;
  };

  obs::Observability* obs_;
  std::vector<Named> checks_;
  std::vector<Violation> violations_;
  std::size_t checks_run_ = 0;
};

}  // namespace zeiot::fault
