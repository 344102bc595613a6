// Cross-subsystem invariant checking over a run's outputs.
//
// Fault injection is only trustworthy when the system under test stays
// physically sensible while being broken: energy stores must never go
// negative, dead nodes must never source traffic, and the distributed CNN
// must keep every unit assigned exactly once no matter which nodes died.
// The `InvariantChecker` collects those assertions behind one interface:
// each check takes plain data (a span record, an assignment, two values),
// so the fault library depends on nothing above obs/sim.  A caller runs
// the checks on a finished run's data, not per kernel event.  Violations
// are accumulated (not thrown) so a chaos sweep can report every breakage
// of a run; `require_clean()` escalates to an exception for tests and CI.
#pragma once

#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/obs.hpp"

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

  // -- Cross-subsystem checks (record a violation, return ok) --------------

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

  /// Throws zeiot::Error describing the first violation (all are listed in
  /// the message up to a small cap) unless clean.
  void require_clean() const;

 private:
  void record_violation(double t, const std::string& invariant,
                        const std::string& detail);

  obs::Observability* obs_;
  std::vector<Violation> violations_;
};

}  // namespace zeiot::fault
