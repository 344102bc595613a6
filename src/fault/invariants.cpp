#include "fault/invariants.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace zeiot::fault {

InvariantChecker::InvariantChecker(obs::Observability* obs) : obs_(obs) {}

bool InvariantChecker::check_energy_bounds(double t, std::uint32_t device,
                                           double stored_j, double voltage_v) {
  if (std::isfinite(stored_j) && std::isfinite(voltage_v) && stored_j >= 0.0 &&
      voltage_v >= 0.0) {
    return true;
  }
  std::ostringstream os;
  os << "device " << device << " stored=" << stored_j << " J, voltage="
     << voltage_v << " V";
  record_violation(t, "energy_non_negative", os.str());
  return false;
}

bool InvariantChecker::check_no_dead_sender(const obs::SpanRecorder& record,
                                            const FaultInjector& inj) {
  bool ok = true;
  for (std::size_t i = 0; i < record.size(); ++i) {
    const obs::SpanEvent& e = record.at(i);
    if (e.kind != obs::SpanKind::PacketTx &&
        e.kind != obs::SpanKind::MicroDeepHop) {
      continue;
    }
    if (inj.node_dead(e.t0, e.a)) {
      std::ostringstream os;
      os << obs::span_kind_name(e.kind) << " from dead node " << e.a
         << " at t=" << e.t0;
      record_violation(e.t0, "no_dead_sender", os.str());
      ok = false;
    }
  }
  return ok;
}

bool InvariantChecker::check_unit_cover(
    double t, const std::vector<std::uint32_t>& unit_to_node,
    std::size_t num_nodes, const std::vector<bool>& dead) {
  bool ok = true;
  for (std::size_t u = 0; u < unit_to_node.size(); ++u) {
    const std::uint32_t n = unit_to_node[u];
    if (n >= num_nodes) {
      std::ostringstream os;
      os << "unit " << u << " assigned to out-of-range node " << n;
      record_violation(t, "unit_cover", os.str());
      ok = false;
    } else if (n < dead.size() && dead[n]) {
      std::ostringstream os;
      os << "unit " << u << " assigned to dead node " << n;
      record_violation(t, "unit_cover", os.str());
      ok = false;
    }
  }
  return ok;
}

bool InvariantChecker::check_forward_conservation(double t, double distributed,
                                                  double centralized,
                                                  double tol) {
  if (std::isfinite(distributed) && std::isfinite(centralized) &&
      std::abs(distributed - centralized) <= tol) {
    return true;
  }
  std::ostringstream os;
  os << "distributed=" << distributed << " centralized=" << centralized
     << " tol=" << tol;
  record_violation(t, "forward_conservation", os.str());
  return false;
}

void InvariantChecker::record_violation(double t, const std::string& invariant,
                                        const std::string& detail) {
  violations_.push_back({t, invariant, detail});
  if (obs_ != nullptr) {
    obs_->metrics()
        .counter("fault.invariant.violations", {{"invariant", invariant}})
        .inc();
    obs_->spans().instant(obs::SpanKind::InvariantViolation, t,
                          static_cast<std::uint32_t>(violations_.size()));
  }
}

void InvariantChecker::require_clean() const {
  if (violations_.empty()) return;
  std::ostringstream os;
  os << violations_.size() << " invariant violation(s):";
  constexpr std::size_t kMaxListed = 5;
  for (std::size_t i = 0; i < violations_.size() && i < kMaxListed; ++i) {
    const Violation& v = violations_[i];
    os << "\n  [" << v.invariant << "] t=" << v.t << ": " << v.detail;
  }
  if (violations_.size() > kMaxListed) {
    os << "\n  ... and " << violations_.size() - kMaxListed << " more";
  }
  throw Error(os.str());
}

}  // namespace zeiot::fault
