// Assignment search: evaluate a portfolio of unit-to-node assignments
// (geometric, balance-and-drain at several slack levels, jittered random
// restarts) and keep the one with the lowest peak per-node communication
// cost — the quantity the paper's Fig. 10 minimizes.  A restart moves each
// unit's seed node to a random WSN neighbour with probability 0.3.
//
// The search is deterministically parallel: candidates are generated in a
// fixed order with per-candidate RNG substreams keyed by candidate index
// (par::substream), evaluated concurrently, and the winner is chosen by
// (max_cost, candidate index) so the result is bit-identical at any worker
// count.  Expensive shared state is computed once and reused by every
// candidate: the WSN's BFS routing tables are already memoized inside
// WsnTopology, and the geometric unit->nearest-node seed map is built a
// single time up front instead of per candidate.
#pragma once

#include <string>
#include <vector>

#include "microdeep/comm_cost.hpp"

namespace zeiot::par {
class ThreadPool;
}

namespace zeiot::microdeep {

struct AssignmentSearchOptions {
  /// Candidate 0 is the plain geometric (nearest) assignment; then come
  /// balance-and-drain heuristic candidates at slack 0..3, and then these
  /// jittered-seed heuristic restarts.
  int random_restarts = 8;
  /// Worker pool (null = par::global_pool(), honours ZEIOT_THREADS).
  par::ThreadPool* pool = nullptr;
  /// Abandon a candidate as soon as its running max per-node cost exceeds
  /// the best complete score seen so far.  Candidates are evaluated in
  /// fixed-size waves with the incumbent bound frozen per wave, so which
  /// candidates abort — and every reported score — is independent of the
  /// worker count.  The winner can never abort: its running max is bounded
  /// by its final cost, which is at most the incumbent.
  bool early_exit = true;
};

/// Score of one evaluated candidate, in candidate order.
struct AssignmentCandidateScore {
  std::string label;
  double max_cost = 0.0;
  double mean_cost = 0.0;
  /// True when early exit abandoned this candidate; max_cost/mean_cost are
  /// then +infinity (the candidate was already worse than the incumbent).
  bool aborted = false;
};

struct AssignmentSearchResult {
  Assignment best;
  std::size_t best_index = 0;
  double best_max_cost = 0.0;
  double best_mean_cost = 0.0;
  /// All candidate scores in generation order (independent of thread count).
  std::vector<AssignmentCandidateScore> candidates;
};

/// Runs the portfolio search.  When `obs` is non-null, publishes
/// microdeep.search.{candidates,best_index,best_max_cost} gauges.
AssignmentSearchResult search_assignment(
    const UnitGraph& graph, const WsnTopology& wsn,
    const AssignmentSearchOptions& opts = {},
    obs::Observability* obs = nullptr);

}  // namespace zeiot::microdeep
