#include "microdeep/search.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "par/parallel.hpp"

namespace zeiot::microdeep {

namespace {

/// Probability that a restart seed moves a unit from its nearest node to a
/// uniformly chosen WSN neighbour of that node.
constexpr double kJitterProbability = 0.3;

/// One entry in the fixed candidate schedule.
struct CandidateSpec {
  std::string label;
  int slack = 0;        // balance slack for the heuristic
  bool nearest = false; // plain geometric assignment, no draining
  bool jitter = false;  // perturb the seed map with this candidate's stream
};

std::vector<CandidateSpec> make_schedule(const AssignmentSearchOptions& opts) {
  std::vector<CandidateSpec> specs;
  specs.push_back({"nearest", 0, /*nearest=*/true, /*jitter=*/false});
  for (int s = 0; s <= opts.max_balance_slack; ++s) {
    specs.push_back({"heuristic/slack=" + std::to_string(s), s,
                     /*nearest=*/false, /*jitter=*/false});
  }
  for (int r = 0; r < opts.random_restarts; ++r) {
    // Restarts cycle through the slack levels so the jittered seeds explore
    // the same knob range as the deterministic sweep.
    const int s = opts.max_balance_slack > 0 ? r % (opts.max_balance_slack + 1)
                                             : 0;
    specs.push_back({"restart/" + std::to_string(r) +
                         "/slack=" + std::to_string(s),
                     s, /*nearest=*/false, /*jitter=*/true});
  }
  return specs;
}

}  // namespace

AssignmentSearchResult search_assignment(const UnitGraph& graph,
                                         const WsnTopology& wsn,
                                         const AssignmentSearchOptions& opts,
                                         obs::Observability* obs) {
  ZEIOT_CHECK_MSG(opts.max_balance_slack >= 0,
                  "max_balance_slack must be >= 0");
  ZEIOT_CHECK_MSG(opts.random_restarts >= 0, "random_restarts must be >= 0");
  const auto specs = make_schedule(opts);

  // Shared read-only state, computed once: the geometric seed map (every
  // candidate starts from it) and the WSN routing tables (memoized in
  // WsnTopology at construction — compute_comm_cost only does table
  // lookups, so concurrent scoring never re-runs BFS).
  const std::vector<NodeId> base_seed = nearest_seed_map(graph, wsn);
  const Rng base_rng(opts.seed);

  struct Scored {
    Assignment assignment;
    std::optional<CommCostReport> report;  // nullopt = abandoned
  };
  std::vector<std::optional<Scored>> scored(specs.size());

  // Candidates are evaluated in fixed-size waves.  The early-exit bound is
  // the best complete score of all PREVIOUS waves, frozen for the wave's
  // duration — a racy shared incumbent would make abort decisions (and the
  // recorded scores) depend on evaluation timing, i.e. the worker count.
  // The true winner never aborts: while it is being scored its running max
  // never exceeds its final cost, which is <= every earlier incumbent.
  constexpr std::size_t kWaveSize = 8;
  const double kInf = std::numeric_limits<double>::infinity();
  double incumbent = kInf;
  for (std::size_t wave = 0; wave < specs.size(); wave += kWaveSize) {
    const std::size_t wave_end = std::min(specs.size(), wave + kWaveSize);
    const double bound = opts.early_exit ? incumbent : kInf;
    par::parallel_for(
        wave_end - wave,
        [&](std::size_t w) {
          const std::size_t i = wave + w;
          const CandidateSpec& spec = specs[i];
          Assignment a = [&] {
            if (spec.nearest) {
              return Assignment(&graph, base_seed);
            }
            std::vector<NodeId> seed = base_seed;
            if (spec.jitter) {
              // Substream keyed by candidate index: the perturbation depends
              // only on (opts.seed, i), never on which worker runs it.
              Rng rng =
                  par::substream(base_rng, static_cast<std::uint64_t>(i));
              for (NodeId& n : seed) {
                const auto& nbrs = wsn.neighbors(n);
                if (!nbrs.empty() && rng.bernoulli(kJitterProbability)) {
                  n = nbrs[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(nbrs.size()) - 1))];
                }
              }
            }
            return assign_balanced_heuristic_from(graph, wsn, std::move(seed),
                                                  spec.slack);
          }();
          // Score without obs: gauges are last-write-wins and would race;
          // the winner's numbers are published once below.  The dedup
          // scratch is reused across every candidate this worker scores.
          thread_local CommCostScratch scratch;
          auto r = compute_comm_cost_bounded(a, wsn, opts.cost_options,
                                             scratch, bound);
          scored[i].emplace(Scored{std::move(a), std::move(r)});
        },
        opts.pool, /*grain=*/1);
    for (std::size_t i = wave; i < wave_end; ++i) {
      if (scored[i]->report && scored[i]->report->max_cost < incumbent) {
        incumbent = scored[i]->report->max_cost;
      }
    }
  }

  // Winner by (max_cost, candidate index): scanning in candidate order with
  // a strict `<` makes ties resolve to the lowest index regardless of the
  // evaluation schedule.  Abandoned candidates score +inf and are provably
  // worse than the incumbent that abandoned them.
  auto cost_of = [&](std::size_t i) {
    return scored[i]->report ? scored[i]->report->max_cost : kInf;
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < specs.size(); ++i) {
    if (cost_of(i) < cost_of(best)) best = i;
  }
  ZEIOT_CHECK_MSG(scored[best]->report.has_value(),
                  "search winner cannot be an aborted candidate");

  AssignmentSearchResult res{std::move(scored[best]->assignment),
                             best,
                             scored[best]->report->max_cost,
                             scored[best]->report->mean_cost,
                             {}};
  res.candidates.reserve(specs.size());
  std::size_t aborted = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& rep = scored[i]->report;
    if (rep) {
      res.candidates.push_back({specs[i].label, rep->max_cost, rep->mean_cost,
                                /*aborted=*/false});
    } else {
      res.candidates.push_back({specs[i].label, kInf, kInf, /*aborted=*/true});
      ++aborted;
    }
  }
  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.gauge("microdeep.search.candidates")
        .set(static_cast<double>(specs.size()));
    m.gauge("microdeep.search.aborted_candidates")
        .set(static_cast<double>(aborted));
    m.gauge("microdeep.search.best_index").set(static_cast<double>(best));
    m.gauge("microdeep.search.best_max_cost").set(res.best_max_cost);
    // Re-publish the winner's comm-cost gauges under the standard keys.
    compute_comm_cost(res.best, wsn, opts.cost_options, obs);
  }
  return res;
}

}  // namespace zeiot::microdeep
