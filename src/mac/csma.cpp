#include "mac/csma.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace zeiot::mac {

double CsmaMetrics::jain_fairness() const {
  if (per_station_successes.empty()) return 1.0;
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t s : per_station_successes) {
    const auto x = static_cast<double>(s);
    sum += x;
    sum2 += x * x;
  }
  if (sum2 == 0.0) return 1.0;
  return sum * sum /
         (static_cast<double>(per_station_successes.size()) * sum2);
}

namespace {

struct Station {
  bool has_frame = false;
  int backoff = 0;     // remaining backoff slots
  int retries = 0;
  std::size_t enqueued_at = 0;  // slot index when the frame arrived
};

int draw_backoff(Rng& rng, const CsmaConfig& cfg, int retries) {
  long cw = cfg.cw_min;
  for (int r = 0; r < retries; ++r) {
    cw = std::min<long>(cw * 2, cfg.cw_max);
  }
  return static_cast<int>(rng.uniform_int(0, cw - 1));
}

}  // namespace

CsmaMetrics simulate_csma(const CsmaConfig& cfg, std::size_t slots,
                          obs::Observability* obs) {
  ZEIOT_CHECK_MSG(cfg.num_stations >= 1, "need stations");
  ZEIOT_CHECK_MSG(cfg.cw_min >= 2 && cfg.cw_max >= cfg.cw_min,
                  "invalid contention window");
  ZEIOT_CHECK_MSG(cfg.frame_slots >= 1, "frame must occupy slots");
  ZEIOT_CHECK_MSG(cfg.max_retries >= 0, "retry limit must be >= 0");
  ZEIOT_CHECK_MSG(cfg.arrival_per_slot >= 0.0 && cfg.arrival_per_slot <= 1.0,
                  "arrival probability in [0,1]");

  Rng rng(cfg.seed);
  std::vector<Station> stations(cfg.num_stations);
  CsmaMetrics m;
  m.per_station_successes.assign(cfg.num_stations, 0);
  std::size_t tx_opportunities = 0;
  double delay_sum = 0.0;

  for (auto& st : stations) {
    if (cfg.saturated) {
      st.has_frame = true;
      st.backoff = draw_backoff(rng, cfg, 0);
    }
  }

  std::size_t slot = 0;
  while (slot < slots) {
    // Arrivals (unsaturated mode).
    if (!cfg.saturated) {
      for (Station& st : stations) {
        if (!st.has_frame && rng.bernoulli(cfg.arrival_per_slot)) {
          st.has_frame = true;
          st.retries = 0;
          st.backoff = draw_backoff(rng, cfg, 0);
          st.enqueued_at = slot;
        }
      }
    }

    // Who transmits this slot?
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < stations.size(); ++i) {
      if (stations[i].has_frame && stations[i].backoff == 0) {
        ready.push_back(i);
      }
    }

    if (ready.empty()) {
      // Idle slot: all counters tick down.
      for (Station& st : stations) {
        if (st.has_frame && st.backoff != 0) --st.backoff;
      }
      ++slot;
      continue;
    }

    ++tx_opportunities;
    // The medium is busy for frame_slots regardless of outcome; other
    // stations freeze their counters (standard DCF behaviour).
    const double round_t0 = static_cast<double>(slot);
    slot += static_cast<std::size_t>(cfg.frame_slots);
    bool round_success = false;

    if (ready.size() == 1) {
      Station& st = stations[ready.front()];
      round_success = true;
      ++m.successes;
      ++m.per_station_successes[ready.front()];
      if (obs != nullptr) {
        obs->spans().instant(obs::SpanKind::PacketTx,
                             static_cast<double>(slot),
                             static_cast<std::uint32_t>(ready.front()));
      }
      delay_sum += static_cast<double>(slot - st.enqueued_at);
      st.has_frame = cfg.saturated;
      st.retries = 0;
      st.backoff = draw_backoff(rng, cfg, 0);
      st.enqueued_at = slot;
    } else {
      ++m.collisions;
      if (obs != nullptr) {
        obs->spans().instant(obs::SpanKind::PacketCollision,
                             static_cast<double>(slot),
                             static_cast<std::uint32_t>(ready.size()));
      }
      for (std::size_t i : ready) {
        Station& st = stations[i];
        ++st.retries;
        if (st.retries > cfg.max_retries) {
          ++m.drops;
          st.has_frame = cfg.saturated;
          st.retries = 0;
          st.enqueued_at = slot;
        }
        st.backoff = draw_backoff(rng, cfg, st.retries);
      }
    }

    // One CsmaRound span per contention round (virtual slot axis):
    // a = contenders, b = 1 on a clean win.  Gated on the span layer so
    // the default metrics-only path stays span-free.
    if (obs != nullptr && obs->spans_enabled()) {
      obs->spans().add(obs::SpanKind::CsmaRound, round_t0,
                       round_t0 + static_cast<double>(cfg.frame_slots), 0, 0,
                       static_cast<std::uint32_t>(ready.size()),
                       round_success ? 1u : 0u, 0.0);
    }
  }

  m.slots_simulated = slot;
  m.throughput = static_cast<double>(m.successes) *
                 static_cast<double>(cfg.frame_slots) /
                 static_cast<double>(slot);
  m.collision_probability =
      tx_opportunities == 0
          ? 0.0
          : static_cast<double>(m.collisions) /
                static_cast<double>(tx_opportunities);
  m.mean_access_delay_slots =
      m.successes == 0 ? 0.0 : delay_sum / static_cast<double>(m.successes);

  if (obs != nullptr) {
    const obs::Labels labels{{"saturated", cfg.saturated ? "1" : "0"},
                             {"stations", std::to_string(cfg.num_stations)}};
    auto& mreg = obs->metrics();
    mreg.counter("mac.csma.successes", labels)
        .inc(static_cast<double>(m.successes));
    mreg.counter("mac.csma.collisions", labels)
        .inc(static_cast<double>(m.collisions));
    mreg.counter("mac.csma.drops", labels).inc(static_cast<double>(m.drops));
    mreg.counter("mac.csma.tx_opportunities", labels)
        .inc(static_cast<double>(tx_opportunities));
    mreg.gauge("mac.csma.throughput", labels).set(m.throughput);
    mreg.gauge("mac.csma.collision_probability", labels)
        .set(m.collision_probability);
    mreg.summary("mac.csma.access_delay_slots", labels)
        .observe(m.mean_access_delay_slots);
  }
  return m;
}

}  // namespace zeiot::mac
