#include "fault/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/json.hpp"

namespace zeiot::fault {

const char* fault_type_name(FaultType type) {
  switch (type) {
    case FaultType::NodeDeath: return "node_death";
    case FaultType::NodeRevival: return "node_revival";
    case FaultType::MessageDrop: return "message_drop";
    case FaultType::MessageCorrupt: return "message_corrupt";
    case FaultType::MessageDelay: return "message_delay";
    case FaultType::Brownout: return "brownout";
    case FaultType::HarvestDrought: return "harvest_drought";
  }
  return "unknown";
}

bool fault_type_from_name(const std::string& name, FaultType& out) {
  for (std::size_t i = 0; i < kNumFaultTypes; ++i) {
    const auto t = static_cast<FaultType>(i);
    if (name == fault_type_name(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const FaultEvent& e : events_) {
    ZEIOT_CHECK_MSG(std::isfinite(e.t) && std::isfinite(e.duration_s) &&
                        std::isfinite(e.magnitude),
                    "fault event fields must be finite");
    ZEIOT_CHECK_MSG(e.duration_s >= 0.0, "fault duration must be >= 0");
  }
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.type != b.type) return a.type < b.type;
              return a.target < b.target;
            });
}

std::size_t FaultPlan::count(FaultType type) const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.type == type) ++n;
  }
  return n;
}

std::uint64_t FaultPlan::digest() const {
  Fnv1a h;
  for (const FaultEvent& e : events_) {
    h.mix_bits(e.t);
    h.mix(static_cast<std::uint64_t>(e.type));
    h.mix(e.target);
    h.mix_bits(e.duration_s);
    h.mix_bits(e.magnitude);
  }
  return h.value();
}

void FaultPlan::write_json(std::ostream& out) const {
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("zeiot.fault.v1");
  w.key("events").begin_array();
  for (const FaultEvent& e : events_) {
    w.begin_object();
    w.key("t").value(e.t);
    w.key("type").value(fault_type_name(e.type));
    w.key("target").value(static_cast<std::uint64_t>(e.target));
    w.key("duration").value(e.duration_s);
    w.key("magnitude").value(e.magnitude);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

namespace {

/// Recursive-descent parser for exactly the zeiot.fault.v1 schema: an
/// object of strings/numbers/arrays-of-flat-objects.  Small on purpose —
/// this is the only JSON the library ever reads.
class PlanParser {
 public:
  explicit PlanParser(const std::string& text) : s_(text) {}

  FaultPlan parse() {
    skip_ws();
    expect('{');
    bool saw_schema = false;
    std::vector<FaultEvent> events;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        get();
        break;
      }
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      const std::string k = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (k == "schema") {
        const std::string schema = parse_string();
        ZEIOT_CHECK_MSG(schema == "zeiot.fault.v1",
                        "unsupported fault plan schema '" << schema << "'");
        saw_schema = true;
      } else if (k == "events") {
        events = parse_events();
      } else {
        fail("unknown top-level key '" + k + "'");
      }
    }
    skip_ws();
    ZEIOT_CHECK_MSG(pos_ == s_.size(),
                    "trailing bytes after fault plan JSON");
    ZEIOT_CHECK_MSG(saw_schema, "fault plan JSON missing \"schema\"");
    return FaultPlan(std::move(events));
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("fault plan JSON: " + why + " at byte " +
                std::to_string(pos_));
  }
  char peek() const {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: fail("unsupported string escape");
        }
      } else {
        out += c;
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const std::string tok = s_.substr(start, pos_ - start);
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(tok, &used);
    } catch (const std::exception&) {
      fail("malformed number '" + tok + "'");
    }
    if (used != tok.size()) fail("malformed number '" + tok + "'");
    return v;
  }

  std::vector<FaultEvent> parse_events() {
    expect('[');
    std::vector<FaultEvent> events;
    skip_ws();
    if (peek() == ']') {
      get();
      return events;
    }
    while (true) {
      skip_ws();
      events.push_back(parse_event());
      skip_ws();
      const char c = get();
      if (c == ']') return events;
      if (c != ',') fail("expected ',' or ']' in events array");
    }
  }

  FaultEvent parse_event() {
    expect('{');
    FaultEvent e;
    bool saw_t = false, saw_type = false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        get();
        break;
      }
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      const std::string k = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (k == "t") {
        e.t = parse_number();
        saw_t = true;
      } else if (k == "type") {
        const std::string name = parse_string();
        ZEIOT_CHECK_MSG(fault_type_from_name(name, e.type),
                        "unknown fault type '" << name << "'");
        saw_type = true;
      } else if (k == "target") {
        const double v = parse_number();
        ZEIOT_CHECK_MSG(v >= 0.0 && v <= 4294967295.0,
                        "fault target out of range");
        e.target = static_cast<std::uint32_t>(v);
      } else if (k == "duration") {
        e.duration_s = parse_number();
      } else if (k == "magnitude") {
        e.magnitude = parse_number();
      } else {
        fail("unknown event key '" + k + "'");
      }
    }
    ZEIOT_CHECK_MSG(saw_t && saw_type,
                    "fault event requires at least \"t\" and \"type\"");
    return e;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

FaultPlan FaultPlan::from_json_text(const std::string& text) {
  return PlanParser(text).parse();
}

FaultPlan FaultPlan::from_json(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  ZEIOT_CHECK_MSG(!in.bad(), "fault plan stream read failed");
  return from_json_text(buf.str());
}

namespace {

/// Substream ids, one per fault class, so rates are independent knobs.
enum : std::uint64_t {
  kStreamDeath = 1,
  kStreamDrop,
  kStreamCorrupt,
  kStreamDelay,
  kStreamBrownout,
  kStreamDrought,
};

void generate_windows(Rng rng, const FaultSpec& spec, double rate,
                      FaultType type, double window_s, double magnitude,
                      std::vector<FaultEvent>& out) {
  if (rate <= 0.0 || spec.intensity <= 0.0) return;
  const int n = rng.poisson(rate * spec.intensity);
  for (int i = 0; i < n; ++i) {
    FaultEvent e;
    e.t = rng.uniform(0.0, spec.horizon_s);
    e.type = type;
    e.target = spec.num_targets == 0
                   ? kAllTargets
                   : static_cast<std::uint32_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(spec.num_targets) - 1));
    e.duration_s = window_s;
    e.magnitude = magnitude;
    out.push_back(e);
  }
}

}  // namespace

FaultPlan generate_plan(const FaultSpec& spec) {
  ZEIOT_CHECK_MSG(spec.horizon_s > 0.0, "fault horizon must be > 0");
  ZEIOT_CHECK_MSG(spec.intensity >= 0.0, "fault intensity must be >= 0");
  Rng root(spec.seed);
  // Split every class substream up front (split() advances the parent), so
  // each class's schedule depends only on the seed, never on which other
  // rates are zero.
  Rng death_rng = root.split(kStreamDeath);
  Rng drop_rng = root.split(kStreamDrop);
  Rng corrupt_rng = root.split(kStreamCorrupt);
  Rng delay_rng = root.split(kStreamDelay);
  Rng brownout_rng = root.split(kStreamBrownout);
  Rng drought_rng = root.split(kStreamDrought);
  std::vector<FaultEvent> events;

  // Node deaths (paired with revivals when downtime is finite).
  if (spec.node_death_rate > 0.0 && spec.intensity > 0.0) {
    Rng& rng = death_rng;
    const int n = rng.poisson(spec.node_death_rate * spec.intensity);
    for (int i = 0; i < n; ++i) {
      FaultEvent death;
      death.t = rng.uniform(0.0, spec.horizon_s);
      death.type = FaultType::NodeDeath;
      death.target = spec.num_targets == 0
                         ? kAllTargets
                         : static_cast<std::uint32_t>(rng.uniform_int(
                               0,
                               static_cast<std::int64_t>(spec.num_targets) - 1));
      death.duration_s = 0.0;
      events.push_back(death);
      if (spec.mean_downtime_s > 0.0) {
        const double revive_at =
            death.t + rng.exponential(1.0 / spec.mean_downtime_s);
        if (revive_at < spec.horizon_s) {
          FaultEvent revive = death;
          revive.t = revive_at;
          revive.type = FaultType::NodeRevival;
          events.push_back(revive);
        }
      }
    }
  }

  generate_windows(drop_rng, spec, spec.drop_rate, FaultType::MessageDrop,
                   spec.drop_window_s, spec.drop_probability, events);
  generate_windows(corrupt_rng, spec, spec.corrupt_rate,
                   FaultType::MessageCorrupt, spec.corrupt_window_s,
                   spec.corrupt_probability, events);
  generate_windows(delay_rng, spec, spec.delay_rate, FaultType::MessageDelay,
                   spec.delay_window_s, spec.delay_s, events);
  generate_windows(brownout_rng, spec, spec.brownout_rate,
                   FaultType::Brownout, spec.brownout_s, 1.0, events);
  generate_windows(drought_rng, spec, spec.drought_rate,
                   FaultType::HarvestDrought, spec.drought_s,
                   spec.drought_scale, events);

  return FaultPlan(std::move(events));
}

}  // namespace zeiot::fault
