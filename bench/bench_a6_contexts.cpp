// A6 — The paper's application contexts beyond the headline experiments
// (Sec. III.C / IV.C): each row exercises one of the context-recognition
// techniques the paper enumerates for zero-energy devices.
//
//  (i/ii) posture recognition from an RFID tag array (RF-Kinect style),
//  (iii)  boundary-crossing direction/speed from backscatter phase,
//  (iv)   sociogram construction from zone-level tag sightings,
//  (v)    wind/ground vibration frequency from a spring-switch tag,
//  plus the bimetallic/hydrogel zero-energy temperature transducers of
//  Fig. 2(b).
#include <iostream>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "sensing/passive/transducer.hpp"
#include "sensing/rfid/sociogram.hpp"
#include "sensing/rfid/tag_array.hpp"
#include "sensing/rfid/trajectory.hpp"

using namespace zeiot;
using namespace zeiot::sensing;

int main() {
  std::cout << "=== A6: context-recognition applications (Sec. III.C) ===\n";
  obs::Observability obs;
  Table t({"context", "technique", "result"});

  // (i/ii) posture.
  {
    rfid::PostureRecognizer rec;
    Rng rng(1);
    rec.train(50, rng);
    const auto cm = rec.evaluate(40, rng);
    t.add_row({"(i/ii) elderly/athlete posture",
               "8-tag array, phase trilateration",
               Table::pct(cm.accuracy()) + " over 4 postures"});
    obs.metrics().gauge("contexts.posture.accuracy").set(cm.accuracy());
  }

  // (iii) intrusion / trajectory.
  {
    Rng rng(2);
    int correct = 0;
    const int trials = 60;
    double speed_err = 0.0;
    for (int i = 0; i < trials; ++i) {
      const bool inward = rng.bernoulli(0.5);
      const double speed = rng.uniform(0.5, 2.0);
      const double y = rng.uniform(-0.4, 0.4);
      const auto track = rfid::simulate_track(
          {inward ? -3.0 : 3.0, y}, {inward ? speed : -speed, 0.0}, 8.0, rng);
      const auto ev = rfid::detect_crossing(track);
      const bool got = ev.direction == (inward
                                            ? rfid::CrossingDirection::Inward
                                            : rfid::CrossingDirection::Outward);
      if (got) {
        ++correct;
        speed_err += std::abs(ev.speed_mps - speed) / speed;
      }
    }
    t.add_row({"(iii) intrusion detection", "dual-antenna phase crossing",
               Table::pct(static_cast<double>(correct) / trials) +
                   " direction, " +
                   Table::pct(speed_err / std::max(1, correct)) +
                   " speed error"});
    obs.metrics()
        .gauge("contexts.intrusion.direction_accuracy")
        .set(static_cast<double>(correct) / trials);
  }

  // (iv) sociogram.
  {
    rfid::PlaygroundConfig cfg;
    const auto truth = rfid::simulate_playground(cfg);
    rfid::Sociogram g(cfg.num_children);
    g.accumulate(truth.sightings);
    Rng rng(3);
    const auto detected = g.communities(rng);
    const double ri = rfid::rand_index(detected, truth.group_of_child);
    const auto iso = g.isolated(0.5);
    t.add_row({"(iv) kindergarten sociogram", "zone co-presence graph",
               "Rand index " + Table::num(ri, 3) + ", " +
                   std::to_string(iso.size()) + " isolated flagged"});
    obs.metrics().gauge("contexts.sociogram.rand_index").set(ri);
  }

  // (v) slope vibration.
  {
    Rng rng(4);
    double max_rel_err = 0.0;
    for (double f : {1.0, 3.0, 8.0, 15.0}) {
      const auto w = passive::vibration_waveform(f, 10.0, rng);
      max_rel_err = std::max(
          max_rel_err, std::abs(passive::estimate_vibration_hz(w) - f) / f);
    }
    t.add_row({"(v) slope wind/ground vibration", "spring-switch flicker",
               "max " + Table::pct(max_rel_err) + " frequency error, 1-15 Hz"});
  }

  // Fig. 2(b): zero-energy temperature.
  {
    passive::ThermometerArray arr(18.0, 1.0, 15);
    Rng rng(5);
    double max_err = 0.0;
    for (double temp = 17.0; temp <= 33.0; temp += 0.25) {
      max_err = std::max(max_err,
                         std::abs(arr.decode(arr.expose(temp, rng)) - temp));
    }
    t.add_row({"Fig. 2(b) temperature", "bimetallic thermometer array",
               "max error " + Table::num(max_err, 2) + " C over 17-33 C"});

    passive::HydrogelTag gel(25.0, 3.0);
    const auto cal = gel.calibrate(15.0, 35.0, 64);
    double gel_err = 0.0;
    for (double temp = 18.0; temp <= 32.0; temp += 0.25) {
      gel_err = std::max(gel_err,
                         std::abs(cal.decode(gel.observed_rssi_dbm(
                                      temp, rng, 0.2)) -
                                  temp));
    }
    t.add_row({"Fig. 2(b) temperature", "hydrogel amplitude transducer",
               "max error " + Table::num(gel_err, 2) + " C over 18-32 C"});
  }

  t.print(std::cout);
  bench::write_bench_report("bench_a6_contexts", obs);
  return 0;
}
