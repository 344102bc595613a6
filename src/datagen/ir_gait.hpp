// Synthetic IR sensor-array gait/fall streams — the substitute for the
// paper's prototyped film-type IR array experiment (Sec. IV.C, Fig. 9):
// 55 gait samples from five subjects imitating elders' falls, captured as
// streams of 66 frames at 5 fps; 10-frame (2 s) sliding windows become the
// 3-D arrays fed to a CNN with one conv, one pool and two FC layers.
//
// The kinematic model renders the subject as a heat blob on the array:
// upright while walking (tall/narrow footprint), transitioning to lying
// (wide/flat footprint) over a short fall, after which the blob stays
// down.  Normal streams traverse the array at a per-subject speed; fall
// streams stop mid-passage and collapse.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace zeiot::datagen {

/// The testbed: a kIrGrid x kIrGrid sensor array recording
/// kIrFramesPerStream-frame streams, cut into kIrWindowFrames-frame
/// windows.  The subjects' gait, falls and crouches and the label noise
/// are fixed in ir_gait.cpp.
inline constexpr int kIrGrid = 10;
inline constexpr int kIrFramesPerStream = 66;
inline constexpr int kIrWindowFrames = 10;  // 2 s at 5 fps

struct IrGaitConfig {
  int num_streams = 55;
  /// Streams containing a fall event.
  int fall_streams = 28;
  /// Mirror-augment windows (doubles the dataset, as data augmentation of
  /// the real experiment would).
  bool mirror_augment = true;
  /// Sensor noise per cell (relative to unit body heat).
  double sensor_noise = 0.15;
  std::uint64_t seed = 55;
};

struct IrStream {
  /// kIrFramesPerStream tensors of (kIrGrid x kIrGrid) heat intensity.
  std::vector<ml::Tensor> frames;  // each (1, kIrGrid, kIrGrid)
  /// Frame at which the fall begins (-1 for normal gait).
  int fall_start = -1;
  int subject = 0;
};

/// Renders one stream for `subject`; `fall` selects a fall passage.
IrStream generate_ir_stream(const IrGaitConfig& cfg, int subject, bool fall,
                            Rng& rng);

/// Slides windows over all streams and stacks frames as channels:
/// samples of shape (kIrWindowFrames, kIrGrid, kIrGrid); label 1 = fall
/// window.
ml::Dataset generate_ir_dataset(const IrGaitConfig& cfg);

}  // namespace zeiot::datagen
