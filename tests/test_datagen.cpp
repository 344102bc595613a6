#include <gtest/gtest.h>

#include "datagen/ir_gait.hpp"
#include "datagen/temperature_field.hpp"

namespace zeiot::datagen {
namespace {

TemperatureFieldConfig small_temp() {
  TemperatureFieldConfig cfg;
  cfg.num_samples = 120;
  return cfg;
}

TEST(TemperatureField, SampleShape) {
  Rng rng(1);
  const auto s = generate_temperature_sample(0, rng);
  EXPECT_EQ(s.map.shape(), (std::vector<int>{1, 17, 25}));
  EXPECT_TRUE(s.discomfort == 0 || s.discomfort == 1);
}

TEST(TemperatureField, DatasetSizeAndShape) {
  const auto ds = generate_temperature_dataset(small_temp());
  EXPECT_EQ(ds.size(), 120u);
  EXPECT_EQ(ds.sample_shape(), (std::vector<int>{1, 17, 25}));
  EXPECT_EQ(ds.num_classes(), 2);
}

TEST(TemperatureField, BothLabelsPresentAndNonDegenerate) {
  const auto ds = generate_temperature_dataset(small_temp());
  std::size_t pos = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) pos += ds.label(i);
  EXPECT_GT(pos, ds.size() / 10);
  EXPECT_LT(pos, ds.size() * 9 / 10);
}

TEST(TemperatureField, DeterministicBySeed) {
  const auto a = generate_temperature_dataset(small_temp());
  const auto b = generate_temperature_dataset(small_temp());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    for (std::size_t j = 0; j < a.x(i).size(); ++j) {
      EXPECT_FLOAT_EQ(a.x(i)[j], b.x(i)[j]);
    }
  }
}

TEST(TemperatureField, SeedChangesData) {
  // The dataset's seed (2016) against another one.
  Rng rng_a(2016);
  Rng rng_b(9999);
  const auto a = generate_temperature_sample(0, rng_a);
  const auto b = generate_temperature_sample(0, rng_b);
  bool differ = false;
  for (std::size_t j = 0; j < a.map.size() && !differ; ++j) {
    if (a.map[j] != b.map[j]) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(TemperatureField, ValuesNormalised) {
  const auto ds = generate_temperature_dataset(small_temp());
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < ds.x(i).size(); ++j) {
      EXPECT_LT(std::abs(ds.x(i)[j]), 10.0f);
    }
  }
}

TEST(TemperatureField, DiurnalVariation) {
  // Raw (unnormalised) samples 24 h apart at different phases must differ
  // in mean temperature.
  Rng rng(2);
  const auto night = generate_temperature_sample(0, rng);   // t = 0h
  const auto day = generate_temperature_sample(24, rng);    // t = 12h
  EXPECT_NE(night.map.sum(), day.map.sum());
}

IrGaitConfig small_ir() {
  IrGaitConfig cfg;
  cfg.num_streams = 6;
  cfg.fall_streams = 3;
  cfg.mirror_augment = false;
  return cfg;
}

TEST(IrGait, StreamShape) {
  const auto cfg = small_ir();
  Rng rng(3);
  const auto st = generate_ir_stream(cfg, 0, true, rng);
  EXPECT_EQ(st.frames.size(), 66u);
  EXPECT_EQ(st.frames[0].shape(), (std::vector<int>{1, 10, 10}));
  EXPECT_GE(st.fall_start, kIrWindowFrames);
}

TEST(IrGait, NormalStreamHasNoFall) {
  const auto cfg = small_ir();
  Rng rng(4);
  const auto st = generate_ir_stream(cfg, 1, false, rng);
  EXPECT_EQ(st.fall_start, -1);
}

TEST(IrGait, WalkerMovesAcrossArray) {
  auto cfg = small_ir();
  cfg.sensor_noise = 0.0;
  Rng rng(5);
  const auto st = generate_ir_stream(cfg, 0, false, rng);
  // Blob centroid x must advance between early and late frames.
  auto centroid_x = [&](const ml::Tensor& f) {
    double sx = 0.0, total = 0.0;
    for (int y = 0; y < kIrGrid; ++y) {
      for (int x = 0; x < kIrGrid; ++x) {
        sx += f.at({0, y, x}) * x;
        total += f.at({0, y, x});
      }
    }
    return total > 1e-9 ? sx / total : 0.0;
  };
  EXPECT_LT(centroid_x(st.frames[15]), centroid_x(st.frames[45]));
}

TEST(IrGait, FallChangesAspectRatio) {
  auto cfg = small_ir();
  cfg.sensor_noise = 0.0;
  Rng rng(6);
  const auto st = generate_ir_stream(cfg, 0, true, rng);
  // After the fall, vertical spread shrinks and horizontal grows.
  auto spread = [&](const ml::Tensor& f) {
    double sx = 0.0, sy = 0.0, total = 0.0;
    double mx = 0.0, my = 0.0;
    for (int y = 0; y < kIrGrid; ++y) {
      for (int x = 0; x < kIrGrid; ++x) {
        const double v = f.at({0, y, x});
        mx += v * x;
        my += v * y;
        total += v;
      }
    }
    mx /= total;
    my /= total;
    for (int y = 0; y < kIrGrid; ++y) {
      for (int x = 0; x < kIrGrid; ++x) {
        const double v = f.at({0, y, x});
        sx += v * (x - mx) * (x - mx);
        sy += v * (y - my) * (y - my);
      }
    }
    return std::pair{sx / total, sy / total};
  };
  // Upright: y-spread dominates; lying: x-spread dominates, so the
  // (y/x) spread ratio collapses through the fall.
  const auto before = spread(st.frames[static_cast<std::size_t>(st.fall_start - 1)]);
  const auto after = spread(st.frames.back());
  EXPECT_LT(after.second / after.first, before.second / before.first);
}

TEST(IrGait, DatasetSizeMatchesWindows) {
  const auto cfg = small_ir();
  const auto ds = generate_ir_dataset(cfg);
  const std::size_t windows_per_stream =
      static_cast<std::size_t>(kIrFramesPerStream - kIrWindowFrames + 1);
  EXPECT_EQ(ds.size(), windows_per_stream * 6u);
  EXPECT_EQ(ds.sample_shape(), (std::vector<int>{10, 10, 10}));
}

TEST(IrGait, MirrorAugmentDoubles) {
  auto cfg = small_ir();
  cfg.mirror_augment = true;
  const auto ds = generate_ir_dataset(cfg);
  EXPECT_EQ(ds.size(), 57u * 6u * 2u);
}

TEST(IrGait, PaperScaleDatasetSize) {
  // Full configuration: 55 streams x 57 windows x 2 (mirror) = 6,270
  // arrays — the reproduction of the paper's 6,610 inputs.
  IrGaitConfig cfg;
  const auto ds = generate_ir_dataset(cfg);
  EXPECT_EQ(ds.size(), 6270u);
}

TEST(IrGait, BothClassesPresent) {
  const auto ds = generate_ir_dataset(small_ir());
  std::size_t falls = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) falls += ds.label(i);
  EXPECT_GT(falls, 0u);
  EXPECT_LT(falls, ds.size());
}

TEST(IrGait, DeterministicBySeed) {
  const auto a = generate_ir_dataset(small_ir());
  const auto b = generate_ir_dataset(small_ir());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 37) {
    EXPECT_EQ(a.label(i), b.label(i));
    for (std::size_t j = 0; j < a.x(i).size(); j += 101) {
      EXPECT_FLOAT_EQ(a.x(i)[j], b.x(i)[j]);
    }
  }
}

TEST(IrGait, RejectsBadConfig) {
  auto cfg = small_ir();
  cfg.fall_streams = 100;
  EXPECT_THROW(generate_ir_dataset(cfg), Error);
}

}  // namespace
}  // namespace zeiot::datagen
