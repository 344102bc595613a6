#include "ml/kernels/im2col.hpp"

#include <algorithm>
#include <cstddef>

namespace zeiot::ml::kernels {

void im2col(const float* x, int channels, int h, int w, int kernel, int pad,
            int oh, int ow, float* out) {
  float* dst = out;
  for (int ic = 0; ic < channels; ++ic) {
    const float* plane =
        x + static_cast<std::size_t>(ic) * h * static_cast<std::size_t>(w);
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        // Valid output columns: 0 <= ox + kx - pad < w.
        const int lo = std::max(0, pad - kx);
        const int hi = std::min(ow, w - kx + pad);
        for (int oy = 0; oy < oh; ++oy, dst += ow) {
          const int iy = oy + ky - pad;
          if (iy < 0 || iy >= h || lo >= hi) {
            std::fill(dst, dst + ow, 0.0f);
            continue;
          }
          std::fill(dst, dst + lo, 0.0f);
          const float* srow =
              plane + static_cast<std::size_t>(iy) * w + (lo + kx - pad);
          std::copy(srow, srow + (hi - lo), dst + lo);
          std::fill(dst + hi, dst + ow, 0.0f);
        }
      }
    }
  }
}

void col2im_accum(const float* cols, int channels, int h, int w, int kernel,
                  int pad, int oh, int ow, float* gx) {
  const float* src = cols;
  for (int ic = 0; ic < channels; ++ic) {
    float* plane =
        gx + static_cast<std::size_t>(ic) * h * static_cast<std::size_t>(w);
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const int lo = std::max(0, pad - kx);
        const int hi = std::min(ow, w - kx + pad);
        for (int oy = 0; oy < oh; ++oy, src += ow) {
          const int iy = oy + ky - pad;
          if (iy < 0 || iy >= h || lo >= hi) continue;
          float* drow =
              plane + static_cast<std::size_t>(iy) * w + (lo + kx - pad);
          const float* srow = src + lo;
          const int len = hi - lo;
          for (int t = 0; t < len; ++t) drow[t] += srow[t];
        }
      }
    }
  }
}

}  // namespace zeiot::ml::kernels
