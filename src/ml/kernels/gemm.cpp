#include "ml/kernels/gemm.hpp"

#include <algorithm>

#include "ml/kernels/backend.hpp"

namespace zeiot::ml::kernels {

namespace {

// Panel sizes: a k-panel of B (kBlockK x kBlockN floats = 256 KiB) stays
// L2-resident while every row of the C block streams over it.  The blocking
// is a pure function of the shapes, so the per-element accumulation order
// is fixed regardless of who executes the call.
constexpr int kBlockK = 128;
constexpr int kBlockN = 512;

}  // namespace

void sgemm_accum(int m, int n, int k, const float* a, int lda, const float* b,
                 int ldb, float* c, int ldc) {
  active_backend().sgemm_accum(m, n, k, a, lda, b, ldb, c, ldc);
}

void sgemm_abt_accum(int m, int n, int k, const float* a, int lda,
                     const float* b, int ldb, float* c, int ldc) {
  active_backend().sgemm_abt_accum(m, n, k, a, lda, b, ldb, c, ldc);
}

void transpose(int rows, int cols, const float* src, int lds, float* dst,
               int ldd) {
  constexpr int kTile = 32;
  for (int rb = 0; rb < rows; rb += kTile) {
    const int rend = std::min(rows, rb + kTile);
    for (int cb = 0; cb < cols; cb += kTile) {
      const int cend = std::min(cols, cb + kTile);
      for (int r = rb; r < rend; ++r) {
        const float* __restrict srow = src + static_cast<std::size_t>(r) * lds;
        for (int c = cb; c < cend; ++c) {
          dst[static_cast<std::size_t>(c) * ldd + r] = srow[c];
        }
      }
    }
  }
}

namespace detail {

void sgemm_accum_scalar(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc) {
  for (int kb = 0; kb < k; kb += kBlockK) {
    const int kend = std::min(k, kb + kBlockK);
    for (int jb = 0; jb < n; jb += kBlockN) {
      const int jend = std::min(n, jb + kBlockN);
      for (int i = 0; i < m; ++i) {
        const float* __restrict arow = a + static_cast<std::size_t>(i) * lda;
        float* __restrict crow = c + static_cast<std::size_t>(i) * ldc;
        int kk = kb;
        for (; kk + 4 <= kend; kk += 4) {
          const float a0 = arow[kk + 0];
          const float a1 = arow[kk + 1];
          const float a2 = arow[kk + 2];
          const float a3 = arow[kk + 3];
          const float* __restrict b0 = b + static_cast<std::size_t>(kk) * ldb;
          const float* __restrict b1 = b0 + ldb;
          const float* __restrict b2 = b1 + ldb;
          const float* __restrict b3 = b2 + ldb;
          for (int j = jb; j < jend; ++j) {
            crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; kk < kend; ++kk) {
          const float a0 = arow[kk];
          const float* __restrict b0 = b + static_cast<std::size_t>(kk) * ldb;
          for (int j = jb; j < jend; ++j) crow[j] += a0 * b0[j];
        }
      }
    }
  }
}

void sgemm_abt_accum_scalar(int m, int n, int k, const float* a, int lda,
                            const float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const float* __restrict arow = a + static_cast<std::size_t>(i) * lda;
    float* __restrict crow = c + static_cast<std::size_t>(i) * ldc;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict b0 = b + static_cast<std::size_t>(j) * ldb;
      const float* __restrict b1 = b0 + ldb;
      const float* __restrict b2 = b1 + ldb;
      const float* __restrict b3 = b2 + ldb;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
      }
      crow[j + 0] += s0;
      crow[j + 1] += s1;
      crow[j + 2] += s2;
      crow[j + 3] += s3;
    }
    for (; j < n; ++j) {
      const float* __restrict brow = b + static_cast<std::size_t>(j) * ldb;
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] += s;
    }
  }
}

}  // namespace detail

}  // namespace zeiot::ml::kernels
