// AVX2+FMA backend row.  This translation unit is the ONLY one compiled
// with -mavx2 -mfma (per-file COMPILE_OPTIONS in src/ml/CMakeLists.txt);
// nothing here runs unless CPUID reported avx2+fma, so the intrinsics are
// safe even though the rest of the build targets the baseline ISA.
//
// Fixed summation-order contract for this backend (a pure function of the
// operand shapes — never of ZEIOT_THREADS — so results are bit-identical
// across thread counts and reruns):
//
//   sgemm_accum     per element C[i][j]: one FMA chain in ascending k
//                   (c = fma(a_k, b_k, c), a single rounding per term).
//                   Which vector width covers a column (16-wide tile,
//                   8-wide tile, masked tail) only changes WHICH LANE the
//                   element rides in, not its arithmetic.
//   sgemm_abt_accum per element: 8 lane accumulators over k (lane L sums
//                   terms k ≡ L mod 8, ascending), then the fixed pairwise
//                   lane reduce (0+4,1+5,2+6,3+7 → 02,13 → 0123…), then the
//                   scalar k-tail terms in ascending order, each one fused
//                   multiply-add (std::fma: the build disables implicit
//                   contraction, so the fusion is spelled out).
//
// All loads/stores are unaligned-tolerant (loadu/maskload); Tensor and
// Workspace hand out 64-byte-aligned bases anyway, so these decay to
// aligned accesses on the hot paths.
#include "ml/kernels/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace zeiot::ml::kernels::detail {

namespace {

// Lane mask for the final j-tail (rem in [1,7]): lane L active iff L < rem.
inline __m256i tail_mask(int rem) {
  alignas(32) std::int32_t lanes[8];
  for (int l = 0; l < 8; ++l) lanes[l] = l < rem ? -1 : 0;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
}

// Fixed pairwise horizontal sum: (0+4,1+5,2+6,3+7) → (02,13) → scalar.
inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// One 4-row x 16-column register tile of sgemm_accum: C block lives in 8
// ymm accumulators while a single ascending-k sweep streams A broadcasts
// and two B row segments per step.
template <int Rows>
inline void sgemm_tile16(int k, const float* a, int lda, const float* b,
                         int ldb, float* c, int ldc) {
  __m256 acc[Rows][2];
  for (int r = 0; r < Rows; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    acc[r][0] = _mm256_loadu_ps(crow);
    acc[r][1] = _mm256_loadu_ps(crow + 8);
  }
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + static_cast<std::size_t>(kk) * ldb;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < Rows; ++r) {
      const __m256 av =
          _mm256_broadcast_ss(a + static_cast<std::size_t>(r) * lda + kk);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < Rows; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}

// 4-row x 8-column tile (plain or masked) for the column remainder.
template <int Rows>
inline void sgemm_tile8(int k, const float* a, int lda, const float* b,
                        int ldb, float* c, int ldc, const __m256i* mask) {
  __m256 acc[Rows];
  for (int r = 0; r < Rows; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    acc[r] = mask ? _mm256_maskload_ps(crow, *mask) : _mm256_loadu_ps(crow);
  }
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + static_cast<std::size_t>(kk) * ldb;
    const __m256 bv =
        mask ? _mm256_maskload_ps(brow, *mask) : _mm256_loadu_ps(brow);
    for (int r = 0; r < Rows; ++r) {
      const __m256 av =
          _mm256_broadcast_ss(a + static_cast<std::size_t>(r) * lda + kk);
      acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
    }
  }
  for (int r = 0; r < Rows; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    if (mask) {
      _mm256_maskstore_ps(crow, *mask, acc[r]);
    } else {
      _mm256_storeu_ps(crow, acc[r]);
    }
  }
}

template <int Rows>
inline void sgemm_rows(int n, int k, const float* a, int lda, const float* b,
                       int ldb, float* c, int ldc) {
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    sgemm_tile16<Rows>(k, a, lda, b + j, ldb, c + j, ldc);
  }
  if (j + 8 <= n) {
    sgemm_tile8<Rows>(k, a, lda, b + j, ldb, c + j, ldc, nullptr);
    j += 8;
  }
  if (j < n) {
    const __m256i mask = tail_mask(n - j);
    sgemm_tile8<Rows>(k, a, lda, b + j, ldb, c + j, ldc, &mask);
  }
}

void sgemm_accum_avx2(int m, int n, int k, const float* a, int lda,
                      const float* b, int ldb, float* c, int ldc) {
  // 6-row main block: 12 live accumulators + 2 B segments + 1 A broadcast
  // fits the 16 ymm registers and keeps both FMA ports busy.  Row blocking
  // never affects the per-element summation order (always ascending k), so
  // the remainder schedule below is purely a throughput choice.
  int i = 0;
  for (; i + 6 <= m; i += 6) {
    sgemm_rows<6>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                  c + static_cast<std::size_t>(i) * ldc, ldc);
  }
  switch (m - i) {
    case 5:
      sgemm_rows<5>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                    c + static_cast<std::size_t>(i) * ldc, ldc);
      break;
    case 4:
      sgemm_rows<4>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                    c + static_cast<std::size_t>(i) * ldc, ldc);
      break;
    case 3:
      sgemm_rows<3>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                    c + static_cast<std::size_t>(i) * ldc, ldc);
      break;
    case 2:
      sgemm_rows<2>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                    c + static_cast<std::size_t>(i) * ldc, ldc);
      break;
    case 1:
      sgemm_rows<1>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                    c + static_cast<std::size_t>(i) * ldc, ldc);
      break;
    default: break;
  }
}

void sgemm_abt_accum_avx2(int m, int n, int k, const float* a, int lda,
                          const float* b, int ldb, float* c, int ldc) {
  const int k8 = k & ~7;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + static_cast<std::size_t>(j) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      __m256 v0 = _mm256_setzero_ps();
      __m256 v1 = _mm256_setzero_ps();
      __m256 v2 = _mm256_setzero_ps();
      __m256 v3 = _mm256_setzero_ps();
      for (int kk = 0; kk < k8; kk += 8) {
        const __m256 av = _mm256_loadu_ps(arow + kk);
        v0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + kk), v0);
        v1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + kk), v1);
        v2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + kk), v2);
        v3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + kk), v3);
      }
      float s0 = hsum8(v0);
      float s1 = hsum8(v1);
      float s2 = hsum8(v2);
      float s3 = hsum8(v3);
      for (int kk = k8; kk < k; ++kk) {
        const float av = arow[kk];
        s0 = std::fma(av, b0[kk], s0);
        s1 = std::fma(av, b1[kk], s1);
        s2 = std::fma(av, b2[kk], s2);
        s3 = std::fma(av, b3[kk], s3);
      }
      crow[j + 0] += s0;
      crow[j + 1] += s1;
      crow[j + 2] += s2;
      crow[j + 3] += s3;
    }
    for (; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * ldb;
      __m256 v = _mm256_setzero_ps();
      for (int kk = 0; kk < k8; kk += 8) {
        v = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                            _mm256_loadu_ps(brow + kk), v);
      }
      float s = hsum8(v);
      for (int kk = k8; kk < k; ++kk) s = std::fma(arow[kk], brow[kk], s);
      crow[j] += s;
    }
  }
}

const Backend kAvx2Backend{
    BackendKind::Avx2,
    "avx2",
    &sgemm_accum_avx2,
    &sgemm_abt_accum_avx2,
};

}  // namespace

const Backend* avx2_backend() { return &kAvx2Backend; }

}  // namespace zeiot::ml::kernels::detail

#else  // !(__AVX2__ && __FMA__): non-x86 target or no -mavx2 support.

namespace zeiot::ml::kernels::detail {

const Backend* avx2_backend() { return nullptr; }

}  // namespace zeiot::ml::kernels::detail

#endif
