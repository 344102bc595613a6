// Runtime-dispatched SIMD backend table for the float GEMM kernels.
//
// Both GEMM entry points (sgemm_accum, sgemm_abt_accum) route through one
// function-pointer table selected ONCE at first use:
//
//   1. the ZEIOT_KERNEL_BACKEND environment variable ("scalar", "avx2",
//      "auto"/unset) — requesting a backend the host cannot run throws
//      zeiot::Error (loud beats silently slow), and
//   2. otherwise CPUID: the fastest backend the host supports (AVX2 requires
//      both the avx2 and fma feature bits).
//
// Determinism contract: each backend keeps its OWN fixed summation order —
// a pure function of the operand shapes, never of the worker count — so a
// given backend is bit-identical at any ZEIOT_THREADS and across reruns.
// Backends may differ from each other within small ULP bounds (the scalar
// order groups k-terms in fours; the AVX2 order uses 8-lane FMA chains);
// tests/test_kernel_backends.cpp pins both the per-backend bit-identity
// and the cross-backend ULP agreement.
//
// The dispatch matrix:
//
//   backend | sgemm_accum              | sgemm_abt_accum
//   --------+--------------------------+-------------------------------
//   scalar  | cache-blocked, k-by-4    | 4 B rows per block, ascending k
//   avx2    | 8-lane FMA register tile | 8 k-lanes per dot, fixed reduce
//
// NEON is a recognised name but reports unavailable until an aarch64
// backend lands; the scalar loops auto-vectorise reasonably there.
#pragma once

#include <string>

namespace zeiot::ml::kernels {

enum class BackendKind : int { Scalar = 0, Avx2 = 1, Neon = 2 };

inline constexpr int kNumBackendKinds = 3;

using SgemmFn = void (*)(int m, int n, int k, const float* a, int lda,
                         const float* b, int ldb, float* c, int ldc);

/// One dispatch-table row.  All pointers are non-null for available
/// backends.
struct Backend {
  BackendKind kind = BackendKind::Scalar;
  const char* name = "scalar";
  SgemmFn sgemm_accum = nullptr;
  SgemmFn sgemm_abt_accum = nullptr;
};

/// The active table row.  First call resolves ZEIOT_KERNEL_BACKEND / CPUID;
/// later calls are one atomic pointer load.
const Backend& active_backend();

/// True when the host can execute `kind` (scalar: always; avx2: CPUID
/// avx2+fma and the AVX2 translation unit was built; neon: never yet).
bool backend_available(BackendKind kind);

/// Forces the active backend (tests and benches; not thread-safe against
/// concurrent kernel calls).  Throws zeiot::Error when unavailable.
void set_backend(BackendKind kind);

/// Stable lowercase name ("scalar", "avx2", "neon").
const char* backend_name(BackendKind kind);

/// Parses a backend name (the ZEIOT_KERNEL_BACKEND grammar; "auto" and ""
/// mean best-available).  Throws zeiot::Error on unknown names.
BackendKind parse_backend(const std::string& name);

/// RAII pin for tests: forces `kind` for the scope, restores on exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(BackendKind kind);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  BackendKind prev_;
};

namespace detail {

// Scalar reference kernels (always available; the pre-dispatch bodies,
// byte-for-byte — existing goldens were recorded against these orders).
void sgemm_accum_scalar(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);
void sgemm_abt_accum_scalar(int m, int n, int k, const float* a, int lda,
                            const float* b, int ldb, float* c, int ldc);

/// Null when the AVX2 translation unit was compiled without AVX2 support
/// (non-x86 target or a compiler without -mavx2/-mfma).
const Backend* avx2_backend();
/// CPUID probe (false on non-x86 builds).
bool cpu_has_avx2_fma();

}  // namespace detail

}  // namespace zeiot::ml::kernels
