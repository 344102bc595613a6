// GEMM kernels for the CNN hot paths, runtime-dispatched over SIMD
// backends (see ml/kernels/backend.hpp for the dispatch matrix and the
// ZEIOT_KERNEL_BACKEND override).
//
// All kernels accumulate into C (callers prefill C with the bias or zero),
// use raw pointer arithmetic with row strides, and keep a FIXED summation
// order that depends only on the operand shapes — never on the worker
// count — so layer outputs are bit-identical at any ZEIOT_THREADS value.
// The order does differ from the historical naive element loops (terms are
// grouped four at a time), which is why the layer rewrite regenerated the
// float-exact goldens once; see tests/test_ml_kernels.cpp for the
// naive-vs-GEMM equivalence bounds.
#pragma once

#include <cstddef>

namespace zeiot::ml::kernels {

/// C (m x n, row stride ldc) += A (m x k, row stride lda) * B (k x n, row
/// stride ldb).  Broadcast/axpy form: the unit-stride inner loop runs over
/// columns of C, which auto-vectorises without reassociating any per-element
/// accumulation chain.  Blocked over k and n for cache residency; per
/// element the k-terms are applied in ascending k order, grouped in fours.
void sgemm_accum(int m, int n, int k, const float* a, int lda, const float* b,
                 int ldb, float* c, int ldc);

/// C (m x n) += A (m x k) * B^T, with B stored row-major as (n x k) — the
/// weight-gradient form (dW += dY * X_col^T) that wants dot products over
/// the long shared dimension.  Register-blocked four rows of B at a time;
/// each dot product accumulates in ascending k order.
void sgemm_abt_accum(int m, int n, int k, const float* a, int lda,
                     const float* b, int ldb, float* c, int ldc);

/// dst (cols x rows, row stride ldd) = transpose of src (rows x cols, row
/// stride lds).  Tiled to keep both sides cache-friendly.
void transpose(int rows, int cols, const float* src, int lds, float* dst,
               int ldd);

}  // namespace zeiot::ml::kernels
