// Internals shared by gemm.cpp (reference + blocked scalar micro-kernel),
// gemm_avx2.cpp (AVX2 micro-kernel) and gemm_avx512.cpp (AVX-512 micro-kernel
// and narrow-output path).  Not installed; include only from src/kernels
// translation units and tests that probe tile edges.
//
// The blocked driver implements a BLIS-style structure: pack B into NR-wide
// column panels and A into MR-tall row panels per (kKC x kNC) cache block,
// then sweep a full MR x NR register tile over the packed panels.  Edge
// tiles are zero-padded in the packed panels, so the micro-kernel always
// runs full-size; only the valid mr x nr lanes are stored back.  The
// register tile is a template parameter: one driver serves every backend.
//
// Bitwise determinism: the accumulator tile is carried across k blocks
// through C itself (stored after each non-final k block and reloaded, which
// is value-preserving for floats), so each output element sees the exact
// k-ascending fma chain the reference kernel computes.  Zero-padded lanes
// only ever combine finite packed values, never touch C, and are discarded.
//
// Translation units built with wider target flags (-mavx2, -mavx512f) must
// not instantiate the inline helpers below: the linker keeps one copy of an
// inline function, and a copy compiled for a wider ISA would then run on
// hosts without it.  They call the out-of-line entry points instead.
#pragma once

#include <cmath>
#include <cstddef>

#include "kernels/gemm.hpp"

namespace mldist::kernels::detail {

inline constexpr std::size_t kKC = 256;  // k cache block
inline constexpr std::size_t kNC = 512;  // n cache block (multiple of nr)

/// A register tile: mr x nr accumulators, and the m cache block mc (a
/// multiple of mr) that sizes the packed A panel.
struct Tile {
  int mr;
  int nr;
  std::size_t mc;
};

/// blocked and avx2: 6 rows x 2 AVX2 vectors (12 ymm accumulators).
inline constexpr Tile kTile6x16{6, 16, 126};
/// avx512: 8 rows x 2 AVX-512 vectors (16 zmm accumulators).
inline constexpr Tile kTile8x32{8, 32, 120};

// Full-tile micro-kernel contract: acc is a row-major mr x nr tile
// (64-byte aligned); advance it by kc fma steps using the packed panels
// ap (kc x mr, strip-major) and bp (kc x nr, strip-major).
using MicroFn = void (*)(std::size_t kc, const float* ap, const float* bp,
                         float* acc);

inline float apply_epilogue(float v, const GemmEpilogue& ep, std::size_t j) {
  if (ep.bias != nullptr) v += ep.bias[j];
  if (ep.norm_mean != nullptr) {
    // Exactly nn::BatchNorm's inference rewrite: xhat = (v - mean) / std,
    // v = gamma * xhat + beta, with std = sqrt(var + eps) precomputed by
    // the caller (value-identical; sqrt and / are exactly rounded).
    v = ep.norm_gamma[j] * ((v - ep.norm_mean[j]) / ep.norm_std[j]) +
        ep.norm_beta[j];
  }
  // Branch shape matches nn::ReLU / nn::LeakyReLU::forward exactly (only
  // v < 0 is rewritten), so the fused epilogue is bitwise identical to the
  // separate activation layer for every input, including -0 and NaN.
  switch (ep.act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      if (v < 0.0f) v = 0.0f;
      break;
    case Activation::kLeakyRelu:
      if (v < 0.0f) v *= ep.alpha;
      break;
  }
  return v;
}

// apply_epilogue over the contiguous columns [j0, j0 + count) of one row,
// one stage at a time: every element still takes apply_epilogue's stages in
// its order with the same operations, so the result is bitwise identical,
// but each stage loop is branch-free and vectorises.
inline void apply_epilogue_row(float* v, std::size_t count,
                               const GemmEpilogue& ep, std::size_t j0) {
  if (ep.bias != nullptr) {
    const float* bias = ep.bias + j0;
    for (std::size_t j = 0; j < count; ++j) v[j] += bias[j];
  }
  if (ep.norm_mean != nullptr) {
    const float* mean = ep.norm_mean + j0;
    const float* sd = ep.norm_std + j0;
    const float* gamma = ep.norm_gamma + j0;
    const float* beta = ep.norm_beta + j0;
    for (std::size_t j = 0; j < count; ++j) {
      v[j] = gamma[j] * ((v[j] - mean[j]) / sd[j]) + beta[j];
    }
  }
  switch (ep.act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      for (std::size_t j = 0; j < count; ++j) {
        v[j] = v[j] < 0.0f ? 0.0f : v[j];
      }
      break;
    case Activation::kLeakyRelu:
      for (std::size_t j = 0; j < count; ++j) {
        v[j] = v[j] < 0.0f ? v[j] * ep.alpha : v[j];
      }
      break;
  }
}

// The reference kernel's element: one output as the canonical k-ascending
// fma chain.
inline float dot_fma(const float* a_row, std::ptrdiff_t a_cs,
                     const float* b_col, std::ptrdiff_t b_rs, std::size_t k) {
  float acc = 0.0f;
  for (std::size_t kk = 0; kk < k; ++kk) {
    acc = std::fmaf(a_row[static_cast<std::ptrdiff_t>(kk) * a_cs],
                    b_col[static_cast<std::ptrdiff_t>(kk) * b_rs], acc);
  }
  return acc;
}

// Cache-blocked packing driver; `micro` supplies the register-tile inner
// loop for tile T (scalar, AVX2 or AVX-512).  Defined in gemm.cpp and
// instantiated there for kTile6x16 and kTile8x32 only.
template <Tile T>
void gemm_blocked_driver(const float* a, std::ptrdiff_t a_rs,
                         std::ptrdiff_t a_cs, const float* b,
                         std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         const GemmEpilogue& epilogue, MicroFn micro);

extern template void gemm_blocked_driver<kTile6x16>(
    const float*, std::ptrdiff_t, std::ptrdiff_t, const float*,
    std::ptrdiff_t, std::ptrdiff_t, float*, std::size_t, std::size_t,
    std::size_t, const GemmEpilogue&, MicroFn);
extern template void gemm_blocked_driver<kTile8x32>(
    const float*, std::ptrdiff_t, std::ptrdiff_t, const float*,
    std::ptrdiff_t, std::ptrdiff_t, float*, std::size_t, std::size_t,
    std::size_t, const GemmEpilogue&, MicroFn);

// apply_epilogue_row over every row of a contiguous m x n C.  Out of line
// (gemm.cpp) so wider-ISA translation units reuse the one epilogue.
void apply_epilogue_rows(float* c, std::size_t m, std::size_t n,
                         const GemmEpilogue& epilogue);

}  // namespace mldist::kernels::detail
