// AVX-512F micro-kernel and narrow-output path.  This translation unit is
// compiled with -mavx512f -mfma when the compiler supports them; the rest of
// the library never executes this code unless runtime CPU detection
// (kernels::supported) says the host has AVX-512F.
//
// Two paths, one contract:
//   * n >= kNarrowCols: the blocked driver with an 8x32 register tile — 16
//     zmm accumulators; each fma step broadcasts one packed A element per
//     row against two packed B vectors.
//   * n < kNarrowCols (the t-class head of every distinguisher): a 32-wide
//     tile would be mostly zero padding, so the vector lanes run over 16
//     ROWS of C instead, one accumulator per output column.  A's k-th column
//     for 16 rows is a plain load when A is column-contiguous (a_rs == 1,
//     the fit's dW = X^T dY), a 16x16 in-register transpose of 16 row
//     segments when A is row-contiguous (a_cs == 1, every forward), and a
//     gather otherwise; B[k, j] is broadcast.
// Either way each output element is the k-ascending _mm512_fmadd_ps chain
// from +0 — lane by lane the identical fused operation as the scalar
// std::fmaf chain — followed by the shared row epilogue, so the result is
// bitwise equal to the reference kernel.
//
// Only intrinsics and plain arithmetic appear here: no inline function
// shared with other translation units is instantiated with AVX-512 enabled
// (see gemm_internal.hpp).
#include <cstdint>

#include "kernels/gemm.hpp"
#include "kernels/gemm_internal.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
// GCC 12's avx512fintrin.h seeds the unused source operand of unmasked
// shuffles and gathers with a self-initialised vector, which
// -W(maybe-)uninitialized then reports at every inlined call (GCC bug
// 105593).  The state set here covers the header's lines, where the
// warning points.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#endif

namespace mldist::kernels {

bool detail_avx512_compiled() {
#if defined(__AVX512F__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}

namespace detail {

#if defined(__AVX512F__) && defined(__FMA__)
namespace {

constexpr int kMR = kTile8x32.mr;
constexpr int kNR = kTile8x32.nr;
constexpr std::size_t kNarrowCols = 8;  // n below this takes the row path
constexpr std::size_t kLanes = 16;

void micro_avx512(std::size_t kc, const float* ap, const float* bp,
                  float* acc) {
  static_assert(kMR == 8 && kNR == 32,
                "micro_avx512 is written for an 8x32 register tile");
  __m512 c0[kMR];
  __m512 c1[kMR];
#pragma GCC unroll 8
  for (int r = 0; r < kMR; ++r) {
    c0[r] = _mm512_load_ps(acc + r * kNR);
    c1[r] = _mm512_load_ps(acc + r * kNR + 16);
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(bp + kk * kNR);
    const __m512 b1 = _mm512_loadu_ps(bp + kk * kNR + 16);
    const float* arow = ap + kk * kMR;
#pragma GCC unroll 8
    for (int r = 0; r < kMR; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kMR; ++r) {
    _mm512_store_ps(acc + r * kNR, c0[r]);
    _mm512_store_ps(acc + r * kNR + 16, c1[r]);
  }
}

// In-place transpose of a 16x16 tile held as 16 row vectors: afterwards
// t[q] lane r holds what t[r] lane q held.  Four shuffle stages of 16.
inline void transpose16(__m512 t[16]) {
  __m512 u[16];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    u[2 * i] = _mm512_unpacklo_ps(t[2 * i], t[2 * i + 1]);
    u[2 * i + 1] = _mm512_unpackhi_ps(t[2 * i], t[2 * i + 1]);
  }
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const __m512d u0 = _mm512_castps_pd(u[4 * i]);
    const __m512d u1 = _mm512_castps_pd(u[4 * i + 1]);
    const __m512d u2 = _mm512_castps_pd(u[4 * i + 2]);
    const __m512d u3 = _mm512_castps_pd(u[4 * i + 3]);
    t[4 * i] = _mm512_castpd_ps(_mm512_unpacklo_pd(u0, u2));
    t[4 * i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(u0, u2));
    t[4 * i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(u1, u3));
    t[4 * i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(u1, u3));
  }
#pragma GCC unroll 2
  for (int i = 0; i < 2; ++i) {
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      u[8 * i + j] = _mm512_shuffle_f32x4(t[8 * i + j], t[8 * i + j + 4], 0x88);
      u[8 * i + j + 4] =
          _mm512_shuffle_f32x4(t[8 * i + j], t[8 * i + j + 4], 0xdd);
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    t[j] = _mm512_shuffle_f32x4(u[j], u[j + 8], 0x88);
    t[j + 8] = _mm512_shuffle_f32x4(u[j], u[j + 8], 0xdd);
  }
}

// One narrow row block: the N column chains of up to 16 rows of C starting
// at row i0 (`rows` of them valid), written to C without the epilogue.
// Lanes past `rows` read a valid row again and are never stored.
template <int N>
void narrow_block(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                  const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                  float* c, std::size_t i0, std::size_t rows,
                  std::size_t k) {
  __m512 acc[N];
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j) acc[j] = _mm512_setzero_ps();
  const auto step = [&](__m512 a_col, std::size_t kk) {
    const float* b_row = b + static_cast<std::ptrdiff_t>(kk) * b_rs;
#pragma GCC unroll 8
    for (int j = 0; j < N; ++j) {
      acc[j] = _mm512_fmadd_ps(a_col, _mm512_set1_ps(b_row[j * b_cs]),
                               acc[j]);
    }
  };
  const float* a_block = a + static_cast<std::ptrdiff_t>(i0) * a_rs;

  if (a_rs == 1) {
    // Column-contiguous A: the 16 rows of column kk are adjacent.
    const __mmask16 valid = static_cast<__mmask16>((1u << rows) - 1u);
    for (std::size_t kk = 0; kk < k; ++kk) {
      step(_mm512_maskz_loadu_ps(
               valid, a_block + static_cast<std::ptrdiff_t>(kk) * a_cs),
           kk);
    }
  } else if (a_cs == 1) {
    // Row-contiguous A: load 16 row segments of 16 k, transpose, and run
    // the 16 columns in k order.
    const float* row[kLanes];
    for (std::size_t r = 0; r < kLanes; ++r) {
      const std::size_t src = r < rows ? r : rows - 1;
      row[r] = a_block + static_cast<std::ptrdiff_t>(src) * a_rs;
    }
    for (std::size_t k0 = 0; k0 < k; k0 += kLanes) {
      const std::size_t kn = k - k0 < kLanes ? k - k0 : kLanes;
      const __mmask16 kmask = static_cast<__mmask16>((1u << kn) - 1u);
      __m512 t[kLanes];
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kLanes; ++r) {
        t[r] = _mm512_maskz_loadu_ps(kmask, row[r] + k0);
      }
      transpose16(t);
      if (kn == kLanes) {
#pragma GCC unroll 16
        for (std::size_t q = 0; q < kLanes; ++q) step(t[q], k0 + q);
      } else {
        for (std::size_t q = 0; q < kn; ++q) step(t[q], k0 + q);
      }
    }
  } else {
    // Any other stride: gather the 16 rows of column kk.
    alignas(64) std::int32_t offset[kLanes];
    for (std::size_t r = 0; r < kLanes; ++r) {
      const std::size_t src = r < rows ? r : rows - 1;
      offset[r] = static_cast<std::int32_t>(static_cast<std::ptrdiff_t>(src) *
                                            a_rs);
    }
    const __m512i index = _mm512_load_si512(offset);
    for (std::size_t kk = 0; kk < k; ++kk) {
      step(_mm512_i32gather_ps(
               index, a_block + static_cast<std::ptrdiff_t>(kk) * a_cs, 4),
           kk);
    }
  }

  alignas(64) float lanes[N][kLanes];
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j) _mm512_store_ps(lanes[j], acc[j]);
  for (std::size_t r = 0; r < rows; ++r) {
    float* c_row = c + (i0 + r) * static_cast<std::size_t>(N);
    for (int j = 0; j < N; ++j) c_row[j] = lanes[j][r];
  }
}

template <int N>
void gemm_narrow(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                 const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                 float* c, std::size_t m, std::size_t k) {
  for (std::size_t i0 = 0; i0 < m; i0 += kLanes) {
    const std::size_t rows = m - i0 < kLanes ? m - i0 : kLanes;
    narrow_block<N>(a, a_rs, a_cs, b, b_rs, b_cs, c, i0, rows, k);
  }
}

// The gather path addresses rows through 32-bit element offsets.
bool gather_reachable(std::ptrdiff_t a_rs, std::ptrdiff_t a_cs) {
  if (a_rs == 1 || a_cs == 1) return true;
  const std::ptrdiff_t span = static_cast<std::ptrdiff_t>(kLanes - 1) * a_rs;
  return span <= INT32_MAX && span >= INT32_MIN;
}

}  // namespace

void gemm_avx512_tiled(const float* a, std::ptrdiff_t a_rs,
                       std::ptrdiff_t a_cs, const float* b,
                       std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
                       std::size_t m, std::size_t k, std::size_t n,
                       const GemmEpilogue& epilogue) {
  gemm_blocked_driver<kTile8x32>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                                 epilogue, &micro_avx512);
}

void gemm_avx512(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                 const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                 float* c, std::size_t m, std::size_t k, std::size_t n,
                 const GemmEpilogue& epilogue) {
  if (m == 0 || n == 0) return;
  if (n >= kNarrowCols || !gather_reachable(a_rs, a_cs)) {
    gemm_avx512_tiled(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
    return;
  }
  switch (n) {
    case 1:
      gemm_narrow<1>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
    case 2:
      gemm_narrow<2>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
    case 3:
      gemm_narrow<3>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
    case 4:
      gemm_narrow<4>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
    case 5:
      gemm_narrow<5>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
    case 6:
      gemm_narrow<6>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
    default:
      gemm_narrow<7>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k);
      break;
  }
  apply_epilogue_rows(c, m, n, epilogue);
}

#else  // !(__AVX512F__ && __FMA__)

// Build without AVX-512 support: supported(kAvx512) is false, so these
// entries are unreachable through dispatch; delegate to blocked for safety.
void gemm_avx512_tiled(const float* a, std::ptrdiff_t a_rs,
                       std::ptrdiff_t a_cs, const float* b,
                       std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
                       std::size_t m, std::size_t k, std::size_t n,
                       const GemmEpilogue& epilogue) {
  gemm_blocked(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
}

void gemm_avx512(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                 const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                 float* c, std::size_t m, std::size_t k, std::size_t n,
                 const GemmEpilogue& epilogue) {
  gemm_blocked(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
}

#endif

}  // namespace detail
}  // namespace mldist::kernels
