// AVX2+FMA micro-kernel for the blocked GEMM driver.  This translation unit
// is compiled with -mavx2 -mfma when the compiler supports them; the rest of
// the library never executes this code unless runtime CPU detection
// (kernels::supported) says the host has both features.
//
// The 6x16 register tile (kTile6x16) holds 12 accumulator ymm registers; each fma step
// broadcasts one packed A element per row and multiplies it against two
// packed B vectors.  _mm256_fmadd_ps performs the identical fused operation
// as the scalar std::fmaf chain, lane by lane, so the result is bitwise
// equal to the reference kernel.
#include "kernels/gemm.hpp"
#include "kernels/gemm_internal.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace mldist::kernels {

bool detail_avx2_compiled() {
#if defined(__AVX2__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}

namespace detail {

#if defined(__AVX2__) && defined(__FMA__)
namespace {

constexpr int kMR = kTile6x16.mr;
constexpr int kNR = kTile6x16.nr;

void micro_avx2(std::size_t kc, const float* ap, const float* bp,
                float* acc) {
  static_assert(kMR == 6 && kNR == 16,
                "micro_avx2 is written for a 6x16 register tile");
  __m256 c00 = _mm256_load_ps(acc + 0 * kNR);
  __m256 c01 = _mm256_load_ps(acc + 0 * kNR + 8);
  __m256 c10 = _mm256_load_ps(acc + 1 * kNR);
  __m256 c11 = _mm256_load_ps(acc + 1 * kNR + 8);
  __m256 c20 = _mm256_load_ps(acc + 2 * kNR);
  __m256 c21 = _mm256_load_ps(acc + 2 * kNR + 8);
  __m256 c30 = _mm256_load_ps(acc + 3 * kNR);
  __m256 c31 = _mm256_load_ps(acc + 3 * kNR + 8);
  __m256 c40 = _mm256_load_ps(acc + 4 * kNR);
  __m256 c41 = _mm256_load_ps(acc + 4 * kNR + 8);
  __m256 c50 = _mm256_load_ps(acc + 5 * kNR);
  __m256 c51 = _mm256_load_ps(acc + 5 * kNR + 8);

  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNR + 8);
    const float* arow = ap + kk * kMR;

    __m256 av = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(arow + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(arow + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }

  _mm256_store_ps(acc + 0 * kNR, c00);
  _mm256_store_ps(acc + 0 * kNR + 8, c01);
  _mm256_store_ps(acc + 1 * kNR, c10);
  _mm256_store_ps(acc + 1 * kNR + 8, c11);
  _mm256_store_ps(acc + 2 * kNR, c20);
  _mm256_store_ps(acc + 2 * kNR + 8, c21);
  _mm256_store_ps(acc + 3 * kNR, c30);
  _mm256_store_ps(acc + 3 * kNR + 8, c31);
  _mm256_store_ps(acc + 4 * kNR, c40);
  _mm256_store_ps(acc + 4 * kNR + 8, c41);
  _mm256_store_ps(acc + 5 * kNR, c50);
  _mm256_store_ps(acc + 5 * kNR + 8, c51);
}

}  // namespace

void gemm_avx2(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
               const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const GemmEpilogue& epilogue) {
  gemm_blocked_driver<kTile6x16>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                                 epilogue, &micro_avx2);
}

#else  // !(__AVX2__ && __FMA__)

// Build without AVX2 support: supported(kAvx2) is false, so this entry is
// unreachable through dispatch; delegate to blocked for safety.
void gemm_avx2(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
               const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const GemmEpilogue& epilogue) {
  gemm_blocked(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
}

#endif

}  // namespace detail
}  // namespace mldist::kernels
