#include "kernels/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "kernels/gemm_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mldist::kernels {

namespace {

/// Per-implementation call and FLOP tallies (2*m*k*n per product), visible
/// in the obs registry as kernels.gemm.{calls,flops}.<impl>.  Ids resolve
/// once; recording is a sharded relaxed add, so the dispatch hot path never
/// takes a lock.  Call counts and FLOPs are deterministic quantities — the
/// batch grid is fixed by the options, not the worker count — so they are
/// bitwise identical for any --threads setting.
struct GemmMetrics {
  obs::MetricId calls[std::size(kAllImpls)];
  obs::MetricId flops[std::size(kAllImpls)];

  GemmMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    for (Impl impl : kAllImpls) {
      const auto i = static_cast<std::size_t>(impl);
      const std::string suffix = impl_name(impl);
      calls[i] = reg.counter("kernels.gemm.calls." + suffix);
      flops[i] = reg.counter("kernels.gemm.flops." + suffix);
    }
  }
};

}  // namespace
namespace detail {
namespace {

// Below this many fma steps the packing traffic dominates; fall through to
// the (bitwise-identical) row-broadcast product instead.
constexpr std::size_t kBlockedBypassFlops = 32u * 32u * 32u;

/// Per-thread grow-only pack buffer.  Never value-initialised: the packing
/// loops write every lane the micro-kernel reads, zero pads included.  One
/// arena per operand, so a thread holds at most the two full cache blocks
/// (mc x kKC and kKC x kNC floats) however many products it runs.
class PackArena {
 public:
  float* reserve(std::size_t floats) {
    if (capacity_ < floats) {
      data_.reset(new float[floats]);
      capacity_ = floats;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<float[]> data_;
  std::size_t capacity_ = 0;
};

/// The calling thread's two arenas, shared by every tile instantiation of
/// the driver.
struct PackArenas {
  PackArena a;
  PackArena b;
};

PackArenas& thread_arenas() {
  thread_local PackArenas arenas;
  return arenas;
}

/// Small products: c[i][:] starts at +0 and takes the row-broadcast update
/// c[i][j] = fma(a[i][kk], b[kk][j], c[i][j]) for kk ascending — each
/// element sees exactly the reference's k-ascending chain, but the inner
/// loop runs across contiguous columns, so it vectorises instead of
/// issuing one serial fma chain per element.
void gemm_small(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                float* c, std::size_t m, std::size_t k, std::size_t n,
                const GemmEpilogue& epilogue) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + static_cast<std::ptrdiff_t>(i) * a_rs;
    float* __restrict c_row = c + i * n;
    std::fill(c_row, c_row + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a_row[static_cast<std::ptrdiff_t>(kk) * a_cs];
      const float* __restrict b_row =
          b + static_cast<std::ptrdiff_t>(kk) * b_rs;
      if (b_cs == 1) {
        for (std::size_t j = 0; j < n; ++j) {
          c_row[j] = std::fmaf(av, b_row[j], c_row[j]);
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          c_row[j] = std::fmaf(
              av, b_row[static_cast<std::ptrdiff_t>(j) * b_cs], c_row[j]);
        }
      }
    }
    apply_epilogue_row(c_row, n, epilogue, 0);
  }
}

// Scalar full-tile micro-kernel for kTile6x16.  Row lanes of 16 floats
// autovectorize cleanly (two AVX vectors per row); std::fmaf keeps the
// chain explicit.
void micro_scalar(std::size_t kc, const float* ap, const float* bp,
                  float* acc) {
  constexpr int kMR = kTile6x16.mr;
  constexpr int kNR = kTile6x16.nr;
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float av = arow[r];
      float* crow = acc + r * kNR;
      for (int j = 0; j < kNR; ++j) {
        crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

}  // namespace

void gemm_reference(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                    const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                    float* c, std::size_t m, std::size_t k, std::size_t n,
                    const GemmEpilogue& epilogue) {
  // Textbook i-j-k loop: this is the executable spec every other kernel is
  // pinned against, so it stays deliberately free of blocking and packing.
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + static_cast<std::ptrdiff_t>(i) * a_rs;
    float* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_col = b + static_cast<std::ptrdiff_t>(j) * b_cs;
      c_row[j] = apply_epilogue(dot_fma(a_row, a_cs, b_col, b_rs, k),
                                epilogue, j);
    }
  }
}

void apply_epilogue_rows(float* c, std::size_t m, std::size_t n,
                         const GemmEpilogue& epilogue) {
  for (std::size_t i = 0; i < m; ++i) {
    apply_epilogue_row(c + i * n, n, epilogue, 0);
  }
}

template <Tile T>
void gemm_blocked_driver(const float* a, std::ptrdiff_t a_rs,
                         std::ptrdiff_t a_cs, const float* b,
                         std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         const GemmEpilogue& epilogue, MicroFn micro) {
  constexpr std::size_t kMR = static_cast<std::size_t>(T.mr);
  constexpr std::size_t kNR = static_cast<std::size_t>(T.nr);
  constexpr std::size_t kMC = T.mc;
  static_assert(kMC % kMR == 0 && kNC % kNR == 0,
                "cache blocks must hold whole register tiles");
  if (m == 0 || n == 0) return;
  if (m * n * k < kBlockedBypassFlops) {
    gemm_small(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
    return;
  }

  // Sized to this call's largest cache block, so small products never
  // touch (or fault in) the full kMC x kKC / kKC x kNC footprint.
  const std::size_t kc_max = std::min(k, kKC);
  const std::size_t a_strips = (std::min(m, kMC) + kMR - 1) / kMR;
  const std::size_t b_strips = (std::min(n, kNC) + kNR - 1) / kNR;
  PackArenas& arenas = thread_arenas();
  float* const apack = arenas.a.reserve(a_strips * kc_max * kMR);
  float* const bpack = arenas.b.reserve(b_strips * kc_max * kNR);
  const GemmEpilogue no_epilogue{};

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t njs = (nc + kNR - 1) / kNR;
    for (std::size_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const std::size_t kc = std::min(kKC, k - kc0);
      const bool first = kc0 == 0;
      const bool last = kc0 + kc == k;
      const GemmEpilogue& ep = last ? epilogue : no_epilogue;

      // Pack B into kNR-wide strips; edge columns are zero-padded so the
      // micro-kernel always runs a full tile.
      for (std::size_t js = 0; js < njs; ++js) {
        const std::size_t j0 = jc + js * kNR;
        const std::size_t nr = std::min(kNR, n - j0);
        float* dst = bpack + js * kc * kNR;
        for (std::size_t kk = 0; kk < kc; ++kk) {
          const float* b_row =
              b + static_cast<std::ptrdiff_t>(kc0 + kk) * b_rs;
          for (std::size_t j = 0; j < kNR; ++j) {
            dst[kk * kNR + j] =
                j < nr
                    ? b_row[static_cast<std::ptrdiff_t>(j0 + j) * b_cs]
                    : 0.0f;
          }
        }
      }

      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        const std::size_t nis = (mc + kMR - 1) / kMR;

        // Pack A into kMR-tall strips, zero-padding edge rows.
        for (std::size_t is = 0; is < nis; ++is) {
          const std::size_t i0 = ic + is * kMR;
          const std::size_t mr = std::min(kMR, m - i0);
          float* dst = apack + is * kc * kMR;
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const float* a_col =
                a + static_cast<std::ptrdiff_t>(kc0 + kk) * a_cs;
            for (std::size_t r = 0; r < kMR; ++r) {
              dst[kk * kMR + r] =
                  r < mr
                      ? a_col[static_cast<std::ptrdiff_t>(i0 + r) * a_rs]
                      : 0.0f;
            }
          }
        }

        for (std::size_t js = 0; js < njs; ++js) {
          const std::size_t j0 = jc + js * kNR;
          const std::size_t nr = std::min(kNR, n - j0);
          const float* bp = bpack + js * kc * kNR;
          for (std::size_t is = 0; is < nis; ++is) {
            const std::size_t i0 = ic + is * kMR;
            const std::size_t mr = std::min(kMR, m - i0);
            const float* ap = apack + is * kc * kMR;

            alignas(64) float acc[kMR * kNR];
            if (first) {
              std::memset(acc, 0, sizeof(acc));
            } else {
              // Resume the fma chain from the partial sums parked in C.
              for (std::size_t r = 0; r < kMR; ++r) {
                const float* c_row = c + (i0 + r) * n + j0;
                for (std::size_t j = 0; j < kNR; ++j) {
                  acc[r * kNR + j] = (r < mr && j < nr) ? c_row[j] : 0.0f;
                }
              }
            }

            micro(kc, ap, bp, acc);

            for (std::size_t r = 0; r < mr; ++r) {
              float* c_row = c + (i0 + r) * n + j0;
              std::memcpy(c_row, acc + r * kNR, nr * sizeof(float));
              apply_epilogue_row(c_row, nr, ep, j0);
            }
          }
        }
      }
    }
  }
}

template void gemm_blocked_driver<kTile6x16>(
    const float*, std::ptrdiff_t, std::ptrdiff_t, const float*,
    std::ptrdiff_t, std::ptrdiff_t, float*, std::size_t, std::size_t,
    std::size_t, const GemmEpilogue&, MicroFn);
template void gemm_blocked_driver<kTile8x32>(
    const float*, std::ptrdiff_t, std::ptrdiff_t, const float*,
    std::ptrdiff_t, std::ptrdiff_t, float*, std::size_t, std::size_t,
    std::size_t, const GemmEpilogue&, MicroFn);

void gemm_blocked(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                  const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                  float* c, std::size_t m, std::size_t k, std::size_t n,
                  const GemmEpilogue& epilogue) {
  gemm_blocked_driver<kTile6x16>(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                                 epilogue, &micro_scalar);
}

}  // namespace detail

void gemm_impl(Impl impl, const float* a, std::ptrdiff_t a_rs,
               std::ptrdiff_t a_cs, const float* b, std::ptrdiff_t b_rs,
               std::ptrdiff_t b_cs, float* c, std::size_t m, std::size_t k,
               std::size_t n, const GemmEpilogue& epilogue) {
  if (!supported(impl)) {
    throw std::invalid_argument(std::string("kernel implementation '") +
                                impl_name(impl) +
                                "' is not supported on this machine");
  }
  {
    static const GemmMetrics metrics;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const auto i = static_cast<std::size_t>(impl);
    reg.add(metrics.calls[i]);
    reg.add(metrics.flops[i], 2ull * m * k * n);
  }
  obs::Span span("gemm", "kernels");
  span.arg("impl", impl_name(impl))
      .arg("m", static_cast<std::uint64_t>(m))
      .arg("k", static_cast<std::uint64_t>(k))
      .arg("n", static_cast<std::uint64_t>(n));
  switch (impl) {
    case Impl::kReference:
      detail::gemm_reference(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                             epilogue);
      return;
    case Impl::kBlocked:
      detail::gemm_blocked(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                           epilogue);
      return;
    case Impl::kAvx2:
      detail::gemm_avx2(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
      return;
    case Impl::kAvx512:
      detail::gemm_avx512(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                          epilogue);
      return;
  }
}

void gemm(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
          const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
          std::size_t m, std::size_t k, std::size_t n,
          const GemmEpilogue& epilogue) {
  gemm_impl(dispatch(), a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
}

}  // namespace mldist::kernels
