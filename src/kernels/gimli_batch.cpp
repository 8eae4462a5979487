#include "kernels/gimli_batch.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mldist::kernels {

namespace {

/// kernels.gimli.{calls,states,rounds}.<impl> — same shape as the GEMM
/// tallies: deterministic quantities, sharded lock-free recording.  Only
/// the two sweeps that exist are named; avx2 dispatch counts as blocked.
struct GimliMetrics {
  obs::MetricId calls[2];
  obs::MetricId states[2];
  obs::MetricId rounds[2];

  GimliMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    for (Impl impl : {Impl::kReference, Impl::kBlocked}) {
      const auto i = static_cast<std::size_t>(impl);
      const std::string suffix = impl_name(impl);
      calls[i] = reg.counter("kernels.gimli.calls." + suffix);
      states[i] = reg.counter("kernels.gimli.states." + suffix);
      rounds[i] = reg.counter("kernels.gimli.rounds." + suffix);
    }
  }
};

constexpr std::uint32_t kGimliRcBase = 0x9e377900u;

/// Rounds hi..lo on a single state whose word w lives at words[w * stride]
/// (stride = n for a state embedded in an SoA block): the reference sweep,
/// and the remainder-lane handler of the blocked one.
void gimli_rounds_one(std::uint32_t* words, std::size_t stride, int hi,
                      int lo) {
  std::uint32_t s[12];
  for (int w = 0; w < 12; ++w) s[w] = words[static_cast<std::size_t>(w) * stride];
  for (int r = hi; r >= lo; --r) {
    for (int j = 0; j < 4; ++j) {
      const std::uint32_t x = std::rotl(s[j], 24);
      const std::uint32_t y = std::rotl(s[4 + j], 9);
      const std::uint32_t z = s[8 + j];
      s[8 + j] = x ^ (z << 1) ^ ((y & z) << 2);
      s[4 + j] = y ^ x ^ ((x | z) << 1);
      s[j] = z ^ y ^ ((x & y) << 3);
    }
    if (r % 4 == 0) {
      std::swap(s[0], s[1]);
      std::swap(s[2], s[3]);
      s[0] ^= kGimliRcBase ^ static_cast<std::uint32_t>(r);
    } else if (r % 4 == 2) {
      std::swap(s[0], s[2]);
      std::swap(s[1], s[3]);
    }
  }
  for (int w = 0; w < 12; ++w) words[static_cast<std::size_t>(w) * stride] = s[w];
}

// Lane-blocked sweep: pull L states into a 12xL register block, run the
// whole round window there (swaps become register/array renames), store
// back.  The fixed inner trip count of L lanes autovectorizes.
template <int L>
void gimli_rounds_lanes(std::uint32_t* soa, std::size_t n, std::size_t s0,
                        int hi, int lo) {
  std::uint32_t v[12][L];
  for (int w = 0; w < 12; ++w) {
    const std::uint32_t* src = soa + static_cast<std::size_t>(w) * n + s0;
    for (int l = 0; l < L; ++l) v[w][l] = src[l];
  }
  for (int r = hi; r >= lo; --r) {
    for (int j = 0; j < 4; ++j) {
      for (int l = 0; l < L; ++l) {
        const std::uint32_t x = std::rotl(v[j][l], 24);
        const std::uint32_t y = std::rotl(v[4 + j][l], 9);
        const std::uint32_t z = v[8 + j][l];
        v[8 + j][l] = x ^ (z << 1) ^ ((y & z) << 2);
        v[4 + j][l] = y ^ x ^ ((x | z) << 1);
        v[j][l] = z ^ y ^ ((x & y) << 3);
      }
    }
    if (r % 4 == 0) {
      const std::uint32_t rc = kGimliRcBase ^ static_cast<std::uint32_t>(r);
      for (int l = 0; l < L; ++l) {
        std::swap(v[0][l], v[1][l]);
        std::swap(v[2][l], v[3][l]);
        v[0][l] ^= rc;
      }
    } else if (r % 4 == 2) {
      for (int l = 0; l < L; ++l) {
        std::swap(v[0][l], v[2][l]);
        std::swap(v[1][l], v[3][l]);
      }
    }
  }
  for (int w = 0; w < 12; ++w) {
    std::uint32_t* dst = soa + static_cast<std::size_t>(w) * n + s0;
    for (int l = 0; l < L; ++l) dst[l] = v[w][l];
  }
}

void gimli_batch_reference(std::uint32_t* soa, std::size_t n, int hi,
                           int lo) {
  for (std::size_t s = 0; s < n; ++s) gimli_rounds_one(soa + s, n, hi, lo);
}

void gimli_batch_blocked(std::uint32_t* soa, std::size_t n, int hi, int lo) {
  constexpr int kLanes = 16;
  std::size_t s = 0;
  for (; s + kLanes <= n; s += kLanes) {
    gimli_rounds_lanes<kLanes>(soa, n, s, hi, lo);
  }
  for (; s < n; ++s) gimli_rounds_one(soa + s, n, hi, lo);
}

}  // namespace

void gimli_rounds_batch_impl(Impl impl, std::uint32_t* soa, std::size_t n,
                             int hi, int lo) {
  assert(1 <= lo && lo <= hi && hi <= 24);
  if (n == 0) return;
  if (!supported(impl)) {
    throw std::invalid_argument(std::string("kernel implementation '") +
                                impl_name(impl) +
                                "' is not supported on this machine");
  }
  // The integer sweep has no SIMD variant of its own: the blocked sweep
  // autovectorises, so avx2 dispatch runs it and telemetry names it.
  const Impl ran = impl == Impl::kReference ? Impl::kReference : Impl::kBlocked;
  {
    static const GimliMetrics metrics;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const auto i = static_cast<std::size_t>(ran);
    reg.add(metrics.calls[i]);
    reg.add(metrics.states[i], n);
    reg.add(metrics.rounds[i], n * static_cast<std::size_t>(hi - lo + 1));
  }
  obs::Span span("gimli", "kernels");
  span.arg("impl", impl_name(ran))
      .arg("states", static_cast<std::uint64_t>(n))
      .arg("rounds", hi - lo + 1);
  if (ran == Impl::kReference) {
    gimli_batch_reference(soa, n, hi, lo);
  } else {
    gimli_batch_blocked(soa, n, hi, lo);
  }
}

void gimli_rounds_batch(std::uint32_t* soa, std::size_t n, int hi, int lo) {
  gimli_rounds_batch_impl(dispatch(), soa, n, hi, lo);
}

}  // namespace mldist::kernels
