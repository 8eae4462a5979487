#include "kernels/dispatch.hpp"

#include <cstdlib>
#include <stdexcept>

#include "obs/log.hpp"

namespace mldist::kernels {

// Defined in gemm_avx2.cpp / gemm_avx512.cpp so the answer reflects how
// that translation unit was actually compiled.
bool detail_avx2_compiled();
bool detail_avx512_compiled();

namespace {

struct State {
  Impl active;
  std::string env;

  State() {
    const char* raw = std::getenv("MLDIST_KERNEL");
    env = raw ? raw : "";
    active = best_supported();
    if (!env.empty()) {
      Impl requested;
      if (backend_from_string(env, requested, "MLDIST_KERNEL")) {
        active = requested;
      } else {
        obs::log_warn("kernels", "falling back to best supported kernel")
            .field("using", impl_name(active));
      }
    }
  }

  static Impl best_supported() {
    for (Impl impl : {Impl::kAvx512, Impl::kAvx2}) {
      if (supported(impl)) return impl;
    }
    return Impl::kBlocked;
  }
};

State& state() {
  static State s;
  return s;
}

}  // namespace

const char* impl_name(Impl impl) {
  switch (impl) {
    case Impl::kReference:
      return "reference";
    case Impl::kBlocked:
      return "blocked";
    case Impl::kAvx2:
      return "avx2";
    case Impl::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_impl(std::string_view name, Impl& out) {
  if (name == "reference") {
    out = Impl::kReference;
    return true;
  }
  if (name == "blocked") {
    out = Impl::kBlocked;
    return true;
  }
  if (name == "avx2") {
    out = Impl::kAvx2;
    return true;
  }
  if (name == "avx512") {
    out = Impl::kAvx512;
    return true;
  }
  return false;
}

bool backend_from_string(std::string_view name, Impl& out,
                         std::string_view source) {
  Impl impl;
  if (!parse_impl(name, impl)) {
    obs::log_warn("kernels", "unknown kernel backend '" + std::string(name) +
                                 "' (expected reference|blocked|avx2|avx512)")
        .field("source", source);
    return false;
  }
  if (!supported(impl)) {
    obs::log_warn("kernels", "kernel backend '" + std::string(name) +
                                 "' is not supported on this machine")
        .field("source", source);
    return false;
  }
  out = impl;
  return true;
}

bool supported(Impl impl) {
  switch (impl) {
    case Impl::kReference:
    case Impl::kBlocked:
      return true;
    case Impl::kAvx2:
      return detail_avx2_compiled() && __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma");
    case Impl::kAvx512:
      return detail_avx512_compiled() && __builtin_cpu_supports("avx512f");
  }
  return false;
}

std::vector<Impl> available_impls() {
  std::vector<Impl> impls;
  for (Impl impl : kAllImpls) {
    if (supported(impl)) impls.push_back(impl);
  }
  return impls;
}

Impl dispatch() { return state().active; }

void set_dispatch(Impl impl) {
  if (!supported(impl)) {
    throw std::invalid_argument(std::string("kernel implementation '") +
                                impl_name(impl) +
                                "' is not supported on this machine");
  }
  state().active = impl;
}

void set_dispatch(std::string_view name) {
  Impl impl;
  if (!parse_impl(name, impl)) {
    throw std::invalid_argument("unknown kernel '" + std::string(name) +
                                "' (expected reference|blocked|avx2|avx512)");
  }
  set_dispatch(impl);
}

const std::string& env_request() { return state().env; }

}  // namespace mldist::kernels
