#include "kernels/norm_act.hpp"

#include "kernels/gemm_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mldist::kernels {

void norm_act_inplace(float* c, std::size_t rows, std::size_t cols,
                      const GemmEpilogue& epilogue) {
  {
    static const obs::MetricId calls =
        obs::MetricsRegistry::global().counter("kernels.norm_act.calls");
    obs::MetricsRegistry::global().add(calls);
  }
  obs::Span span("norm_act", "kernels");
  span.arg("rows", static_cast<std::uint64_t>(rows))
      .arg("cols", static_cast<std::uint64_t>(cols));
  detail::apply_epilogue_rows(c, rows, cols, epilogue);
}

}  // namespace mldist::kernels
