// The pooled kernel names older callers use (the flow benchmark among them).
// Each kernel now takes its pool as a trailing argument (density.h,
// wirelength.h); these forward to it.
#pragma once

#include "ops/density.h"
#include "ops/wirelength.h"

namespace xplace::ops {

inline WirelengthSums fused_wl_grad_hpwl_mt(const NetlistView& view,
                                            const float* x, const float* y,
                                            float gamma, float* grad_x,
                                            float* grad_y, ThreadPool& pool) {
  return fused_wl_grad_hpwl(view, x, y, gamma, grad_x, grad_y, &pool);
}

inline void accumulate_range_mt(const DensityGrid& grid, const char* opname,
                                const float* x, const float* y,
                                std::size_t begin, std::size_t end,
                                double* map, bool clear, ThreadPool& pool) {
  grid.accumulate_range(opname, x, y, begin, end, map, clear, &pool);
}

inline void gather_field_mt(const DensityGrid& grid, const char* opname,
                            const float* x, const float* y, std::size_t begin,
                            std::size_t end, const double* ex,
                            const double* ey, float coeff, float* grad_x,
                            float* grad_y, ThreadPool& pool) {
  grid.gather_field(opname, x, y, begin, end, ex, ey, coeff, grad_x, grad_y,
                    &pool);
}

}  // namespace xplace::ops
