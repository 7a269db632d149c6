// Multi-threaded variants of the heavy placement kernels.
//
// The GPU placer distributes per-net / per-cell work across CUDA threads; on
// a multi-core host the same kernels are partitioned across a ThreadPool:
//   * the fused WA kernel is the serial net-lane kernel (DESIGN.md §18) with
//     its fixed-size group chunks and cell ranges spread over the workers —
//     bitwise-equal to serial at any pool size,
//   * the density scatter uses per-worker bin maps reduced in worker order
//     (bitwise-deterministic for a fixed pool size); below 512 cells it runs
//     the serial kernel in place,
//   * the field gather is embarrassingly parallel (each cell's gradient slot
//     is written by exactly one worker) and bitwise-equal to the serial one.
//
// Each *_mt call still counts as one dispatcher launch: it models one fat
// kernel, not many. The fused wirelength kernel launches under the SAME op
// name as its serial twin ("fused_wl_grad_hpwl") — the backend choice changes
// how the kernel runs, not which kernel runs, so launch-count contracts hold
// for either backend. Scratch persists across launches (thread_local to the
// caller), keeping the steady-state path allocation-free.
#pragma once

#include "ops/density.h"
#include "ops/netlist_view.h"
#include "ops/wirelength.h"
#include "util/thread_pool.h"

namespace xplace::ops {

/// Pooled fused WA-wirelength + gradient + HPWL (operator combination);
/// defined with the serial kernel in wirelength.cpp.
WirelengthSums fused_wl_grad_hpwl_mt(const NetlistView& view, const float* x,
                                     const float* y, float gamma,
                                     float* grad_x, float* grad_y,
                                     ThreadPool& pool);

/// Parallel density scatter of cells [begin, end) into `map`.
void accumulate_range_mt(const DensityGrid& grid, const char* opname,
                         const float* x, const float* y, std::size_t begin,
                         std::size_t end, double* map, bool clear,
                         ThreadPool& pool);

/// Parallel density scatter of an explicit cell list (the members of one
/// fence-region system in the multi-electrostatics path).
void accumulate_cells_mt(const DensityGrid& grid, const char* opname,
                         const float* x, const float* y,
                         const std::vector<std::uint32_t>& cells, double* map,
                         bool clear, ThreadPool& pool);

/// Parallel field gather (adjoint of the scatter).
void gather_field_mt(const DensityGrid& grid, const char* opname,
                     const float* x, const float* y, std::size_t begin,
                     std::size_t end, const double* ex, const double* ey,
                     float coeff, float* grad_x, float* grad_y,
                     ThreadPool& pool);

/// Parallel field gather for an explicit cell list (fence-region systems).
void gather_field_cells_mt(const DensityGrid& grid, const char* opname,
                           const float* x, const float* y,
                           const std::vector<std::uint32_t>& cells,
                           const double* ex, const double* ey, float coeff,
                           float* grad_x, float* grad_y, ThreadPool& pool);

}  // namespace xplace::ops
