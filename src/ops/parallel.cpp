#include "ops/parallel.h"

#include <algorithm>
#include <vector>

#include "tensor/dispatch.h"
#include "util/simd.h"

namespace xplace::ops {

using tensor::Dispatcher;

namespace {

/// Per-partition density maps reused across launches, owned by the calling
/// thread (thread_local so concurrent callers never share them). Each map is
/// zeroed inside its partition's own task — in parallel — so the
/// steady-state per-iteration cost is a fill, not a round of allocations.
std::vector<std::vector<double>>& partition_bins() {
  static thread_local std::vector<std::vector<double>> bins;
  return bins;
}

/// Shared core of the two parallel scatters: partitioned accumulation into
/// per-slot bin maps followed by a deterministic parallel bin reduction.
/// Small inputs run the serial kernel in place.
void scatter_partitioned(const DensityGrid& grid, const float* x,
                         const float* y, simd::CellSet cells, double* map,
                         bool clear, ThreadPool& pool) {
  const std::size_t workers = pool.size();
  if (workers <= 1 || cells.count < 512) {
    if (clear) std::fill(map, map + grid.num_bins(), 0.0);
    grid.scatter(x, y, cells, map);
    return;
  }
  auto& bins = partition_bins();
  if (bins.size() < workers) bins.resize(workers);
  pool.parallel_for(
      workers,
      [&](std::size_t b, std::size_t e_, std::size_t) {
        for (std::size_t w = b; w < e_; ++w) {
          bins[w].assign(grid.num_bins(), 0.0);
          grid.scatter(x, y,
                       cells.slice(w * cells.count / workers,
                                   (w + 1) * cells.count / workers),
                       bins[w].data());
        }
      },
      /*grain=*/1);
  // Each bin folds its partitions in fixed slot order — deterministic and
  // matching the historical serial reduction order (base + p0 + p1 + …).
  pool.parallel_for(grid.num_bins(),
                    [&](std::size_t b, std::size_t e_, std::size_t) {
                      for (std::size_t bin = b; bin < e_; ++bin) {
                        double acc = clear ? 0.0 : map[bin];
                        for (std::size_t w = 0; w < workers; ++w) {
                          acc += bins[w][bin];
                        }
                        map[bin] = acc;
                      }
                    });
}

}  // namespace

void accumulate_range_mt(const DensityGrid& grid, const char* opname,
                         const float* x, const float* y, std::size_t begin,
                         std::size_t end, double* map, bool clear,
                         ThreadPool& pool) {
  Dispatcher::global().run(opname, [&] {
    scatter_partitioned(grid, x, y, {nullptr, begin, end - begin}, map, clear,
                        pool);
  });
}

void accumulate_cells_mt(const DensityGrid& grid, const char* opname,
                         const float* x, const float* y,
                         const std::vector<std::uint32_t>& cells, double* map,
                         bool clear, ThreadPool& pool) {
  Dispatcher::global().run(opname, [&] {
    scatter_partitioned(grid, x, y, {cells.data(), 0, cells.size()}, map,
                        clear, pool);
  });
}

void gather_field_mt(const DensityGrid& grid, const char* opname,
                     const float* x, const float* y, std::size_t begin,
                     std::size_t end, const double* ex, const double* ey,
                     float coeff, float* grad_x, float* grad_y,
                     ThreadPool& pool) {
  // Each cell owns its gradient slot and is computed exactly as the serial
  // kernel computes it.
  Dispatcher::global().run(opname, [&] {
    pool.parallel_for(end - begin,
                      [&](std::size_t b, std::size_t e, std::size_t) {
                        grid.gather(x, y, {nullptr, begin + b, e - b}, ex, ey,
                                    coeff, grad_x, grad_y);
                      });
  });
}

void gather_field_cells_mt(const DensityGrid& grid, const char* opname,
                           const float* x, const float* y,
                           const std::vector<std::uint32_t>& cells,
                           const double* ex, const double* ey, float coeff,
                           float* grad_x, float* grad_y, ThreadPool& pool) {
  Dispatcher::global().run(opname, [&] {
    pool.parallel_for(cells.size(),
                      [&](std::size_t b, std::size_t e, std::size_t) {
                        grid.gather(x, y, {cells.data() + b, 0, e - b}, ex, ey,
                                    coeff, grad_x, grad_y);
                      });
  });
}

}  // namespace xplace::ops
