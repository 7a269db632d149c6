#include "ops/parallel.h"

#include <algorithm>
#include <vector>

#include "ops/wa_detail.h"
#include "tensor/dispatch.h"
#include "util/simd.h"

namespace xplace::ops {

using tensor::Dispatcher;

namespace {

/// Per-partition scratch reused across launches, owned by the calling thread
/// (thread_local so concurrent callers never share it). Buffers are zeroed
/// inside each partition's own task — in parallel — so the steady-state
/// per-iteration cost is a fill, not a round of heap allocations.
struct PartitionScratch {
  std::vector<std::vector<float>> gx, gy;  // per-partition cell gradients
  std::vector<std::vector<double>> bins;   // per-partition density maps
  std::vector<double> wa, hp;              // per-partition scalar sums
};

PartitionScratch& scratch() {
  static thread_local PartitionScratch s;
  return s;
}

template <typename T>
void ensure_buffers(std::vector<std::vector<T>>& bufs, std::size_t workers) {
  if (bufs.size() < workers) bufs.resize(workers);
}

}  // namespace

WirelengthSums fused_wl_grad_hpwl_mt(const NetlistView& v, const float* x,
                                     const float* y, float gamma,
                                     float* grad_x, float* grad_y,
                                     ThreadPool& pool) {
  WirelengthSums sums;
  // Same op name as the serial kernel: the backend changes how the kernel
  // runs, not which kernel runs, so launch-count contracts hold either way.
  Dispatcher::global().run("fused_wl_grad_hpwl", [&] {
    const float inv_gamma = 1.0f / gamma;
    const std::size_t workers = pool.size();
    const simd::Kernels& k = simd::active();
    if (workers <= 1 || v.num_nets < 256) {
      if (k.isa == simd::Isa::kScalar) {
        for (std::size_t e = 0; e < v.num_nets; ++e) {
          if (!v.net_mask[e]) continue;
          detail::fused_net(v, e, x, y, inv_gamma, grad_x, grad_y, sums.wa,
                            sums.hpwl);
        }
      } else {
        thread_local detail::WaBatchScratch sc;
        detail::fused_range_simd(k, v, 0, v.num_nets, x, y, inv_gamma, grad_x,
                                 grad_y, sums.wa, sums.hpwl, sc);
      }
      return;
    }
    const std::size_t n_cells = v.num_cells;
    auto& s = scratch();
    ensure_buffers(s.gx, workers);
    ensure_buffers(s.gy, workers);
    s.wa.assign(workers, 0.0);
    s.hp.assign(workers, 0.0);
    // Static partition: worker slot w owns nets [w·N/W, (w+1)·N/W) and a
    // private gradient buffer (grain 1 → exactly one task per slot).
    pool.parallel_for(
        workers,
        [&](std::size_t b, std::size_t e_, std::size_t) {
          for (std::size_t w = b; w < e_; ++w) {
            s.gx[w].assign(n_cells, 0.0f);
            s.gy[w].assign(n_cells, 0.0f);
            const std::size_t lo = w * v.num_nets / workers;
            const std::size_t hi = (w + 1) * v.num_nets / workers;
            if (k.isa == simd::Isa::kScalar) {
              for (std::size_t e = lo; e < hi; ++e) {
                if (!v.net_mask[e]) continue;
                detail::fused_net(v, e, x, y, inv_gamma, s.gx[w].data(),
                                  s.gy[w].data(), s.wa[w], s.hp[w]);
              }
            } else {
              // Vector lanes inside each worker's chunk; per-slot double
              // accumulators keep the slot-ordered reduction deterministic.
              thread_local detail::WaBatchScratch sc;
              detail::fused_range_simd(k, v, lo, hi, x, y, inv_gamma,
                                       s.gx[w].data(), s.gy[w].data(),
                                       s.wa[w], s.hp[w], sc);
            }
          }
        },
        /*grain=*/1);
    // Deterministic parallel reduction: every cell sums its partitions in
    // fixed slot order, regardless of which thread handles the cell.
    pool.parallel_for(n_cells, [&](std::size_t b, std::size_t e_, std::size_t) {
      for (std::size_t c = b; c < e_; ++c) {
        float ax = 0.0f, ay = 0.0f;
        for (std::size_t w = 0; w < workers; ++w) {
          ax += s.gx[w][c];
          ay += s.gy[w][c];
        }
        grad_x[c] += ax;
        grad_y[c] += ay;
      }
    });
    for (std::size_t w = 0; w < workers; ++w) {
      sums.wa += s.wa[w];
      sums.hpwl += s.hp[w];
    }
  });
  return sums;
}

namespace {

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
  auto& s = scratch();
  ensure_buffers(s.bins, workers);
  pool.parallel_for(
      workers,
      [&](std::size_t b, std::size_t e_, std::size_t) {
        for (std::size_t w = b; w < e_; ++w) {
          s.bins[w].assign(grid.num_bins(), 0.0);
          grid.scatter(x, y,
                       cells.slice(w * cells.count / workers,
                                   (w + 1) * cells.count / workers),
                       s.bins[w].data());
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
                          acc += s.bins[w][bin];
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
