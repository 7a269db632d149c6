#include "ops/density.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fft/fft.h"
#include "tensor/dispatch.h"
#include "util/geometry.h"
#include "util/thread_pool.h"

namespace xplace::ops {

using tensor::Dispatcher;

namespace {

/// Per-worker density maps reused across launches, owned by the calling
/// thread (thread_local so concurrent callers never share them). Each map is
/// zeroed inside its worker's own task — in parallel — so the steady-state
/// per-iteration cost is a fill, not a round of allocations.
std::vector<std::vector<double>>& partition_bins() {
  static thread_local std::vector<std::vector<double>> bins;
  return bins;
}

/// The scatter behind accumulate_range/accumulate_cells (density.h): in
/// place without a pool or below 512 cells, else per-worker maps folded in
/// worker order.
void scatter_cells(const DensityGrid& grid, const float* x, const float* y,
                   simd::CellSet cells, double* map, bool clear,
                   ThreadPool* pool) {
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  if (workers <= 1 || cells.count < 512) {
    if (clear) std::fill(map, map + grid.num_bins(), 0.0);
    grid.scatter(x, y, cells, map);
    return;
  }
  auto& bins = partition_bins();
  if (bins.size() < workers) bins.resize(workers);
  pool->parallel_for(
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
  // Each bin folds its partitions in fixed slot order (base + p0 + p1 + …).
  pool->parallel_for(grid.num_bins(),
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

/// The gather behind gather_field/gather_field_cells: each cell owns its
/// gradient slot, so pooled chunks compute exactly what one serial call does.
void gather_cells(const DensityGrid& grid, const float* x, const float* y,
                  simd::CellSet cells, const double* ex, const double* ey,
                  float coeff, float* grad_x, float* grad_y,
                  ThreadPool* pool) {
  if (pool == nullptr) {
    grid.gather(x, y, cells, ex, ey, coeff, grad_x, grad_y);
    return;
  }
  pool->parallel_for(cells.count,
                     [&](std::size_t b, std::size_t e, std::size_t) {
                       grid.gather(x, y, cells.slice(b, e), ex, ey, coeff,
                                   grad_x, grad_y);
                     });
}

}  // namespace

DensityGrid::DensityGrid(const db::Database& db, int m)
    : target_density_(db.target_density()),
      total_movable_area_(db.total_movable_area()),
      half_w_(db.num_cells_total()),
      half_h_(db.num_cells_total()),
      dens_scale_(db.num_cells_total()),
      footprints_(db.num_cells_total() - db.num_fixed()) {
  if (!fft::is_pow2(static_cast<std::size_t>(m))) {
    throw std::invalid_argument("density grid dimension must be a power of two");
  }
  const double bin_w = db.region().width() / m;
  const double bin_h = db.region().height() / m;
  g_ = {.lx = db.region().lx, .ly = db.region().ly,
        .bin_w = bin_w, .bin_h = bin_h,
        .inv_bin_w = 1.0 / bin_w, .inv_bin_h = 1.0 / bin_h,
        .inv_bin_area = 1.0 / (bin_w * bin_h), .m = m,
        .half_w = half_w_.data(), .half_h = half_h_.data(),
        .scale = dens_scale_.data(), .table = footprints_.data(),
        .nm = db.num_movable(), .np = db.num_physical()};
  const std::size_t n = db.num_cells_total();
  const double min_w = bin_w * std::numbers::sqrt2;
  const double min_h = bin_h * std::numbers::sqrt2;
  for (std::size_t c = 0; c < n; ++c) {
    const bool fixed = db.kind(c) == db::CellKind::kFixed;
    double w = db.width(c), h = db.height(c);
    double scale = 1.0;
    if (!fixed) {
      // ePlace local smoothing: never narrower than √2·bin per dimension.
      const double we = std::max(w, min_w), he = std::max(h, min_h);
      scale = (w * h) / (we * he);
      w = we;
      h = he;
    } else {
      // Fixed cells contribute at most the target density so that bins fully
      // covered by a macro carry zero overflow and zero net force.
      scale = target_density_;
    }
    half_w_[c] = static_cast<float>(w * 0.5);
    half_h_[c] = static_cast<float>(h * 0.5);
    dens_scale_[c] = static_cast<float>(scale);
  }
}

void DensityGrid::accumulate_range(const char* opname, const float* x,
                                   const float* y, std::size_t begin,
                                   std::size_t end, double* map, bool clear,
                                   ThreadPool* pool) const {
  Dispatcher::global().run(opname, [&] {
    scatter_cells(*this, x, y, {nullptr, begin, end - begin}, map, clear,
                  pool);
  });
}

double DensityGrid::overflow(const double* density_map) const {
  const double over_area = overflow_area(density_map);
  return total_movable_area_ > 0.0 ? over_area / total_movable_area_ : 0.0;
}

double DensityGrid::overflow_area(const double* density_map) const {
  double over_area = 0.0;
  Dispatcher::global().run("overflow_ratio", [&] {
    const double bin_area = g_.bin_w * g_.bin_h;
    for (std::size_t b = 0; b < num_bins(); ++b) {
      over_area += std::max(density_map[b] - target_density_, 0.0) * bin_area;
    }
  });
  return over_area;
}

void DensityGrid::accumulate_cells(const char* opname, const float* x,
                                   const float* y,
                                   const std::vector<std::uint32_t>& cells,
                                   double* map, bool clear,
                                   ThreadPool* pool) const {
  Dispatcher::global().run(opname, [&] {
    scatter_cells(*this, x, y, {cells.data(), 0, cells.size()}, map, clear,
                  pool);
  });
}

void DensityGrid::gather_field_cells(const char* opname, const float* x,
                                     const float* y,
                                     const std::vector<std::uint32_t>& cells,
                                     const double* ex, const double* ey,
                                     float coeff, float* grad_x,
                                     float* grad_y, ThreadPool* pool) const {
  Dispatcher::global().run(opname, [&] {
    gather_cells(*this, x, y, {cells.data(), 0, cells.size()}, ex, ey, coeff,
                 grad_x, grad_y, pool);
  });
}

void DensityGrid::gather_field(const char* opname, const float* x,
                               const float* y, std::size_t begin,
                               std::size_t end, const double* ex,
                               const double* ey, float coeff, float* grad_x,
                               float* grad_y, ThreadPool* pool) const {
  Dispatcher::global().run(opname, [&] {
    gather_cells(*this, x, y, {nullptr, begin, end - begin}, ex, ey, coeff,
                 grad_x, grad_y, pool);
  });
}

double DensityGrid::total_area(const double* map) const {
  double acc = 0.0;
  const double bin_area = g_.bin_w * g_.bin_h;
  for (std::size_t b = 0; b < num_bins(); ++b) acc += map[b] * bin_area;
  return acc;
}

}  // namespace xplace::ops
