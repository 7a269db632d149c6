// Bin density map operators (Equations (7)–(10) of the paper).
//
// The grid splits the placement region into M×M bins. Cells scatter their
// area into overlapped bins (Equation (8)); following ePlace, cells smaller
// than √2·bin are expanded to √2·bin per dimension with their density scaled
// by the area ratio (local smoothing), and fixed cells contribute with their
// density capped at the target density so fully-blocked bins exert no net
// force and add no overflow.
//
// Xplace's *operator extraction* (Section 3.1.2) computes the movable map D
// and the filler map D_fl separately, reusing D for the overflow metric and
// forming the electrostatic map as D̃ = D + D_fl with one elementwise add.
// The un-extracted baseline accumulates D̃ jointly and then re-accumulates D
// for the overflow, duplicating the movable+fixed scatter. Both paths are
// exposed here so the ablation measures the real cost difference.
//
// Map layout: row-major `map[ix * m + iy]`, dimension 0 = x.
//
// Footprint cache (DESIGN.md §17): every scatter stores each movable or
// filler cell's footprint (first bin, ≤3×3 per-column and per-row overlaps
// exactly as the active SIMD backend computes them, and the float position
// it was built from) in a 64 B entry. A gather reuses an entry only when its
// position tag matches the cell's position bit for bit, and otherwise
// rebuilds the footprint with the same arithmetic, so results never depend
// on the cache. Fixed cells and footprints above 3×3 are never cached. The
// scatters write entries from `const` methods: two callers must not scatter
// overlapping cells into one grid at once (the pooled kernels partition by
// cell). The table is transient: it is not part of checkpoint state.
//
// The scatters and gathers take an optional ThreadPool. Null (or a pool of
// one) runs the backend kernel in place. With a pool:
//   * the scatter gives each worker a contiguous slice of the cells and its
//     own full-grid map, and every bin folds the maps in worker order
//     (base + p0 + p1 + …) — deterministic for a fixed pool size, but not
//     across pool sizes; below 512 cells it runs in place,
//   * the gather splits the cells into chunks; each cell's gradient slot is
//     written by one worker exactly as the serial kernel writes it, so the
//     pooled gather is bitwise the serial one.
// Either way a call is one dispatcher launch under `opname`.
#pragma once

#include <cstddef>
#include <vector>

#include "db/database.h"
#include "util/simd.h"

namespace xplace {
class ThreadPool;
}

namespace xplace::ops {

class DensityGrid {
 public:
  /// Must be constructed after fillers are inserted (footprints are cached
  /// for every cell id). `m` must be a power of two for the Poisson solver.
  DensityGrid(const db::Database& db, int m);
  // Not copyable: g_ points into the members.
  DensityGrid(const DensityGrid&) = delete;
  DensityGrid& operator=(const DensityGrid&) = delete;

  int m() const { return g_.m; }
  double bin_w() const { return g_.bin_w; }
  double bin_h() const { return g_.bin_h; }
  double bin_area() const { return g_.bin_w * g_.bin_h; }
  std::size_t num_bins() const {
    return static_cast<std::size_t>(g_.m) * g_.m;
  }

  /// Scatter cells [begin, end) into `map` (adds; optionally clears first).
  /// Positions are center coordinates indexed by cell id. One kernel launch
  /// under `opname`.
  void accumulate_range(const char* opname, const float* x, const float* y,
                        std::size_t begin, std::size_t end, double* map,
                        bool clear, ThreadPool* pool = nullptr) const;

  /// Scatter an explicit list of cells (multi-electrostatics: the members of
  /// one fence region's system). One kernel launch.
  void accumulate_cells(const char* opname, const float* x, const float* y,
                        const std::vector<std::uint32_t>& cells, double* map,
                        bool clear, ThreadPool* pool = nullptr) const;

  /// Overflow ratio (Equation (7)) from the physical-cell density map D.
  /// One kernel launch.
  double overflow(const double* density_map) const;

  /// Σ_b max(D_b − D_t, 0)·A_b — the numerator of Eq. (7); used to aggregate
  /// overflow across fence-region systems. One kernel launch.
  double overflow_area(const double* density_map) const;

  /// Gather a field map to per-cell gradients:
  ///   grad[c] += coeff * Σ_b overlap(c,b)/A_b * E_b * A_c_scale
  /// for cells [begin, end). Uses the same (smoothed) footprints as the
  /// scatter, making the gather the exact adjoint. One kernel launch.
  void gather_field(const char* opname, const float* x, const float* y,
                    std::size_t begin, std::size_t end, const double* ex,
                    const double* ey, float coeff, float* grad_x,
                    float* grad_y, ThreadPool* pool = nullptr) const;

  /// Gather for an explicit cell list (fence-region systems).
  void gather_field_cells(const char* opname, const float* x, const float* y,
                          const std::vector<std::uint32_t>& cells,
                          const double* ex, const double* ey, float coeff,
                          float* grad_x, float* grad_y,
                          ThreadPool* pool = nullptr) const;

  double target_density() const { return target_density_; }

  /// Sum of all density*binArea over a map (diagnostics: should equal the
  /// scaled cell area scattered into it).
  double total_area(const double* map) const;

  /// The launch-free single-thread kernels behind the calls above (run per
  /// partition when pooled).
  void scatter(const float* x, const float* y, simd::CellSet cells,
               double* map) const {
    simd::active().density_scatter(g_, x, y, cells, map);
  }
  void gather(const float* x, const float* y, simd::CellSet cells,
              const double* ex, const double* ey, float coeff, float* grad_x,
              float* grad_y) const {
    simd::active().density_gather(g_, x, y, cells, ex, ey, coeff, grad_x,
                                  grad_y);
  }

 private:
  double target_density_;
  double total_movable_area_;
  // Per-cell smoothed half-sizes, density scales and footprints.
  std::vector<float> half_w_, half_h_, dens_scale_;
  mutable std::vector<simd::Footprint> footprints_;
  simd::DensityGeom g_;
};

}  // namespace xplace::ops
