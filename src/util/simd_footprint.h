// The density footprint kernels behind Kernels::density_scatter/gather,
// shared by the backends (internal to util/simd*.cpp). Per cell: reuse the
// cached footprint (gather) or build it (scatter: and store it), then apply
// it column by column. The backend B supplies the arithmetic: B::rows fills
// a ≤3×3 footprint's row overlaps and returns the rows handle B::scatter
// takes (B::gather reads the stored overlaps); B::span gives the handle for
// one column of a footprint above 3×3. The AVX2 TU includes this file under
// `#pragma GCC target("avx2,fma")` so that its instantiation inlines them.
#pragma once

#include "util/simd.h"

namespace xplace::simd::footprint {

template <typename B>
[[gnu::always_inline]] inline auto build(const DensityGeom& g,
                                         const CellBox& b, float px, float py,
                                         Footprint& f) {
  f.x = px;
  f.y = py;
  f.bin0 = static_cast<std::uint32_t>(static_cast<std::size_t>(b.bx0) * g.m +
                                      b.by0);
  f.nx = static_cast<std::uint8_t>(b.bx1 - b.bx0 + 1);
  f.ny = static_cast<std::uint8_t>(b.by1 - b.by0 + 1);
  for (int i = 0; i < f.nx; ++i) f.ow[i] = g.col_overlap(b, b.bx0 + i);
  return B::rows(g, b, f.oh);
}

template <typename B>
void scatter(const DensityGeom& g, const float* x, const float* y,
             CellSet cells, double* map) {
  Footprint tmp{};  // fixed cells: built, never stored
  for (std::size_t i = 0; i < cells.count; ++i) {
    const std::size_t c = cells[i];
    const double scale = g.scale[c] * g.inv_bin_area;
    const CellBox b = g.box(c, x, y);
    if (b.exceeds_3x3()) {
      for (int bx = b.bx0; bx <= b.bx1; ++bx) {
        const double ow = g.col_overlap(b, bx);
        if (ow <= 0.0) continue;
        B::scatter(map + static_cast<std::size_t>(bx) * g.m + b.by0,
                   b.by1 - b.by0 + 1, B::span(g, b), ow, scale);
      }
      continue;
    }
    Footprint* e = g.entry(c);
    Footprint& f = e != nullptr ? *e : tmp;
    const auto rows = build<B>(g, b, x[c], y[c], f);
    for (int i = 0; i < f.nx; ++i) {
      if (f.ow[i] <= 0.0) continue;
      B::scatter(map + f.bin0 + static_cast<std::size_t>(i) * g.m, f.ny, rows,
                 f.ow[i], scale);
    }
  }
}

template <typename B>
void gather(const DensityGeom& g, const float* x, const float* y,
            CellSet cells, const double* ex, const double* ey, float coeff,
            float* grad_x, float* grad_y) {
  Footprint tmp{};
  for (std::size_t i = 0; i < cells.count; ++i) {
    const std::size_t c = cells[i];
    double fx = 0.0, fy = 0.0;
    const Footprint* f = g.entry(c);
    if (f == nullptr || !f->matches(x[c], y[c])) {
      const CellBox b = g.box(c, x, y);
      f = b.exceeds_3x3() ? nullptr : &tmp;
      if (f != nullptr) {
        build<B>(g, b, x[c], y[c], tmp);
      } else {
        for (int bx = b.bx0; bx <= b.bx1; ++bx) {
          const double ow = g.col_overlap(b, bx);
          if (ow <= 0.0) continue;
          const std::size_t row = static_cast<std::size_t>(bx) * g.m + b.by0;
          B::gather(ex + row, ey + row, b.by1 - b.by0 + 1, B::span(g, b), ow,
                    fx, fy);
        }
      }
    }
    for (int i = 0; f != nullptr && i < f->nx; ++i) {
      if (f->ow[i] <= 0.0) continue;
      const std::size_t col = f->bin0 + static_cast<std::size_t>(i) * g.m;
      B::gather(ex + col, ey + col, f->ny, f->oh, f->ow[i], fx, fy);
    }
    const double q = g.scale[c] * g.inv_bin_area;
    grad_x[c] += coeff * static_cast<float>(q * fx);
    grad_y[c] += coeff * static_cast<float>(q * fy);
  }
}

}  // namespace xplace::simd::footprint
