#include "fft/dct.h"

#include <cassert>

#include "fft/plan.h"
#include "util/thread_pool.h"

namespace xplace::fft {
namespace {

/// Per-thread scratch slab for the standalone 2-D wrappers (allocation-free
/// at steady state). PoissonSolver bypasses these wrappers and owns its own
/// slab so its iterations share one allocation across all passes.
thread_local PlanScratch tl_scratch;

/// One in-place separable 2-D transform through the fused plan executors:
/// dimension 1 first (contiguous rows, paired two per complex FFT), then
/// dimension 0 (adjacent column pairs at native stride — no gather/scatter).
void run2d(double* data, std::size_t rows, std::size_t cols, Kind1D row_kind,
           Kind1D col_kind, ThreadPool* pool) {
  assert(is_pow2(rows) && is_pow2(cols));
  ThreadPool* p = (pool != nullptr && pool->size() > 1) ? pool : nullptr;
  const PassOp row_op{data, data, row_kind};
  run_rows(&row_op, 1, rows, cols, p, tl_scratch);
  const PassOp col_op{data, data, col_kind};
  run_cols(&col_op, 1, rows, cols, p, tl_scratch);
}

}  // namespace

void dct2(double* data, std::size_t rows, std::size_t cols, ThreadPool* pool) {
  run2d(data, rows, cols, Kind1D::kDct, Kind1D::kDct, pool);
}

void idct2(double* data, std::size_t rows, std::size_t cols, ThreadPool* pool) {
  run2d(data, rows, cols, Kind1D::kIdct, Kind1D::kIdct, pool);
}

void idxst_idct(double* data, std::size_t rows, std::size_t cols,
                ThreadPool* pool) {
  // idxst along dimension 0, idct along dimension 1.
  run2d(data, rows, cols, Kind1D::kIdct, Kind1D::kIdxst, pool);
}

void idct_idxst(double* data, std::size_t rows, std::size_t cols,
                ThreadPool* pool) {
  // idct along dimension 0, idxst along dimension 1.
  run2d(data, rows, cols, Kind1D::kIdxst, Kind1D::kIdct, pool);
}

}  // namespace xplace::fft
