// 2-D discrete cosine / sine transforms on the fused plan engine
// (fft/plan.h), the one DCT implementation in the repository.
//
// These are the spectral kernels of the ePlace electrostatic solver
// (Equation (5) of the Xplace paper), built from three 1-D kinds
// (fft::Kind1D):
//
//   dct       X_k = Σ_n x_n cos(πk(2n+1)/(2N))            (DCT-II, unnormalized)
//   idct      exact inverse of dct — includes the 1/N and the halved k=0 term
//   idxst     y_n = Σ_k α_k X_k sin(πk(2n+1)/(2N)),  α_0 = 1/N, α_{k>0} = 2/N
//             (the sine synthesis paired with idct's normalization; the k=0
//             term vanishes so α_0 is irrelevant)
//
// A 1-D transform is a single-row run_rows pass with the matching kind.
// 2-D combinations follow DREAMPlace's naming: `idxst_idct` applies the sine
// synthesis along dimension 0 (x / rows) and cosine synthesis along dimension
// 1 (y / cols); `idct_idxst` is the transpose pairing. All sizes must be
// powers of two.
#pragma once

#include <cstddef>

namespace xplace {
class ThreadPool;
}

namespace xplace::fft {

/// Row-major 2-D transforms over rows×cols (both powers of two).
/// Dimension 0 = rows (x), dimension 1 = cols (y).
///
/// When `pool` is non-null (and larger than one worker) the independent
/// row-pair transforms — and then the column pairs — are partitioned across
/// it via the plan engine's run_rows/run_cols (fft/plan.h); each pair
/// touches a disjoint slice and its own scratch slot, so the result is
/// bitwise-identical to the serial pass for ANY worker count.
void dct2(double* data, std::size_t rows, std::size_t cols,
          ThreadPool* pool = nullptr);
void idct2(double* data, std::size_t rows, std::size_t cols,
           ThreadPool* pool = nullptr);
void idxst_idct(double* data, std::size_t rows, std::size_t cols,
                ThreadPool* pool = nullptr);
void idct_idxst(double* data, std::size_t rows, std::size_t cols,
                ThreadPool* pool = nullptr);

}  // namespace xplace::fft
