// Iterative radix-2 complex FFT (power-of-two sizes).
//
// This is the repository's stand-in for cuFFT / torch.fft: it backs the
// spectral layers of the Fourier neural operator (src/nn). The DCT/IDXST
// transforms of the electrostatic Poisson solver run on the plan engine
// (fft/plan.h), which shares its twiddle and bit-reversal tables.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace xplace::fft {

using Complex = std::complex<double>;

/// True iff n is a nonzero power of two.
bool is_pow2(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// In-place forward DFT: X_k = sum_n x_n e^{-2πi kn/N}. N must be a power of
/// two. Unnormalized (matching FFTW/cuFFT convention).
void fft(Complex* data, std::size_t n);

/// In-place inverse DFT with 1/N normalization: ifft(fft(x)) == x.
void ifft(Complex* data, std::size_t n);

/// Convenience copies.
std::vector<Complex> fft(const std::vector<Complex>& x);
std::vector<Complex> ifft(const std::vector<Complex>& x);

/// 2-D transforms on a row-major rows×cols array (both powers of two).
/// Row-column decomposition; unnormalized forward, 1/(rows*cols) inverse.
void fft2(Complex* data, std::size_t rows, std::size_t cols);
void ifft2(Complex* data, std::size_t rows, std::size_t cols);

}  // namespace xplace::fft
